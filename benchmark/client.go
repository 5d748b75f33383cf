package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// client is one connection's worth of a user: requests go out one at a
// time over one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request and reads the whole reply. The returned
// duration runs from just before the request is written until the last
// body byte is read; the body aliases the client's buffer and is valid
// until the next call.
func (c *client) post(ctx context.Context, path string, body []byte) (status int, resp []byte, d time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, res.Body)
	d = time.Since(start)
	res.Body.Close()
	if err != nil {
		return res.StatusCode, nil, d, err
	}
	return res.StatusCode, c.buf.Bytes(), d, nil
}

// jsonInt extracts the integer value of a top-level numeric field by name
// (the server's replies are flat objects, so the first occurrence is it).
func jsonInt(body []byte, field string) (int, bool) {
	key := []byte(`"` + field + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && (body[k] == '-' || (body[k] >= '0' && body[k] <= '9')) {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	return n, err == nil
}

// jsonString extracts a top-level string field that needs no unescaping.
func jsonString(body []byte, field string) string {
	key := []byte(`"` + field + `":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return ""
	}
	j := i + len(key)
	k := bytes.IndexByte(body[j:], '"')
	if k < 0 {
		return ""
	}
	return string(body[j : j+k])
}

var (
	elemFrom = []byte(`{"from":"`)
	elemTo   = []byte(`","to":"`)
	castag   = crc32.MakeTable(crc32.Castagnoli)
)

// eachPair walks the "pairs" array of an evaluate reply or a watch event,
// calling fn with every element's endpoint names and the element's raw
// bytes. It returns the element count, or -1 when the array is malformed.
// Node names hold no quotes or escapes, so a byte scan is exact.
func eachPair(body []byte, fn func(from, to, elem []byte)) int {
	i := bytes.Index(body, []byte(`"pairs":[`))
	if i < 0 {
		return -1
	}
	p := body[i+len(`"pairs":[`):]
	n := 0
	for len(p) > 0 && p[0] != ']' {
		if p[0] == ',' {
			p = p[1:]
		}
		if !bytes.HasPrefix(p, elemFrom) {
			return -1
		}
		a := len(elemFrom)
		b := bytes.IndexByte(p[a:], '"')
		if b < 0 || !bytes.HasPrefix(p[a+b:], elemTo) {
			return -1
		}
		c := a + b + len(elemTo)
		d := bytes.IndexByte(p[c:], '"')
		if d < 0 || c+d+1 >= len(p) || p[c+d+1] != '}' {
			return -1
		}
		if fn != nil {
			fn(p[a:a+b], p[c:c+d], p[:c+d+2])
		}
		p = p[c+d+2:]
		n++
	}
	return n
}

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castag) }

// pairsDigest is an order-independent digest of a pairs array: the XOR of
// every element's CRC, plus the element count.
func pairsDigest(body []byte) (digest uint32, n int) {
	n = eachPair(body, func(_, _, elem []byte) { digest ^= crcOf(elem) })
	return digest, n
}

// sseEvent is one Server-Sent Event: its name and data line.
type sseEvent struct {
	name string
	data []byte
	at   time.Time // when the frame's terminating blank line was read
}

// readSSE reads the next complete event from a watch stream.
func readSSE(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return ev, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev.name != "" {
				ev.at = time.Now()
				return ev, nil
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.data = append(ev.data[:0], line[len("data: "):]...)
		}
	}
}

// recorder collects one goroutine's samples; recorders are merged once
// their goroutines have ended.
type recorder struct {
	series    map[string][]float64 // latency in ms by series name
	attempted int
	failed    int
	firstErr  string
	strategy  map[string]int // evaluate replies by "strategy" field
}

func newRecorder() *recorder {
	return &recorder{series: map[string][]float64{}, strategy: map[string]int{}}
}

func (r *recorder) ok(series string, d time.Duration) {
	r.attempted++
	r.series[series] = append(r.series[series], float64(d)/1e6)
}

func (r *recorder) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.series {
		r.series[k] = append(r.series[k], v...)
	}
	for k, v := range o.strategy {
		r.strategy[k] += v
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// family pools every series of one op family ("evaluate" pools
// "evaluate", "evaluate.full", ...).
func (r *recorder) family(fam string) []float64 {
	var out []float64
	for k, v := range r.series {
		if k == fam || (len(k) > len(fam) && k[:len(fam)] == fam && k[len(fam)] == '.') {
			out = append(out, v...)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}
