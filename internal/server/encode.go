package server

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"

	"provrpq"
)

// This file writes pair lists — the "pairs" of an evaluate response, a batch
// item and the watch frames — without reflection or a struct per pair: byte
// for byte what encoding/json writes for a slice of struct{From, To string}
// tagged "from" and "to".

// appendName appends a node name as a JSON string. Names are almost always
// plain ASCII, copied as they are; any byte encoding/json would escape or
// check (quotes, backslash, the HTML characters it escapes by default,
// controls, DEL and up) sends the whole name through encoding/json itself.
func appendName(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // cannot fail: a string
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendHead appends the JSON object head — a response without its pair list,
// which must be the member the wire format ends on — left open for one.
func appendHead(dst []byte, head any) []byte {
	b, _ := json.Marshal(head) // cannot fail: the heads hold strings, ints and bools
	return append(dst, b[:len(b)-1]...)
}

// pairWriter appends the pairs of one run's result to buf, which ends on an
// open object (appendHead), as that object's last member "pairs".
type pairWriter struct {
	run    *provrpq.Run
	buf    []byte
	prefix []byte // `{"from":"<name>","to":` of the current source
}

// add appends the pair (u, v); row says u is not the source of the pair before.
func (w *pairWriter) add(u, v provrpq.NodeID, row bool) {
	if row {
		w.prefix = append(appendName(append(w.prefix[:0], `{"from":`...), w.run.NodeName(u)), `,"to":`...)
	}
	w.buf = append(appendName(append(w.buf, w.prefix...), w.run.NodeName(v)), '}', ',')
}

// end closes the list, dropping the last pair's comma, and the object.
func (w *pairWriter) end() { w.buf = append(bytes.TrimSuffix(w.buf, []byte{','}), ']', '}') }

// rows appends a result's window, sized beforehand from the name lengths so
// that the response is allocated once; it gives up with ctx.Err() at the next
// row once ctx is done.
func (w *pairWriter) rows(ctx context.Context, rows *provrpq.Rows) error {
	size := len(`,"pairs":[]}`) + 1
	rows.Each(func(u provrpq.NodeID, to []int32) bool {
		size += len(to) * (len(w.run.NodeName(u)) + len(`{"from":"","to":""},`))
		for _, v := range to {
			size += len(w.run.NodeName(provrpq.NodeID(v)))
		}
		return true
	})
	w.buf = append(slices.Grow(w.buf, size), `,"pairs":[`...)
	rows.Each(func(u provrpq.NodeID, to []int32) bool {
		for i, v := range to {
			w.add(u, provrpq.NodeID(v), i == 0)
		}
		return ctx.Err() == nil
	})
	w.end()
	return ctx.Err()
}

// pairs appends pairs sorted by From.
func (w *pairWriter) pairs(pairs []provrpq.Pair) {
	w.buf = append(w.buf, `,"pairs":[`...)
	for i, p := range pairs {
		w.add(p.From, p.To, i == 0 || p.From != pairs[i-1].From)
	}
	w.end()
}
