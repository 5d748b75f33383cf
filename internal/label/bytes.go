package label

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Bytes is the varint encoding of a Label — exactly the byte string Encode
// produces — viewed without materializing []Entry. The columnar run format
// stores every node's label in one contiguous column of such strings, and
// the pairwise decoders walk them in place with a Cursor, so a reachability
// answer touches only cache-resident bytes and allocates nothing.
type Bytes []byte

// Cursor iterates the entries of an encoded label in place. The zero
// Cursor is exhausted; obtain one with NewCursor. A malformed tail
// (truncated varint, missing component) ends the iteration and is
// reported by Err.
type Cursor struct {
	buf Bytes
	err error
}

// NewCursor returns a cursor positioned at the label's first entry.
func NewCursor(b Bytes) Cursor { return Cursor{buf: b} }

// Next decodes and consumes one entry. It returns ok=false at the end of
// the label or on a malformed encoding (the two are distinguished by Err).
func (c *Cursor) Next() (Entry, bool) {
	if len(c.buf) == 0 || c.err != nil {
		return Entry{}, false
	}
	head, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.err = fmt.Errorf("label: bad head varint")
		return Entry{}, false
	}
	rest := c.buf[n:]
	e := Entry{Rec: head&1 == 1, X: int(head >> 1)}
	y, n := binary.Uvarint(rest)
	if n <= 0 {
		c.err = fmt.Errorf("label: truncated entry")
		return Entry{}, false
	}
	rest = rest[n:]
	e.Y = int(y)
	if e.Rec {
		z, n := binary.Uvarint(rest)
		if n <= 0 {
			c.err = fmt.Errorf("label: truncated recursion entry")
			return Entry{}, false
		}
		rest = rest[n:]
		e.Z = int(z)
	}
	c.buf = rest
	return e, true
}

// Err reports whether the iteration stopped on a malformed encoding
// rather than at the end of the label.
func (c *Cursor) Err() error { return c.err }

// Rest returns the not-yet-consumed tail of the encoding — the suffix
// starting at the entry the next Next call would decode.
func (c *Cursor) Rest() Bytes { return c.buf }

// Decode materializes the encoded label (the reference decoder the cursor
// is differential-tested against).
func (b Bytes) Decode() (Label, error) { return Decode(b) }

// CompareBytes totally orders two encoded labels in entry order — the
// exact order Compare defines on the materialized labels — by walking both
// encodings in lockstep, allocating nothing. A malformed encoding sorts as
// if it ended at its last whole entry (encodings from Encode or a
// validated column are never malformed).
func CompareBytes(a, b Bytes) int {
	ca, cb := NewCursor(a), NewCursor(b)
	for {
		ea, oka := ca.Next()
		eb, okb := cb.Next()
		switch {
		case !oka && !okb:
			return 0
		case !oka:
			return -1
		case !okb:
			return 1
		}
		if c := CompareEntry(ea, eb); c != 0 {
			return c
		}
	}
}

// EqualBytes reports whether two encoded labels decode to identical
// labels. Identical bytes decode identically, so the common case is one
// memcmp; encodings that differ in bytes fall back to the lockstep walk
// (binary.Uvarint accepts overlong varints, so distinct byte strings can
// encode equal entries).
func EqualBytes(a, b Bytes) bool {
	if bytes.Equal(a, b) {
		return true
	}
	return CompareBytes(a, b) == 0
}

// AppendEncode appends the label's varint encoding to dst and returns the
// extended slice — Encode, minus the allocation, for column builders.
func (l Label) AppendEncode(dst []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int) {
		n := binary.PutUvarint(tmp[:], uint64(v))
		dst = append(dst, tmp[:n]...)
	}
	for _, e := range l {
		head := e.X * 2
		if e.Rec {
			head++
		}
		put(head)
		put(e.Y)
		if e.Rec {
			put(e.Z)
		}
	}
	return dst
}
