// Package label implements the derivation-based node labels ψV of the
// paper's Section II-B (reconstructing the scheme of Bao, Davidson and Milo,
// PVLDB 2012 — reference [4]).
//
// A node of a run is labeled with the sequence of compressed-parse-tree edge
// labels from the root to the node:
//
//   - a production entry (k, i): the parent was expanded with production k
//     and the node is (derived under) the i-th body node;
//   - a recursion entry (s, t, i): the parent is the recursive node of cycle
//     s entered via cycle edge t, and the node is (derived under) the i-th
//     iteration of the unfolded cycle.
//
// Labels are assigned once, when a node is derived, and never change
// (dynamic labeling). Because compressed-parse-tree depth is bounded by the
// specification size and entry components are bounded by the specification
// size or the recursion depth, the varint encoding is O(|G| · log n) bits —
// the paper's "logarithmic in the run size" for fixed G.
package label

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Entry is one compressed-parse-tree edge label.
type Entry struct {
	// Rec distinguishes recursion entries (s,t,i) from production entries (k,i).
	Rec bool
	// X is the production index k, or the cycle id s.
	X int
	// Y is the body position i (production entries), or the entry edge t
	// (recursion entries).
	Y int
	// Z is the iteration number i >= 1 for recursion entries; unused otherwise.
	Z int
}

// Prod returns a production entry (k, i).
func Prod(k, i int) Entry { return Entry{X: k, Y: i} }

// Rec returns a recursion entry (s, t, iter).
func Rec(s, t, iter int) Entry { return Entry{Rec: true, X: s, Y: t, Z: iter} }

// String renders the entry in the paper's notation.
func (e Entry) String() string {
	if e.Rec {
		return fmt.Sprintf("(%d,%d,%d)", e.X, e.Y, e.Z)
	}
	return fmt.Sprintf("(%d,%d)", e.X, e.Y)
}

// Label is the full root-to-node entry sequence ψV(v). Once attached to
// a node it is shared by every reader of the run, so it is frozen after
// construction: mutate via Clone.
//
//provrpq:immutable
type Label []Entry

// String renders the label in the paper's notation, e.g. "(1,3)(4,1)".
func (l Label) String() string {
	var b strings.Builder
	for _, e := range l {
		b.WriteString(e.String())
	}
	return b.String()
}

// Clone returns an independent copy.
func (l Label) Clone() Label { return append(Label(nil), l...) }

// Equal reports whether two labels are identical.
func Equal(a, b Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compare totally orders labels lexicographically by entries (a strict
// prefix sorts first). Entries compare by (Rec, X, Y, Z). Sorting a node
// list with Compare groups common prefixes consecutively, which lets the
// all-pairs algorithms build the tree representation in linear time
// (Section IV-A, "tree representation of a list of nodes").
func Compare(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareEntry(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// CompareEntry orders two entries by (Rec, X, Y, Z) — the order Compare
// sorts labels in, and so the order of a trie node's children.
func CompareEntry(a, b Entry) int {
	if a.Rec != b.Rec {
		if !a.Rec {
			return -1
		}
		return 1
	}
	switch {
	case a.X != b.X:
		return sign(a.X - b.X)
	case a.Y != b.Y:
		return sign(a.Y - b.Y)
	case a.Z != b.Z:
		return sign(a.Z - b.Z)
	}
	return 0
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// LCP returns the length of the longest common prefix of a and b. The
// divergence entries a[LCP], b[LCP] (when both exist) identify the least
// common ancestor in the compressed parse tree — the core step of the
// constant-time decoding (Section II-B "Decoding").
func LCP(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Encode packs the label into a compact varint byte string: per entry, a
// head varint X*2 + recBit, then Y, then (recursion only) Z.
func (l Label) Encode() []byte {
	return l.AppendEncode(make([]byte, 0, len(l)*3))
}

// Decode parses an Encode result. An entry occupies at least two bytes, so
// the entry count is bounded by len(buf)/2 and the label is allocated in
// one shot instead of growing by repeated appends.
func Decode(buf []byte) (Label, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	return DecodeInto(make(Label, 0, len(buf)/2), buf)
}

// DecodeInto appends the encoded entries to dst (which may be a reused
// scratch slice, typically dst[:0]) and returns the extended label.
func DecodeInto(dst Label, buf []byte) (Label, error) {
	for len(buf) > 0 {
		head, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("label: bad head varint")
		}
		buf = buf[n:]
		e := Entry{Rec: head&1 == 1, X: int(head >> 1)}
		y, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("label: truncated entry")
		}
		buf = buf[n:]
		e.Y = int(y)
		if e.Rec {
			z, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("label: truncated recursion entry")
			}
			buf = buf[n:]
			e.Z = int(z)
		}
		dst = append(dst, e)
	}
	return dst, nil
}
