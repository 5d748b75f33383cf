package core

import (
	"bytes"
	"fmt"
	"math/bits"

	"provrpq/internal/label"
)

// ErrUnsafe is returned by the safe-query entry points when the compiled
// query is not safe for the specification; callers should fall back to the
// general evaluator (general.go) or a baseline.
var ErrUnsafe = fmt.Errorf("core: query is not safe for this specification")

// PairwiseMatrix answers u —R→ v from the two node labels via full
// transition-matrix products rather than the row-vector fast path. Both
// compute the same answer; the matrix form also yields every (q,q')
// transition and is kept for diagnostics and as a cross-check in the
// tests.
func (e *Env) PairwiseMatrix(a, b label.Label) (bool, error) {
	d := e.decoder()
	if d == nil {
		return false, ErrUnsafe
	}
	m := d.pairwiseMat(a, b)
	e.release(d)
	if m == nil {
		return false, nil
	}
	return m[e.DFA.Start]&e.AcceptMask() != 0, nil
}

// PairwiseBytes answers u —R→ v from the two encoded node labels alone
// (Algorithm 1 / Theorem 1): does some path from u to v spell a word of
// L(R)? The cost is O(depth · |Q|³/64) — independent of the run size — and
// the answer is computed from the bytes without materializing either label
// (see Decoder.PairwiseBytesUnchecked). It requires a safe query.
func (e *Env) PairwiseBytes(a, b label.Bytes) (bool, error) {
	d := e.decoder()
	if d == nil {
		return false, ErrUnsafe
	}
	ok := d.PairwiseBytesUnchecked(a, b)
	e.release(d)
	return ok, nil
}

// PairwiseBytesUnchecked is PairwiseBytes for callers that already
// verified e.Safe().
func (e *Env) PairwiseBytesUnchecked(a, b label.Bytes) bool {
	d := e.decoder()
	if d == nil {
		panic("core: PairwiseBytesUnchecked on an unsafe query")
	}
	ok := d.PairwiseBytesUnchecked(a, b)
	e.release(d)
	return ok
}

// PairwiseUnchecked answers the safe pairwise query on the decoder's
// environment (the hot path of the all-pairs scans). It propagates only the
// start state's reachable-state set (a row vector) through the decode
// factors, so each factor costs O(|Q|) word operations instead of a matrix
// product — this is what makes the per-pair cost tens of nanoseconds.
func (d *Decoder) PairwiseUnchecked(a, b label.Label) bool {
	if label.Equal(a, b) {
		return d.e.MatchesEmpty()
	}
	dd := label.LCP(a, b)
	if dd >= len(a) || dd >= len(b) {
		return false
	}
	return d.pairwiseTail(a[dd:], b[dd:])
}

// PairwiseBytesUnchecked is PairwiseUnchecked on encoded labels — the hot
// path of a columnar-opened run, which never materializes []Entry labels.
// The encodings are walked in lockstep with cursors to the divergence
// entry; only the two (depth-bounded) suffixes from the divergence on are
// decoded, into decoder-owned scratch, so a pairwise answer allocates
// nothing after scratch warm-up. Byte equality is only a fast path: equal
// labels with unequal bytes (overlong varints) are decided by the lockstep
// walk, never assumed impossible.
//
// The inputs must be valid encodings (Encode output or a validated label
// column); a malformed input panics, like a corrupt label column would.
//
// Sanctioned Label mutation: the appends below recycle d.sa/d.sb, scratch
// Labels owned by this decoder, never a label attached to a run.
//
//provrpq:mutator
func (d *Decoder) PairwiseBytesUnchecked(a, b label.Bytes) bool {
	if bytes.Equal(a, b) {
		return d.e.MatchesEmpty()
	}
	ca, cb := label.NewCursor(a), label.NewCursor(b)
	for {
		ea, oka := ca.Next()
		eb, okb := cb.Next()
		if !oka || !okb {
			if err := ca.Err(); err != nil {
				panic(fmt.Sprintf("core: malformed label encoding: %v", err))
			}
			if err := cb.Err(); err != nil {
				panic(fmt.Sprintf("core: malformed label encoding: %v", err))
			}
			if !oka && !okb {
				return d.e.MatchesEmpty() // equal entry sequences
			}
			return false // proper prefix: labels cannot coexist in one run
		}
		if ea == eb {
			continue
		}
		var err error
		d.sa = append(d.sa[:0], ea)
		if d.sa, err = label.DecodeInto(d.sa, ca.Rest()); err != nil {
			panic(fmt.Sprintf("core: malformed label encoding: %v", err))
		}
		d.sb = append(d.sb[:0], eb)
		if d.sb, err = label.DecodeInto(d.sb, cb.Rest()); err != nil {
			panic(fmt.Sprintf("core: malformed label encoding: %v", err))
		}
		return d.pairwiseTail(d.sa, d.sb)
	}
}

// pairwiseTail answers the divergent case given the two label suffixes
// starting at the divergence entry (a[0] != b[0], both non-empty).
func (d *Decoder) pairwiseTail(a, b label.Label) bool {
	e := d.e
	ea, eb := a[0], b[0]
	if ea.Rec != eb.Rec {
		return false
	}
	art := d.art
	sv := uint64(1) << uint(e.DFA.Start)

	apply := func(m Mat) {
		var out uint64
		rest := sv
		for rest != 0 {
			q := bits.TrailingZeros64(rest)
			rest &^= 1 << uint(q)
			out |= m[q]
		}
		sv = out
	}
	upApply := func(l label.Label, start int) bool {
		for lvl := len(l) - 1; lvl >= start; lvl-- {
			en := l[lvl]
			if !en.Rec {
				apply(art.out[en.X][en.Y])
			} else {
				apply(d.chainOut(en.X, en.Y, en.Z-1, 1))
			}
			if sv == 0 {
				return false
			}
		}
		return true
	}
	downApply := func(l label.Label, start int) bool {
		for lvl := start; lvl < len(l); lvl++ {
			en := l[lvl]
			if !en.Rec {
				apply(art.in[en.X][en.Y])
			} else {
				apply(d.chainIn(en.X, en.Y, 1, en.Z-1))
			}
			if sv == 0 {
				return false
			}
		}
		return true
	}

	if !ea.Rec {
		if ea.X != eb.X {
			return false
		}
		k := ea.X
		n := len(e.Spec.Prods[k].Body.Nodes)
		mid := art.mid[k][ea.Y*n+eb.Y]
		if mid.IsZero() {
			return false
		}
		if !upApply(a, 1) {
			return false
		}
		apply(mid)
		if sv == 0 || !downApply(b, 1) {
			return false
		}
		return sv&e.AcceptMask() != 0
	}
	if ea.X != eb.X || ea.Y != eb.Y {
		return false
	}
	s, t := ea.X, ea.Y
	i, j := ea.Z, eb.Z
	switch {
	case i < j:
		ki, cu, ok := childEntry(a, 0)
		if !ok {
			return false
		}
		rp, cyclePos := e.Spec.RecursiveProd(e.Spec.Prods[ki].LHS)
		if rp != ki {
			return false
		}
		n := len(e.Spec.Prods[ki].Body.Nodes)
		mid := art.mid[ki][cu*n+cyclePos]
		if mid.IsZero() {
			return false
		}
		if !upApply(a, 2) {
			return false
		}
		apply(mid)
		if sv == 0 {
			return false
		}
		apply(d.chainIn(s, t, i+1, j-1))
		if sv == 0 || !downApply(b, 1) {
			return false
		}
		return sv&e.AcceptMask() != 0
	case i > j:
		kj, cv, ok := childEntry(b, 0)
		if !ok {
			return false
		}
		rp, cyclePos := e.Spec.RecursiveProd(e.Spec.Prods[kj].LHS)
		if rp != kj {
			return false
		}
		n := len(e.Spec.Prods[kj].Body.Nodes)
		mid := art.mid[kj][cyclePos*n+cv]
		if mid.IsZero() {
			return false
		}
		if !upApply(a, 1) {
			return false
		}
		apply(d.chainOut(s, t, i-1, j+1))
		if sv == 0 {
			return false
		}
		apply(mid)
		if sv == 0 || !downApply(b, 2) {
			return false
		}
		return sv&e.AcceptMask() != 0
	}
	return false
}

// pairwiseMat computes the full transition matrix M with M[q][q'] = "some
// u→v path moves the DFA from q to q'", or nil when no path exists. The
// identity is returned for u == v (the empty path).
func (d *Decoder) pairwiseMat(a, b label.Label) Mat {
	e := d.e
	if label.Equal(a, b) {
		return Identity(e.NQ)
	}
	dd := label.LCP(a, b)
	if dd >= len(a) || dd >= len(b) {
		return nil // prefix labels cannot coexist as run leaves
	}
	ea, eb := a[dd], b[dd]
	if ea.Rec != eb.Rec {
		return nil
	}
	art := d.art
	if !ea.Rec {
		// Composite divergence: same node expanded with one production.
		if ea.X != eb.X {
			return nil
		}
		k := ea.X
		n := len(e.Spec.Prods[k].Body.Nodes)
		mid := art.mid[k][ea.Y*n+eb.Y]
		if mid.IsZero() {
			return nil
		}
		return d.upTo(a, dd+1).Mul(mid).Mul(d.downTo(b, dd+1))
	}
	// Recursive divergence: same R node, different iterations.
	if ea.X != eb.X || ea.Y != eb.Y {
		return nil
	}
	s, t := ea.X, ea.Y
	i, j := ea.Z, eb.Z
	switch {
	case i < j:
		// u climbs to its child unit's output inside iteration i, crosses
		// into the cycle-successor, rides the chain down to iteration j.
		ki, cu, ok := childEntry(a, dd)
		if !ok {
			return nil
		}
		rp, cyclePos := e.Spec.RecursiveProd(e.Spec.Prods[ki].LHS)
		if rp != ki {
			return nil
		}
		n := len(e.Spec.Prods[ki].Body.Nodes)
		mid := art.mid[ki][cu*n+cyclePos]
		if mid.IsZero() {
			return nil
		}
		m := d.upTo(a, dd+2).Mul(mid)
		m = m.Mul(d.chainIn(s, t, i+1, j-1))
		return m.Mul(d.downTo(b, dd+1))
	case i > j:
		// u exits iterations i..j+1 through their outputs, then crosses to
		// v's child unit within iteration j's body.
		kj, cv, ok := childEntry(b, dd)
		if !ok {
			return nil
		}
		rp, cyclePos := e.Spec.RecursiveProd(e.Spec.Prods[kj].LHS)
		if rp != kj {
			return nil
		}
		n := len(e.Spec.Prods[kj].Body.Nodes)
		mid := art.mid[kj][cyclePos*n+cv]
		if mid.IsZero() {
			return nil
		}
		m := d.upTo(a, dd+1).Mul(d.chainOut(s, t, i-1, j+1))
		return m.Mul(mid).Mul(d.downTo(b, dd+2))
	}
	return nil // same iteration yet divergent at the R entry: malformed
}

// childEntry extracts the production entry just below position d, i.e. the
// (production, body position) of the label's subtree within iteration l[d].Z.
func childEntry(l label.Label, d int) (k, c int, ok bool) {
	if d+1 >= len(l) || l[d+1].Rec {
		return 0, 0, false
	}
	return l[d+1].X, l[d+1].Y, true
}

// upTo composes the climb from the leaf's output port to the output port of
// the unit at entry index start-1's child — i.e. it folds the label entries
// l[len-1] .. l[start] bottom-up through OutMat factors (production entries)
// and descending chain products (recursion entries).
func (d *Decoder) upTo(l label.Label, start int) Mat {
	m := Identity(d.e.NQ)
	for lvl := len(l) - 1; lvl >= start; lvl-- {
		en := l[lvl]
		if !en.Rec {
			m = m.Mul(d.art.out[en.X][en.Y])
		} else {
			// From the output of iteration en.Z to the output of iteration
			// 1 (the R unit's output).
			m = m.Mul(d.chainOut(en.X, en.Y, en.Z-1, 1))
		}
	}
	return m
}

// downTo composes the descent from the input port of the unit at entry
// index start's parent down to the leaf's input port — folding entries
// l[start] .. l[len-1] through InMat factors and ascending chain products.
func (d *Decoder) downTo(l label.Label, start int) Mat {
	m := Identity(d.e.NQ)
	for lvl := start; lvl < len(l); lvl++ {
		en := l[lvl]
		if !en.Rec {
			m = m.Mul(d.art.in[en.X][en.Y])
		} else {
			// From the input of iteration 1 (the R unit's input) to the
			// input of iteration en.Z.
			m = m.Mul(d.chainIn(en.X, en.Y, 1, en.Z-1))
		}
	}
	return m
}
