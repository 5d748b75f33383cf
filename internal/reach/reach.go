// Package reach implements constant-time pairwise reachability decoding from
// derivation-based labels (the reconstruction of reference [4]'s decoder π)
// and the tree representation of a label list (Section IV-A) that core's
// Algorithm 2 walk runs over; all-pairs reachability is that walk for the
// query _*.
//
// Pairwise decoding never touches the run: it compares the two labels, finds
// the compressed-parse-tree divergence (their longest common prefix) and
// consults only the specification:
//
//   - divergence under a composite node with entries (k,i), (k,j):
//     u ⇝ v iff body node i reaches body node j in production k
//     (well-formed bodies guarantee u reaches the output of its enclosing
//     subtree and v is reachable from the input of its enclosing subtree);
//
//   - divergence under a recursive R node with entries (s,t,i), (s,t,j):
//     for i < j, u ⇝ v iff u's child position can reach the cycle-successor
//     position within iteration i's production (the *red* condition);
//     for i > j, u ⇝ v iff the cycle-successor position reaches v's child
//     position within iteration j's production (the *blue* condition).
package reach

import (
	"bytes"

	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// Pairwise reports whether the node labeled a reaches the node labeled b in
// any run of spec that contains both (the answer is independent of the run:
// that is the point of derivation-based labels). Nodes reach themselves via
// the empty path.
func Pairwise(spec *wf.Spec, a, b label.Label) bool {
	if label.Equal(a, b) {
		return true
	}
	d := label.LCP(a, b)
	if d >= len(a) || d >= len(b) {
		// One label is a proper prefix of the other; leaf labels of a run
		// are prefix-free, so the two labels cannot coexist in one run.
		return false
	}
	ea, eb := a[d], b[d]
	if ea.Rec != eb.Rec {
		return false // malformed: a parse-tree node has children of one kind
	}
	if !ea.Rec {
		// Same composite node, expanded with one production: entries must
		// agree on k.
		if ea.X != eb.X {
			return false
		}
		return spec.BodyReach(ea.X, ea.Y, eb.Y)
	}
	// Same R node: entries must agree on (s, t).
	if ea.X != eb.X || ea.Y != eb.Y {
		return false
	}
	switch {
	case ea.Z < eb.Z:
		// u in an earlier iteration: red condition on u's child position.
		return redEntry(spec, a, d)
	case ea.Z > eb.Z:
		// u in a later (nested) iteration: blue condition on v's side.
		return blueEntry(spec, b, d)
	}
	return false // same iteration yet diverged at the R node: malformed
}

// PairwiseBytes is Pairwise on encoded labels: both encodings are walked
// in lockstep with cursors to the divergence entry, materializing nothing.
// Byte equality is only a fast path — distinct byte strings can encode
// equal labels (binary.Uvarint accepts overlong varints), so equality is
// otherwise decided by the lockstep walk itself, never assumed from byte
// comparison.
func PairwiseBytes(spec *wf.Spec, a, b label.Bytes) bool {
	if bytes.Equal(a, b) {
		return true
	}
	ca, cb := label.NewCursor(a), label.NewCursor(b)
	for {
		ea, oka := ca.Next()
		eb, okb := cb.Next()
		if !oka || !okb {
			// Both ended cleanly: equal entry sequences. One ended: a
			// proper prefix (leaf labels of a run are prefix-free, so the
			// labels cannot coexist). A malformed tail counts as ended.
			return !oka && !okb && ca.Err() == nil && cb.Err() == nil
		}
		if ea == eb {
			continue
		}
		if ea.Rec != eb.Rec {
			return false // malformed: a parse-tree node has children of one kind
		}
		if !ea.Rec {
			if ea.X != eb.X {
				return false
			}
			return spec.BodyReach(ea.X, ea.Y, eb.Y)
		}
		if ea.X != eb.X || ea.Y != eb.Y {
			return false
		}
		switch {
		case ea.Z < eb.Z:
			// u in an earlier iteration: red condition on u's child entry —
			// the next entry of a's encoding.
			e, ok := ca.Next()
			return ok && redCond(spec, e)
		case ea.Z > eb.Z:
			e, ok := cb.Next()
			return ok && blueCond(spec, e)
		}
		return false // same iteration yet diverged at the R node: malformed
	}
}

// redEntry evaluates the red condition for the label's child entry just
// below the recursion entry at index d: can that body position reach the
// cycle-successor position of its production?
func redEntry(spec *wf.Spec, l label.Label, d int) bool {
	return d+1 < len(l) && redCond(spec, l[d+1])
}

// blueEntry evaluates the blue condition: can the cycle-successor position
// of the production below the recursion entry reach the label's child
// position?
func blueEntry(spec *wf.Spec, l label.Label, d int) bool {
	return d+1 < len(l) && blueCond(spec, l[d+1])
}

func redCond(spec *wf.Spec, e label.Entry) bool {
	if e.Rec {
		return false
	}
	k, c := e.X, e.Y
	rp, cyclePos := spec.RecursiveProd(spec.Prods[k].LHS)
	if rp != k {
		// A non-final iteration always fires the recursive production; any
		// other shape is a malformed label.
		return false
	}
	return spec.BodyReach(k, c, cyclePos)
}

func blueCond(spec *wf.Spec, e label.Entry) bool {
	if e.Rec {
		return false
	}
	k, c := e.X, e.Y
	rp, cyclePos := spec.RecursiveProd(spec.Prods[k].LHS)
	if rp != k {
		return false
	}
	return spec.BodyReach(k, cyclePos, c)
}
