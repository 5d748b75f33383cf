package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
)

// Rows is an all-pairs result in (source, target) order with no pair stored:
// row u, the targets of source u, is positions [off[u], off[u+1]) of the whole
// result, and to holds, whole, the rows [first, last) that meet the window
// [lo, hi) of positions asked for. Sources and targets index the scanned list:
// they are node ids for a full evaluation. The zero value is the empty result.
// Read-only once built and ordered.
type Rows struct {
	off, to     []int32 // to is positions [base, base+len(to))
	base, total int
	first, last int
	lo, hi      int
	Work        Work // what building the rows took
}

// Work is what one call did, in the units of the paper's bounds: the labels
// it decoded for its own tries (not the trie of every node, a cost of the run
// version), its label walks' bucket-pair tests and the pairs it produced.
// Each call holds its own and hands it back, to be summed by value.
type Work struct{ Labels, Tests, Pairs int }

func (w *Work) add(o Work) {
	w.Labels, w.Tests, w.Pairs = w.Labels+o.Labels, w.Tests+o.Tests, w.Pairs+o.Pairs
}

// Total returns the number of pairs in the whole result.
func (r *Rows) Total() int { return r.total }

// Len returns the number of pairs in the window.
func (r *Rows) Len() int { return r.hi - r.lo }

// row returns the held row u, capped so that an append cannot reach row u+1.
func (r *Rows) row(u int) []int32 {
	a, b := int(r.off[u])-r.base, int(r.off[u+1])-r.base
	return r.to[a:b:b]
}

// Each calls fn with every source that has pairs in the window and its targets
// there, sources increasing, until fn returns false. fn must not keep or write
// to the slice.
func (r *Rows) Each(fn func(from int, to []int32) bool) {
	for u := r.first; u < r.last; u++ {
		a, b := max(int(r.off[u]), r.lo), min(int(r.off[u+1]), r.hi)
		if a < b && !fn(u, r.to[a-r.base:b-r.base]) {
			return
		}
	}
}

// Order sorts the targets of every held row. A walk hands a source its targets
// in label order, which is id order wherever ids follow the derivation, except
// the targets an up sweep of Case 2 adds (walk.go): a row still in order is
// only scanned.
func (r *Rows) Order() {
	for u := r.first; u < r.last; u++ {
		if row := r.row(u); !slices.IsSorted(row) {
			slices.Sort(row)
		}
	}
}

// errTooLarge refuses a result whose positions an int32 cannot hold.
var errTooLarge = fmt.Errorf("core: result exceeds %d pairs", math.MaxInt32)

// counted returns the Rows of a count: the whole result's total, and no row.
func counted(total, offset int, work Work) *Rows {
	lo := min(offset, total)
	work.Pairs = total
	return &Rows{total: total, lo: lo, hi: lo, Work: work}
}

// window turns the row lengths counted into off[1:] into offsets, fixes the
// window [offset, offset+limit) — to the end when limit < 0 — and returns the
// number of targets in the rows that meet it.
func (r *Rows) window(offset, limit int) (held int, err error) {
	for u := 1; u < len(r.off); u++ {
		if r.total += int(r.off[u]); r.total > math.MaxInt32 {
			return 0, errTooLarge
		}
		r.off[u] = int32(r.total)
	}
	r.lo, r.hi = min(offset, r.total), r.total
	if limit >= 0 && limit < r.total-r.lo {
		r.hi = r.lo + limit
	}
	n := len(r.off) - 1
	r.first = sort.Search(n, func(u int) bool { return int(r.off[u+1]) > r.lo })
	r.last = max(r.first, sort.Search(n, func(u int) bool { return int(r.off[u]) >= r.hi }))
	r.base = int(r.off[r.first])
	return int(r.off[r.last]) - r.base, nil
}

// buildRows is the count-then-fill sink of the label walks. walk hands its
// consumer every block of one scan over n sources and returns its Work, the
// same on every call, which the Rows keep with the total as its Pairs. It
// runs once to add block sizes into row lengths, which gives the total and
// every row's position before a pair is written, and, unless the window holds
// no pair (a count), once more to copy each block's targets into the rows the
// window meets, held in one array of their exact size. off[u] is row u's
// write cursor meanwhile, so the only scratch is the result's own index: four
// bytes per source. A count (limit 0) sums the blocks' sizes and holds no
// index.
func buildRows(ctx context.Context, n, offset, limit int, walk func(emit func(block)) Work) (*Rows, error) {
	if limit == 0 {
		total := 0
		work := walk(func(b block) { total += len(b.xs) * len(b.ys) })
		if total > math.MaxInt32 {
			return nil, errTooLarge
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return counted(total, offset, work), nil
	}
	r := &Rows{off: make([]int32, n+1)}
	r.Work = walk(func(b block) {
		for _, x := range b.xs {
			r.off[b.lo+int(x)+1] += int32(len(b.ys))
		}
	})
	held, err := r.window(offset, limit)
	r.Work.Pairs = r.total
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if r.Len() == 0 { // a count: no row is held
		r.last = r.first
		return r, nil
	}
	r.to = make([]int32, held)
	walk(func(b block) {
		for _, x := range b.xs {
			if u := b.lo + int(x); u >= r.first && u < r.last {
				r.off[u] += int32(copy(r.to[int(r.off[u])-r.base:], b.ys))
			}
		}
	})
	// Every filled row's cursor now stands at the next row's start.
	for u := r.last - 1; u > r.first; u-- {
		r.off[u] = r.off[u-1]
	}
	if r.first < r.last {
		r.off[r.first] = int32(r.base)
	}
	return r, ctx.Err()
}

// SafeRows evaluates the safe query over every pair of one label list into
// Rows: OptRPL walks one trie of the list against itself, and the RPL nested
// loop hands buildRows its pairs as blocks of one, in order. Once ctx is done
// the scan ends at its next block (RPL: source) with ctx.Err().
func (e *Env) SafeRows(ctx context.Context, l []label.Label, strategy AllPairsStrategy, offset, limit int) (*Rows, error) {
	if !e.Safe() {
		return nil, ErrUnsafe
	}
	if strategy == OptRPL {
		t := reach.NewTrie(l)
		return e.RowsSafeTries(ctx, t, t, len(l), offset, limit)
	}
	pair := block{xs: []int32{0}, ys: []int32{0}}
	return buildRows(ctx, len(l), offset, limit, func(emit func(block)) Work {
		_ = e.rplPairs(ctx.Done(), l, l, func(i, j int) { // safe: just checked
			pair.lo, pair.ys[0] = i, int32(j)
			emit(pair)
		})
		return Work{}
	})
}

// RowsOf returns the window of a relation over n nodes as Rows: what the label
// scans produce, for the relations the decomposition does. A count (limit 0)
// reads the relation's size and holds no row.
func RowsOf(ctx context.Context, r *rel.Rel, n, offset, limit int) (*Rows, error) {
	if limit == 0 {
		return counted(r.Len(), offset, Work{}), nil
	}
	one := []int32{0}
	return buildRows(ctx, n, offset, limit, func(emit func(block)) Work {
		for u := 0; u < n; u++ {
			emit(block{u, one, r.Row(derive.NodeID(u))})
		}
		return Work{}
	})
}
