package provrpq

import (
	"fmt"

	"provrpq/internal/derive"
)

// Standing queries: the paper's dynamic-label property (Section II-B) makes
// append deltas for safe queries append-only. A safe query is answered from
// the two endpoint labels alone, and labels are assigned at node-creation
// time and never recomputed — so growing a run cannot change any answer
// over pre-existing node pairs, and every *new* match must involve at least
// one node the batch created. Watching a safe query therefore costs one
// snapshot at registration plus, per append, a delta over only the pairs
// that involve a batch node: O(batch × run) pairwise label decodes, never a
// re-evaluation of the whole run.
//
// Unsafe queries have no such property: their evaluation consults the
// grown adjacency, so an edges-only batch (which creates no nodes) can
// create new matches between two old nodes. ErrUnsafeWatch refuses them.

// ErrUnsafeWatch marks an attempt to register a standing query that is not
// safe (match with errors.Is): only safe queries have append-only deltas.
var ErrUnsafeWatch = fmt.Errorf("provrpq: standing queries require a safe query (unsafe answers can change on old pairs as edges arrive)")

// AppendEvent describes one committed growth batch, as delivered to
// SubscribeAppends subscribers. Run is the immutable published version the
// batch produced: evaluating against it is correct forever, regardless of
// later growth.
type AppendEvent struct {
	// RunName names the grown run; Version is its post-append version
	// (AppendResult.Version).
	RunName string
	Version int
	// Run is the published grown version (AppendResult.Run).
	Run *Run
	// FirstNewNode is the pre-append node count: the batch's nodes are
	// exactly ids [FirstNewNode, FirstNewNode+NewNodes) of Run.
	FirstNewNode NodeID
	// NewNodes and NewEdges count the batch's contents.
	NewNodes, NewEdges int
}

// SubscribeAppends registers fn to be called after every committed append
// on any run of the catalog, and returns its unsubscribe function. Calls
// are made synchronously on the appending goroutine while the run's growth
// lock is held, so per-run events arrive in version order with no gaps;
// fn must therefore be fast and must never block on the append path —
// queue the event and evaluate elsewhere (the server's SSE watchers keep a
// bounded per-watcher queue and drop the watcher on overflow).
func (c *Catalog) SubscribeAppends(fn func(AppendEvent)) (cancel func()) {
	c.subsMu.Lock()
	id := c.nextSubID
	c.nextSubID++
	if c.subs == nil {
		c.subs = make(map[int]func(AppendEvent))
	}
	c.subs[id] = fn
	c.subsMu.Unlock()
	return func() {
		c.subsMu.Lock()
		delete(c.subs, id)
		c.subsMu.Unlock()
	}
}

// notifyAppend delivers one append event to every subscriber. Called with
// the run's growth lock held (ordering); the subscriber list is copied
// under subsMu so callbacks run outside it.
func (c *Catalog) notifyAppend(ev AppendEvent) {
	c.subsMu.Lock()
	if len(c.subs) == 0 {
		c.subsMu.Unlock()
		return
	}
	fns := make([]func(AppendEvent), 0, len(c.subs))
	for _, fn := range c.subs {
		fns = append(fns, fn)
	}
	c.subsMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// DeltaPairs evaluates the standing-query delta of one append event: the
// safe-query matches of ev.Run that involve at least one batch node. The
// union of a full evaluation at version V and the deltas of every event
// after V equals a full evaluation at the latest version — the invariant
// the differential tests pin down. An edges-only batch yields no delta.
//
// The scan is pure label decoding — 2·newNodes·runNodes constant-time
// pairwise checks against the event's immutable run version — so it needs
// no engine, no index, and no locks beyond the plan cache's.
func (c *Catalog) DeltaPairs(ev AppendEvent, q *Query) ([]Pair, error) {
	if ev.Run == nil || q == nil {
		return nil, fmt.Errorf("provrpq: DeltaPairs: nil run or query")
	}
	env, err := c.plans.c.Get(ev.Run.r.Spec, q.node)
	if err != nil {
		return nil, err
	}
	if !env.Safe() {
		return nil, fmt.Errorf("%w: %s", ErrUnsafeWatch, q)
	}
	r := ev.Run.r
	n := r.NumNodes()
	lo := int(ev.FirstNewNode)
	if lo < 0 || lo > n {
		return nil, fmt.Errorf("provrpq: DeltaPairs: first new node %d outside run of %d nodes", lo, n)
	}
	d := env.NewDecoder() // one for the whole delta: no pool round trip per pair
	var out []Pair
	for u := lo; u < n; u++ {
		ub := r.LabelBytes(derive.NodeID(u))
		for v := 0; v < n; v++ {
			vb := r.LabelBytes(derive.NodeID(v))
			// u → v covers every pair whose source is new; old → u covers
			// the rest (new → new sources are already in the u loop).
			if d.PairwiseBytesUnchecked(ub, vb) {
				out = appendPair(out, Pair{NodeID(u), NodeID(v)})
			}
			if v < lo && d.PairwiseBytesUnchecked(vb, ub) {
				out = appendPair(out, Pair{NodeID(v), NodeID(u)})
			}
		}
	}
	sortPairs(out)
	return out, nil
}

// EngineAt returns the engine of the named run's current published version
// (Engine.Run is that version) and its version number, from one atomic
// registry read. A standing-query registration uses it to snapshot a
// consistent pair: the full result at that version plus the deltas of every
// AppendEvent with a higher version equals the full result at any later
// version.
func (c *Catalog) EngineAt(name string) (*Engine, int, bool) {
	return c.reg.EngineAt(name)
}

// IsSafeQuery reports whether q is safe for the given specification —
// answerable from endpoint labels alone, and so watchable as a standing
// query. It compiles (or cache-hits) the plan without evaluating.
func (c *Catalog) IsSafeQuery(spec *Spec, q *Query) (bool, error) {
	if spec == nil || spec.s == nil || q == nil {
		return false, fmt.Errorf("provrpq: IsSafeQuery: nil specification or query")
	}
	env, err := c.plans.c.Get(spec.s, q.node)
	if err != nil {
		return false, err
	}
	return env.Safe(), nil
}
