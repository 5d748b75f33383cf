package provrpq

import (
	"fmt"

	"provrpq/internal/core"
)

// Standing queries: the paper's dynamic-label property (Section II-B) makes
// append deltas for safe queries append-only. A safe query is answered from
// the two endpoint labels alone, and labels are assigned at node-creation
// time and never recomputed — so growing a run cannot change any answer
// over pre-existing node pairs, and every *new* match must involve at least
// one node the batch created. Watching a safe query therefore costs one
// snapshot at registration plus, per append, a delta over only the pairs
// that involve a batch node — found by walking the batch's label trie
// against a retained trie of the older nodes (internal/core's standing.go)
// in O(batch·depth·fan-out + output), never a pass over the run.
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

// StandingQuery is the retained delta evaluator of one watched (run, query):
// it keeps the tree representation and DFA state vectors of the nodes it has
// seen (about 270 bytes per node, and no reference to any run version), so
// the delta of an event that directly succeeds the last one costs
// O(batch·depth·fan-out + output) whatever the run's size. Any other event —
// the first, a skipped or repeated version, another run — rebuilds that state
// from the event's own run, which is always sound because labels never
// change. The state lives exactly as long as the value: a watcher that goes
// away takes it along. Not safe for concurrent use.
type StandingQuery struct {
	c *Catalog
	q *Query
	// env is q compiled against the specification of the last event's run,
	// st the evaluator over it; run and version name that event.
	env      *core.Env
	st       *core.Standing
	run      string
	version  int
	rebuilds int
}

// NewStandingQuery returns a delta evaluator for q with nothing retained yet.
func (c *Catalog) NewStandingQuery(q *Query) *StandingQuery {
	return &StandingQuery{c: c, q: q}
}

// Rebuilds counts how often Delta built its retained state from scratch, the
// first event included.
func (s *StandingQuery) Rebuilds() int { return s.rebuilds }

// Delta evaluates the standing-query delta of one append event: the
// safe-query matches of ev.Run that involve at least one batch node, sorted
// by (From, To). The union of a full evaluation at version V and the deltas
// of every event after V equals a full evaluation at the latest version —
// the invariant the differential tests pin down. An edges-only batch yields
// no delta.
func (s *StandingQuery) Delta(ev AppendEvent) ([]Pair, error) {
	if ev.Run == nil || s.q == nil {
		return nil, fmt.Errorf("provrpq: standing-query delta: nil run or query")
	}
	r := ev.Run.r
	lo, hi := int(ev.FirstNewNode), int(ev.FirstNewNode)+ev.NewNodes
	if lo < 0 || hi < lo || hi > r.NumNodes() {
		return nil, fmt.Errorf("provrpq: standing-query delta: batch nodes [%d,%d) outside run of %d nodes", lo, hi, r.NumNodes())
	}
	if s.env == nil || s.env.Spec != r.Spec {
		env, err := s.c.plans.c.Get(r.Spec, s.q.node)
		if err != nil {
			return nil, err
		}
		st, err := env.NewStanding()
		if err != nil {
			return nil, fmt.Errorf("%w: %s", ErrUnsafeWatch, s.q)
		}
		s.env, s.st = env, st
	} else if ev.RunName != s.run || ev.Version != s.version+1 {
		s.st.Reset()
	}
	s.run, s.version = ev.RunName, ev.Version
	var out []Pair
	was := s.st.Rebuilds
	s.st.Delta(r, lo, hi, func(from, to int) {
		out = appendPair(out, Pair{NodeID(from), NodeID(to)})
	})
	s.rebuilds += s.st.Rebuilds - was
	sortPairs(out)
	return out, nil
}

// DeltaPairs is the one-shot form of StandingQuery.Delta: state built for
// ev and dropped, a pass over the run per call. A watcher keeps a
// StandingQuery instead.
func (c *Catalog) DeltaPairs(ev AppendEvent, q *Query) ([]Pair, error) {
	return c.NewStandingQuery(q).Delta(ev)
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
