package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"provrpq"
)

// Standing queries: POST /v1/watch registers a safe RPQ against a run and
// streams its matches over Server-Sent Events. The first event is a
// snapshot — the full result at the run version current at registration —
// and every committed growth batch after it produces one delta event
// carrying only the new matches (pairs involving at least one batch node).
// snapshot ∪ deltas equals a full re-evaluation at any later version; the
// paper's dynamic-label property makes safe-query deltas append-only, which
// is why only safe queries are watchable (400 bad_query otherwise — unsafe
// answers can change on old pairs as edges arrive).
//
// Streams of one (run, canonical query) form a watch group: one append
// subscription, one retained provrpq.StandingQuery on one goroutine, one
// evaluation and one encoded delta frame per event, whose bytes every
// member's stream writes — a second watcher of a query costs a queue. The
// group, its goroutine and its retained state go when its last member does.
//
// Delivery is bounded and appenders never wait: the subscription fills the
// group's queue, and each frame the members' queues, without blocking. A
// member that falls a queue's length behind — every member, when the group
// does — receives a terminal "lagged" event and must reconnect; the fresh
// snapshot resynchronizes it. CloseWatches ends every stream with a terminal
// "closed" event. Concurrently open watchers are bounded by MaxWatchers
// (429). The route lives outside the request timeout: a watch is meant to
// stay open indefinitely.

// watchQueueLen bounds the unconsumed append events of a group and the
// unwritten frames of a member. It needs to absorb bursts (a group-commit
// convoy draining), not sustained overload — a watcher slower than the
// steady append rate is lagged by definition.
const watchQueueLen = 1024

type watchRequest struct {
	Run   string `json:"run"`
	Query string `json:"query"`
}

// watchSnapshotEvent is the first SSE event on a watch stream; its "pairs"
// follow (encode.go).
type watchSnapshotEvent struct {
	Run     string `json:"run"`
	Query   string `json:"query"`
	Version int    `json:"version"`
	Total   int    `json:"total"`
}

// watchDeltaEvent reports one committed growth batch's new matches, which
// follow as its "pairs".
type watchDeltaEvent struct {
	Run           string `json:"run"`
	Version       int    `json:"version"`
	AppendedNodes int    `json:"appended_nodes"`
	AppendedEdges int    `json:"appended_edges"`
	Count         int    `json:"count"`
}

// watchEndEvent terminates a stream: "lagged" when it fell behind the append
// rate, "closed" when the server shuts down.
type watchEndEvent struct {
	Run     string `json:"run"`
	Message string `json:"message"`
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	// The route sits outside the limited handler chain, so bound the
	// registration body here; the stream itself writes, never reads.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req watchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Run == "" || req.Query == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"run" and "query" are required`)
		return
	}
	specName, ok := s.cat.RunSpecName(req.Run)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("run %q is not registered", req.Run))
		return
	}
	spec, ok := s.cat.Spec(specName)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "internal", fmt.Sprintf("run %q is bound to unknown specification %q", req.Run, specName))
		return
	}
	q, err := provrpq.ParseQuery(req.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	safe, err := s.cat.IsSafeQuery(spec, q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	if !safe {
		s.writeError(w, http.StatusBadRequest, "bad_query",
			fmt.Sprintf("standing queries require a safe query; %q is unsafe (its answers over existing nodes can change as edges arrive, so it has no append-only delta stream)", q))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "internal", "response writer does not support streaming")
		return
	}
	s.watchers.Add(1)
	defer s.watchers.Add(-1)
	if s.maxWatchers > 0 && s.watchers.Load() > int64(s.maxWatchers) {
		s.writeError(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("server is at its open-watcher limit (%d)", s.maxWatchers))
		return
	}

	// Join BEFORE snapshotting: an append committing between the two steps
	// then reaches this member's queue and is deduplicated by version below.
	// The reverse order would lose it entirely.
	g, m := s.joinWatch(req.Run, q)
	if g == nil {
		s.writeError(w, http.StatusServiceUnavailable, "overloaded", "server is closing its standing-query streams")
		return
	}
	defer s.leaveWatch(g, m)

	// The registered version, its number and its engine come from one
	// registry entry, which is immutable: a concurrent append swaps in a new
	// entry, so the snapshot cannot slide forward past events already
	// queued, and it runs on the catalog's plan cache, worker pool and
	// whatever index that engine already built.
	eng, snapVer, ok := s.cat.EngineAt(req.Run)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("run %q is not registered", req.Run))
		return
	}
	rows, _, err := eng.EvaluateRows(r.Context(), q, 0, -1)
	if err != nil {
		s.writeEvalError(w, r, err)
		return
	}
	snap := sseFrame("snapshot", eng.Run(), watchSnapshotEvent{
		Run: req.Run, Query: q.String(), Version: snapVer, Total: rows.Total(),
	})
	if snap.rows(r.Context(), rows) != nil {
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(snap.buf, "\n\n"...)); err != nil {
		return
	}
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case last := <-m.end:
			// Best-effort terminal notice; the connection closes either way.
			_, _ = w.Write(last)
			flusher.Flush()
			return
		case f := <-m.frames:
			if f.version <= snapVer {
				// Already included in the snapshot (the append committed
				// between joining and snapshotting).
				continue
			}
			if _, err := w.Write(f.sse); err != nil {
				return
			}
			s.mWatchDeltas.Inc()
			flusher.Flush()
		}
	}
}

// watchKey names a watch group: a run and a query in canonical form.
type watchKey struct{ run, query string }

// watchFrame is one encoded delta event and the run version it reports.
type watchFrame struct {
	version int
	sse     []byte
}

// watchMember is one open stream's end of its group: its queue of delta
// frames, and the terminal frame once the server ends the stream
// (watchGroup.end; buffered for that one send).
type watchMember struct {
	frames chan watchFrame
	end    chan []byte
}

// watchGroup is the streams of one (run, query) and the goroutine that
// evaluates for them (runWatchGroup).
type watchGroup struct {
	key    watchKey
	q      *provrpq.Query
	events chan provrpq.AppendEvent
	// gap records that the subscription dropped an event on a full queue:
	// every member then misses a delta and is ended as lagged.
	gap        atomic.Bool
	cancel     func() // the append subscription's
	stop, done chan struct{}
	members    map[*watchMember]struct{} // guarded by Server.watchMu
}

// joinWatch adds a new member to the group of (run, q), which it creates
// and starts if there is none; nil once CloseWatches ran.
func (s *Server) joinWatch(run string, q *provrpq.Query) (*watchGroup, *watchMember) {
	m := &watchMember{frames: make(chan watchFrame, watchQueueLen), end: make(chan []byte, 1)}
	key := watchKey{run, q.String()}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.watchClosed {
		return nil, nil
	}
	g := s.watchGroups[key]
	if g == nil {
		g = &watchGroup{key: key, q: q, events: make(chan provrpq.AppendEvent, watchQueueLen),
			stop: make(chan struct{}), done: make(chan struct{}), members: map[*watchMember]struct{}{}}
		// The callback runs on the appending goroutine while the run's growth
		// lock is held, so it must never block.
		g.cancel = s.cat.SubscribeAppends(func(ev provrpq.AppendEvent) {
			if ev.RunName != run {
				return
			}
			select {
			case g.events <- ev:
			default:
				g.gap.Store(true)
			}
		})
		s.watchGroups[key] = g
		go s.runWatchGroup(g)
	}
	g.members[m] = struct{}{}
	return g, m
}

// leaveWatch removes a member; the last one out stops the group's goroutine
// and waits for it, so nothing of the group outlives its streams.
func (s *Server) leaveWatch(g *watchGroup, m *watchMember) {
	s.watchMu.Lock()
	delete(g.members, m)
	last := len(g.members) == 0 && s.watchGroups[g.key] == g
	if last {
		delete(s.watchGroups, g.key)
	}
	s.watchMu.Unlock()
	if last {
		g.cancel()
		close(g.stop)
		<-g.done
	}
}

// end terminates one member's stream with a last event. Server.watchMu held:
// leaving the member set is what makes the send the only one.
func (g *watchGroup) end(m *watchMember, event, message string) {
	delete(g.members, m)
	m.end <- append(sseFrame(event, nil, watchEndEvent{Run: g.key.run, Message: message}).buf, "}\n\n"...)
}

// CloseWatches ends every open standing-query stream with a terminal
// "closed" event and refuses new ones. http.Server.Shutdown waits for
// streams to end and nothing else ends an idle one, so a daemon registers
// this with RegisterOnShutdown.
func (s *Server) CloseWatches() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.watchClosed = true
	for _, g := range s.watchGroups {
		for m := range g.members {
			g.end(m, "closed", "server is shutting down")
		}
	}
}

// runWatchGroup evaluates each queued append event once, encodes its delta
// frame once and hands the bytes to every member, until the group is stopped.
func (s *Server) runWatchGroup(g *watchGroup) {
	defer close(g.done)
	sq := s.cat.NewStandingQuery(g.q)
	lagged := fmt.Sprintf("watcher fell more than %d events behind the append rate; reconnect for a fresh snapshot", watchQueueLen)
	for {
		select {
		case <-g.stop:
			return
		case ev := <-g.events:
			start, rebuilds := time.Now(), sq.Rebuilds()
			delta, err := sq.Delta(ev)
			f := watchFrame{version: ev.Version}
			if err == nil {
				frame := sseFrame("delta", ev.Run, watchDeltaEvent{
					Run: g.key.run, Version: ev.Version,
					AppendedNodes: ev.NewNodes, AppendedEdges: ev.NewEdges, Count: len(delta),
				})
				frame.pairs(delta)
				f.sse = append(frame.buf, "\n\n"...)
			}
			s.mWatchRebuilds.Add(uint64(sq.Rebuilds() - rebuilds))
			s.mWatchSeconds.Observe(time.Since(start).Seconds())
			why := lagged
			if err != nil {
				// Unreachable for a query validated safe at registration, but
				// a stream must still terminate cleanly.
				why = err.Error()
			}
			s.watchMu.Lock()
			sound := err == nil && !g.gap.Swap(false)
			for m := range g.members {
				if sound {
					select {
					case m.frames <- f:
						continue
					default:
					}
				}
				s.mWatchDropped.Inc()
				g.end(m, "lagged", why)
			}
			s.watchMu.Unlock()
		}
	}
}

// sseFrame begins one Server-Sent Event whose data is the JSON object head,
// left open: the caller appends the pairs of run, or the closing brace, and
// the blank line that ends the event.
func sseFrame(event string, run *provrpq.Run, head any) *pairWriter {
	return &pairWriter{run: run, buf: appendHead(fmt.Appendf(nil, "event: %s\ndata: ", event), head)}
}
