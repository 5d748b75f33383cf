package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"provrpq"
)

// Standing queries: POST /v1/watch registers a safe RPQ against a run and
// streams its matches over Server-Sent Events. The first event is a
// snapshot — the full result at the run version current at registration —
// and every committed growth batch after it produces one delta event
// carrying only the new matches (DeltaPairs: pairs involving at least one
// batch node). snapshot ∪ deltas equals a full re-evaluation at any later
// version; the paper's dynamic-label property makes safe-query deltas
// append-only, which is why only safe queries are watchable (400 bad_query
// otherwise — unsafe answers can change on old pairs as edges arrive).
//
// Delivery is bounded: each watcher owns a fixed queue the append path
// fills without blocking (appenders never wait on a slow watcher). A
// watcher that falls more than the queue's length behind receives a
// terminal "lagged" event and must reconnect — the fresh snapshot
// resynchronizes it. Concurrently open watchers are bounded by MaxWatchers
// (429). The route lives outside the request timeout: a watch is meant to
// stay open indefinitely.

// watchQueueLen bounds one watcher's unconsumed append events. It needs to
// absorb bursts (a group-commit convoy draining), not sustained overload —
// a watcher slower than the steady append rate is lagged by definition.
const watchQueueLen = 1024

type watchRequest struct {
	Run   string `json:"run"`
	Query string `json:"query"`
}

// watchSnapshotEvent is the first SSE event on a watch stream.
type watchSnapshotEvent struct {
	Run     string     `json:"run"`
	Query   string     `json:"query"`
	Version int        `json:"version"`
	Total   int        `json:"total"`
	Pairs   []pairJSON `json:"pairs"`
}

// watchDeltaEvent reports one committed growth batch's new matches.
type watchDeltaEvent struct {
	Run           string     `json:"run"`
	Version       int        `json:"version"`
	AppendedNodes int        `json:"appended_nodes"`
	AppendedEdges int        `json:"appended_edges"`
	Count         int        `json:"count"`
	Pairs         []pairJSON `json:"pairs"`
}

// watchLaggedEvent terminates a stream that fell behind the append rate.
type watchLaggedEvent struct {
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

	// Subscribe BEFORE snapshotting: an append committing between the two
	// steps then lands in the queue and is deduplicated by version below.
	// The reverse order would lose it entirely. The callback runs on the
	// appending goroutine while the run's growth lock is held, so it must
	// never block: a full queue marks the watcher lagged instead.
	events := make(chan provrpq.AppendEvent, watchQueueLen)
	lagged := make(chan struct{})
	var laggedOnce sync.Once
	cancel := s.cat.SubscribeAppends(func(ev provrpq.AppendEvent) {
		if ev.RunName != req.Run {
			return
		}
		select {
		case events <- ev:
		default:
			laggedOnce.Do(func() {
				s.mWatchDropped.Inc()
				close(lagged)
			})
		}
	})
	defer cancel()

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
	pairs, err := eng.Evaluate(q)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "evaluate_failed", err.Error())
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := writeSSE(w, "snapshot", watchSnapshotEvent{
		Run: req.Run, Query: q.String(), Version: snapVer,
		Total: len(pairs), Pairs: toPairJSON(eng.Run(), pairs),
	}); err != nil {
		return
	}
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-lagged:
			// Best-effort terminal notice; the connection closes either way
			// and the client resynchronizes by reconnecting.
			_ = writeSSE(w, "lagged", watchLaggedEvent{
				Run:     req.Run,
				Message: fmt.Sprintf("watcher fell more than %d events behind the append rate; reconnect for a fresh snapshot", watchQueueLen),
			})
			flusher.Flush()
			return
		case ev := <-events:
			if ev.Version <= snapVer {
				// Already included in the snapshot (the append committed
				// between subscribing and snapshotting).
				continue
			}
			delta, err := s.cat.DeltaPairs(ev, q)
			if err != nil {
				// Unreachable for a query validated safe above, but a
				// half-closed stream must still terminate cleanly.
				if !errors.Is(err, provrpq.ErrUnsafeWatch) {
					_ = writeSSE(w, "lagged", watchLaggedEvent{Run: req.Run, Message: err.Error()})
				}
				return
			}
			if err := writeSSE(w, "delta", watchDeltaEvent{
				Run: req.Run, Version: ev.Version,
				AppendedNodes: ev.NewNodes, AppendedEdges: ev.NewEdges,
				Count: len(delta), Pairs: toPairJSON(ev.Run, delta),
			}); err != nil {
				return
			}
			s.mWatchDeltas.Inc()
			flusher.Flush()
		}
	}
}

// writeSSE writes one Server-Sent Event with a JSON data payload.
func writeSSE(w io.Writer, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}
