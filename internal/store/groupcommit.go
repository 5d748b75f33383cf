package store

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"provrpq/internal/metrics"
)

// Group commit: coalescing manifest writes across concurrent appends.
//
// The manifest is the store's single commit point, so every append must end
// with a manifest write — but nothing forces each append to pay its *own*
// manifest fsync. AppendRun stages its batch payload outside the store lock
// (payload fsyncs to different runs overlap freely), then funnels its
// one-line manifest bump through a leader/follower commit queue: whichever
// appender acquires leaderMu first drains every queued bump and commits them
// all in a single manifest write, and the followers just wait for their op's
// done channel. While the leader's fsync is in flight new appends pile up in
// the queue, so under N concurrent writers the steady state is one manifest
// fsync per *group*, not per batch.
//
// Staging defers the payload's durability into the group too: stage only
// writes the file in place, and the leader — immediately before the
// manifest write — flushes every member with one syncfs of the appends
// directory's filesystem, which writes back their contents and commits
// the journal carrying their directory entries. On a device that
// serializes cache flushes this is what moves the ceiling: a group of C
// appends pays three *shared* flushes (syncfs, manifest file, manifest
// dir) — 3/C per batch — where committing each batch on its own would pay
// four (payload file + dir, manifest file + dir). Off Linux there is no
// syncfs, so stage keeps the per-file content fsync and the leader pins
// the entries with one appends-dir fsync (1 + 3/C).
//
// Crash semantics: each batch file is durable — contents and directory
// entry flushed — before the manifest write that counts it, and the
// group's manifest write is one atomic temp-file + fsync + rename, so a
// crash anywhere leaves every in-flight batch either fully committed or an
// invisible orphan at a dense sequence number the next append overwrites —
// never a torn subset of one batch. A failed group commit fails every
// member identically: none of their counts were published, and an
// *ambiguous* failure (the staged-data flush or the post-rename manifest
// dir fsync) wedges the store for all of them.

var (
	mGroupCommits = metrics.Default().Counter("provrpq_store_group_commits_total",
		"Coalesced manifest commits: one per leader-written manifest, covering one or more appends.")
	mGroupedAppends = metrics.Default().Counter("provrpq_store_group_committed_appends_total",
		"Append commits that went through the group-commit queue (ratio to group_commits_total is the coalescing factor).")
	mAppendBytes = metrics.Default().Counter("provrpq_store_append_bytes_total",
		"Bytes of growth-batch payload durably committed via AppendRun.")
)

// commitOp is one queued manifest mutation, whose payload stage left in the
// appends directory with deferred durability. The leader that commits it
// sets err before closing done; the waiter reads err only after <-done, so
// the close is the publication point.
type commitOp struct {
	apply func(*manifest)
	err   error
	done  chan struct{}
}

// appendLock returns the named run's append mutex, creating it on first
// use (entries are never removed — a mutex is a few words and run names are
// never recycled within one store's lifetime). Holding it serializes the
// whole stage-then-commit window of one run's append, which is what keeps
// sequence numbers dense without any staged-counter bookkeeping: while it
// is held, the manifest's committed count for that run IS the next free
// slot. PutRun and CompactRun take it too, so neither can rewrite a run's
// history while one of its batches is mid-flight.
//
//provrpq:lockrank appendMu 12
func (s *Store) appendLock(name string) *sync.Mutex {
	mu, _ := s.appendMus.LoadOrStore(name, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// stage writes one batch payload outside the store mutex, directly at
// its final path (writeStaged) with all durability deferred to the
// group-commit leader. The file is invisible until a manifest write
// counts it, and the leader flushes the group's staged data and entries
// (one syncfs, where supported) immediately before that manifest write
// (see commitBatch), so N concurrent stages share one flush instead of
// paying one each.
// Until then both the contents and the entry are allowed to be volatile:
// a crash can only lose files the manifest never counted. Off Linux there
// is no syncfs, so stage keeps the per-file content fsync and defers only
// the entry pin.
func (s *Store) stage(path string, data []byte) error {
	return writeStaged(path, data, !syncfsSupported)
}

// groupCommit queues one manifest mutation and returns once a leader —
// possibly this caller — has durably committed it, batched with every other
// mutation queued in the meantime. The returned error is the group's
// verdict: nil means the mutation — staged payload included — is on disk.
func (s *Store) groupCommit(apply func(*manifest)) error {
	op := &commitOp{apply: apply, done: make(chan struct{})}
	s.qmu.Lock()
	s.queue = append(s.queue, op)
	s.qmu.Unlock()

	s.leaderMu.Lock()
	select {
	case <-op.done:
		// A previous leader drained the queue past this op while we waited
		// for the leadership lock; its commit already covered us.
		s.leaderMu.Unlock()
		return op.err
	default:
	}
	// Let the arrival burst quiesce before draining: each yield lets
	// appenders that are mid-stage reach the queue, and every op that
	// makes it in rides this group's flushes instead of founding the next
	// group — directly raising the coalescing factor. The loop stops the
	// first time a yield adds nothing, so a lone appender drains
	// immediately (the yield finds no one else staging) and pays no added
	// latency; the iteration cap keeps a sustained arrival stream from
	// starving the leader. Progress is never wasted while waiting: a
	// growing queue means other appenders just finished real work.
	s.qmu.Lock()
	n := len(s.queue)
	s.qmu.Unlock()
	for i := 0; i < 16; i++ {
		runtime.Gosched()
		s.qmu.Lock()
		grown := len(s.queue)
		s.qmu.Unlock()
		if grown == n {
			break
		}
		n = grown
	}
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.qmu.Unlock()
	s.commitBatch(batch)
	s.leaderMu.Unlock()
	return op.err
}

// commitBatch makes every member's staged payload durable (one flush for
// the group, not one per op), then applies every queued mutation to
// one freshly-read manifest and publishes them with a single atomic
// manifest write. All members share the outcome: on success all their
// batches became visible together; on failure none did (their staged files
// stay invisible orphans), and an ambiguous failure wedges the store for
// everyone. A staging flush failing here is ambiguous too: the members'
// files are already in place and their durability is unknowable, so the
// store wedges rather than commit on top of an unknowable disk state.
func (s *Store) commitBatch(batch []*commitOp) {
	// Phase 1, outside the store mutex: make the staged payloads durable.
	// This touches no store state — the members' renames all completed
	// before they enqueued — so appenders keep reserving sequence numbers
	// and staging the *next* group while this group's flushes are in
	// flight. Holding s.mu here would serialize that CPU work behind the
	// device and cap the coalescing factor.
	s.mu.Lock()
	wedged := s.wedged
	s.mu.Unlock()
	var err error
	if wedged {
		err = ErrWedged
	} else {
		err = s.syncStaged()
	}

	// Phase 2, under the store mutex: publish the counts with one atomic
	// manifest write (or latch the wedge phase 1 earned).
	s.mu.Lock()
	if err != nil {
		s.noteAmbiguous(err)
	} else if s.wedged {
		err = ErrWedged
	} else {
		var m manifest
		m, err = s.readManifest()
		if err == nil {
			for _, op := range batch {
				op.apply(&m)
			}
			err = s.noteAmbiguous(s.writeManifest(m))
		}
	}
	s.mu.Unlock()
	if err == nil {
		mGroupCommits.Inc()
		mGroupedAppends.Add(uint64(len(batch)))
	}
	for _, op := range batch {
		op.err = err
		close(op.done)
	}
}

// syncStaged makes the group's staged payloads durable: where syncfs is
// available, one filesystem flush covers every member at once — it writes
// back the deferred file contents and commits the journal, which carries
// the directory entries, so no separate FsyncDir is needed. Elsewhere stage
// already fsynced each file's contents and this pins the entries with one
// FsyncDir. Every append payload lives in the one appends directory, which
// is what makes deferral pay: a group of N appends costs one flush here
// instead of N at stage time. A failure is ambiguous: the files are already
// in place and their durability is unknowable.
func (s *Store) syncStaged() error {
	dir := filepath.Join(s.dir, appendsDir)
	if syncfsSupported {
		if err := doSyncfs(dir); err != nil {
			return fmt.Errorf("store: flushing staged data: %w: %w", errAmbiguousCommit, err)
		}
	} else if err := FsyncDir(dir); err != nil {
		return fmt.Errorf("store: pinning staged files: %w: %w", errAmbiguousCommit, err)
	}
	return nil
}

// CommitStats reports the process-wide group-commit counters: coalesced
// manifest commits and the append operations they covered. ops/groups is
// the coalescing factor the ingest benchmark tracks (1.0 = no coalescing).
func CommitStats() (groups, ops uint64) {
	return mGroupCommits.Value(), mGroupedAppends.Value()
}
