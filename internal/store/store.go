// Package store implements the disk-backed catalog store underneath the
// root package's durable Catalog: named specification and run payloads,
// plus a manifest binding each run to its specification.
//
// On-disk layout under one root directory:
//
//	<dir>/specs/<name>.json        one specification payload per file
//	<dir>/runs/<name>.json         one run payload per file
//	<dir>/appends/<name>.<i>.json  the i-th committed growth batch of a run
//	<dir>/manifest.json            {"runs": {"<run>": "<spec>"},
//	                                "appends": {"<run>": <batches in the log>},
//	                                "folded": {"<run>": <batches compacted into the base>}}
//
// Payloads are opaque bytes and self-describing — the root layer stores
// specifications as JSON and run/batch payloads in either JSON or the
// binary columnar format, and decoders sniff the content. The ".json"
// filename extension is the store's path contract (one fixed path per
// logical entry), not a format claim: keeping a single path per entry is
// what makes every crash window of the temp-file + rename + manifest
// protocol leave either the old or the new complete payload, never an
// ambiguous pair.
//
// Names are opaque non-empty strings; they are path-escaped on the way to
// a filename (so "a/b" and "a b" are valid catalog names) and unescaped
// when listing. Every directly-visible write is atomic: the payload goes
// to a temp file in the destination directory, is fsynced, and is renamed
// over the final path, followed by an fsync of the directory itself, so a
// crash mid-write never leaves a torn file and a completed write —
// including the rename that publishes it — survives power loss. The one
// exception is group-committed append staging (writeStaged): a staged
// batch file is invisible until the manifest counts it, so it is written
// in place and made durable by the commit leader just before the manifest
// write that publishes it.
//
// The manifest is the commit point for runs and for growth batches: PutRun
// writes the run file first and the manifest entry second, AppendRun
// writes the batch file first and bumps the manifest's batch count second,
// and readers only surface what the manifest names, so a crash between the
// two writes leaves an invisible orphan file rather than a half-registered
// run or a torn growth step. The store works at the []byte level — the
// root package owns the spec/run/batch codecs — and is safe for concurrent
// use.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"provrpq/internal/metrics"
)

// Store-layer instruments on the process-wide registry: commit counts by
// kind, the fsync count behind them (the store's dominant latency), and
// the wedge latch — the one state a dashboard must alarm on, because a
// wedged store refuses every mutation until reopened.
var (
	mWrites = metrics.Default().CounterVec("provrpq_store_writes_total",
		"Durable store commits, by kind (spec, run, append, compact, manifest).", "kind")
	mFsyncs = metrics.Default().Counter("provrpq_store_fsyncs_total",
		"File and directory fsyncs performed by the store's atomic-write protocol.")
	mWedged = metrics.Default().Gauge("provrpq_store_wedged",
		"1 after a store in this process wedged on an ambiguous commit failure (mutations refused until reopen), else 0.")
)

// ErrNotFound marks a lookup of a name the store has no entry for (match
// with errors.Is).
var ErrNotFound = errors.New("not in store")

// ErrWedged marks a store that refuses further mutations after an
// ambiguous commit failure (match with errors.Is). See Store.wedged.
var ErrWedged = errors.New("store wedged by an ambiguous commit failure; reopen the store to recover")

// errAmbiguousCommit classifies a writeAtomic failure that happened after
// the rename already applied: the write may or may not be durable, so the
// caller cannot know whether the entry is committed.
var errAmbiguousCommit = errors.New("ambiguous commit")

const (
	specsDir     = "specs"
	runsDir      = "runs"
	appendsDir   = "appends"
	basesDir     = "bases"
	manifestName = "manifest.json"
	ext          = ".json"
)

// Store is one on-disk catalog directory. Open creates the layout; all
// methods are safe for concurrent use.
type Store struct {
	dir string

	// mu serializes writers: atomic renames alone keep individual files
	// consistent, but the manifest is read-modify-written and the
	// run-file-then-manifest ordering of PutRun must not interleave.
	//
	//provrpq:lockrank storeMu 30
	mu sync.Mutex

	// wedged latches when a write fails *after* its rename applied (the
	// directory fsync failed): the entry may or may not be durable, so
	// memory and disk can disagree about what is committed. Continuing to
	// mutate on top of that ambiguity would let the histories diverge —
	// e.g. an append the caller believes failed is counted by the on-disk
	// manifest, and the next append would commit a batch grown from a
	// base that lacks it. A wedged store refuses every further mutation
	// with ErrWedged (reads keep working); reopening re-reads the disk
	// state and recovers.
	wedged bool

	// appendMus holds one append mutex per run name (see appendLock in
	// groupcommit.go): at most one append per run is in flight, so a run's
	// committed batch count is always the next free sequence number.
	appendMus sync.Map

	// leaderMu elects the group-commit leader: whoever holds it drains the
	// queue and writes one manifest covering every drained op. Followers
	// block on it only to discover their op was already committed.
	//
	//provrpq:lockrank commitLeaderMu 14
	leaderMu sync.Mutex

	// qmu guards only the pending commit-op slice; it is held for
	// append/drain instants, never across I/O.
	//
	//provrpq:lockrank commitQueueMu 16
	qmu   sync.Mutex
	queue []*commitOp

	// man caches the manifest (guarded by mu): this process is the only
	// manifest writer, so after one disk load the cache is authoritative
	// and readManifest stops paying a file read plus JSON parse per call —
	// which an append pays twice (sequence reservation, commit). A failed
	// manifest write leaves the cache at the pre-write state: for a plain
	// failure that matches disk; for an ambiguous one the store is wedged
	// and readers conservatively keep seeing the unacknowledged-write-free
	// history until reopen re-reads disk.
	man *manifest
}

// Open opens (creating if necessary) the store rooted at dir, sweeping
// any temp files a crashed writer abandoned (they are invisible to reads
// but would otherwise accumulate forever).
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, specsDir), filepath.Join(dir, runsDir), filepath.Join(dir, appendsDir), filepath.Join(dir, basesDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		sweepTempFiles(d)
	}
	// Invariant: once Open returns, the layout itself is durable. The
	// subdirectory entries live in the root directory, so fsyncing the
	// root makes them survive power loss; without this, a crash right
	// after the first boot could leave a store whose specs/runs/appends
	// directories vanish along with everything written into them.
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// sweepTempFiles removes writeAtomic leftovers ("<base>.tmp-<random>")
// from one directory. Committed entries always decode back to a catalog
// name (they end in ".json"; temp files never do), so anything that both
// fails decodeName and carries the ".tmp-" marker is sweepable — a spec
// or run legitimately named "build.tmp-2026" escapes to
// "build.tmp-2026.json" and is left alone. Best-effort: a failure to
// remove junk must not block opening the store.
func sweepTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if _, ok := decodeName(e.Name()); ok {
			continue // committed entry whose name merely contains ".tmp-"
		}
		_ = os.Remove(filepath.Join(dir, e.Name()))
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// PutSpec durably writes a specification payload. An existing entry under
// the same name is replaced (the catalog layer enforces name uniqueness;
// at the store level a re-save is idempotent).
func (s *Store) PutSpec(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("store: empty specification name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged {
		return fmt.Errorf("store: specification %q: %w", name, ErrWedged)
	}
	if err := s.noteAmbiguous(writeAtomic(s.specPath(name), data)); err != nil {
		return err
	}
	mWrites.With("spec").Inc()
	return nil
}

// noteAmbiguous latches the wedge when a write failed after its rename
// applied (callers hold s.mu); the error passes through unchanged.
func (s *Store) noteAmbiguous(err error) error {
	if errors.Is(err, errAmbiguousCommit) {
		s.wedged = true
		mWedged.Set(1)
	}
	return err
}

// Wedged reports whether the store has latched the wedge: an ambiguous
// commit failure happened and every further mutation is refused with
// ErrWedged until the store is reopened. Liveness probes (rpqd /healthz)
// surface this as degraded — the store still answers reads but cannot
// accept writes.
func (s *Store) Wedged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wedged
}

// GetSpec reads a specification payload.
func (s *Store) GetSpec(name string) ([]byte, error) {
	data, err := os.ReadFile(s.specPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: specification %q: %w", name, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: specification %q: %w", name, err)
	}
	return data, nil
}

// HasSpec reports whether a specification is stored under name.
func (s *Store) HasSpec(name string) bool {
	_, err := os.Stat(s.specPath(name))
	return err == nil
}

// SpecNames lists the stored specification names, sorted.
func (s *Store) SpecNames() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, specsDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		name, ok := decodeName(e.Name())
		if !ok {
			continue // temp file or foreign junk
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// PutRun durably writes a run payload bound to the named specification.
// The run file lands before the manifest entry that makes it visible, so
// a crash between the two writes leaves an orphan file, never a run the
// loader would surface without its payload.
func (s *Store) PutRun(name, spec string, data []byte) error {
	if name == "" {
		return fmt.Errorf("store: empty run name")
	}
	if spec == "" {
		return fmt.Errorf("store: run %q: empty specification name", name)
	}
	// A fresh put rewrites the run's whole history; excluding the run's
	// in-flight append (if any) keeps the reset from racing a staged batch.
	amu := s.appendLock(name)
	amu.Lock()
	defer amu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged {
		return fmt.Errorf("store: run %q: %w", name, ErrWedged)
	}
	if err := s.noteAmbiguous(writeAtomic(s.runPath(name, 0), data)); err != nil {
		return err
	}
	m, err := s.readManifest()
	if err != nil {
		return err
	}
	m.Runs[name] = spec
	// A fresh put defines a fresh history: any growth or compaction state
	// a previous holder of the name left behind must not apply to the new
	// payload (the payload just landed at epoch 0).
	delete(m.Appends, name)
	delete(m.Bases, name)
	delete(m.Folded, name)
	if err := s.noteAmbiguous(s.writeManifest(m)); err != nil {
		return err
	}
	mWrites.With("run").Inc()
	return nil
}

// GetRun reads a run payload and the specification name it is bound to.
// Only manifest-committed runs are readable.
func (s *Store) GetRun(name string) (spec string, data []byte, err error) {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return "", nil, err
	}
	spec, ok := m.Runs[name]
	if !ok {
		return "", nil, fmt.Errorf("store: run %q: %w", name, ErrNotFound)
	}
	data, err = s.GetRunData(name, m.Bases[name])
	if err != nil {
		return "", nil, err
	}
	return spec, data, nil
}

// GetRunData reads a run's base payload at the given compaction epoch
// without consulting the manifest, for callers that already hold the
// run → specification binding and the epoch (the boot replay reads the
// manifest once via Runs/Appends/Bases, then each payload directly —
// GetRun would re-parse the manifest per run).
func (s *Store) GetRunData(name string, epoch int) ([]byte, error) {
	data, err := os.ReadFile(s.runPath(name, epoch))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: run %q: %w", name, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: run %q: %w", name, err)
	}
	return data, nil
}

// GetRunDataMapped is GetRunData backed by a read-only memory mapping
// when the platform supports it (falling back to a plain read when it
// does not): boot over a large columnar base then touches pages on
// demand instead of copying the whole payload through the heap. The
// mapping is never unmapped — the zero-copy run opened over it aliases
// the bytes for its whole lifetime — and it stays coherent across later
// compactions because writeAtomic always replaces the path
// with a fresh inode via rename, never writing a payload in place: the
// mapping keeps referencing the old inode as a stable snapshot.
//
//provrpq:trusted
func (s *Store) GetRunDataMapped(name string, epoch int) ([]byte, error) {
	data, err := mapFile(s.runPath(name, epoch))
	if err == nil {
		return data, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: run %q: %w", name, ErrNotFound)
	}
	return s.GetRunData(name, epoch)
}

// mapFile memory-maps a whole file read-only (platform-gated via mmapRO).
//
//provrpq:trusted
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("store: %s: too large to map", path)
	}
	return mmapRO(f, int(size))
}

// Bases returns the manifest's run → base-payload compaction epoch (a
// copy); never-compacted runs are absent (epoch 0).
func (s *Store) Bases() (map[string]int, error) {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(m.Bases))
	for k, v := range m.Bases {
		out[k] = v
	}
	return out, nil
}

// CompactRun folds a run's committed growth into a single base payload:
// data must be the full current run (base plus every committed batch,
// encoded by the caller). The new base lands at the next compaction epoch
// in bases/ and the manifest — the single commit point — switches the
// run's base, zeroes its log's batch count and adds that count to the run's
// folded total in one atomic write, so a crash mid-compaction leaves an
// invisible orphan base file and the old base+log fully in force, never a
// double-applied batch, and folded + logged — the run's version — is the
// same number before and after. Obsolete files (the previous base, the
// folded batches) are removed best-effort after the commit. Returns the new
// epoch.
func (s *Store) CompactRun(name string, data []byte) (int, error) {
	// Folding the log must not interleave with an in-flight append to the
	// same run: the append's reserved sequence number is only meaningful
	// against the batch count this compaction is about to zero.
	amu := s.appendLock(name)
	amu.Lock()
	defer amu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged {
		return 0, fmt.Errorf("store: run %q: %w", name, ErrWedged)
	}
	m, err := s.readManifest()
	if err != nil {
		return 0, err
	}
	if _, ok := m.Runs[name]; !ok {
		return 0, fmt.Errorf("store: run %q: %w", name, ErrNotFound)
	}
	oldEpoch, oldAppends := m.Bases[name], m.Appends[name]
	epoch := oldEpoch + 1
	if err := s.noteAmbiguous(writeAtomic(s.runPath(name, epoch), data)); err != nil {
		return 0, err
	}
	if m.Bases == nil {
		m.Bases = map[string]int{}
	}
	m.Bases[name] = epoch
	delete(m.Appends, name)
	if oldAppends > 0 {
		if m.Folded == nil {
			m.Folded = map[string]int{}
		}
		m.Folded[name] += oldAppends
	}
	if err := s.noteAmbiguous(s.writeManifest(m)); err != nil {
		return 0, err
	}
	mWrites.With("compact").Inc()
	// Committed; the superseded files are garbage now. Best-effort: a
	// failed remove leaves dead bytes, never wrong answers.
	_ = os.Remove(s.runPath(name, oldEpoch))
	for seq := 0; seq < oldAppends; seq++ {
		_ = os.Remove(s.appendPath(name, seq))
	}
	return epoch, nil
}

// HasRun reports whether a run is committed under name.
func (s *Store) HasRun(name string) bool {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return false
	}
	_, ok := m.Runs[name]
	return ok
}

// AppendRun durably commits one growth batch for the named run, which
// must already be committed, and returns the batch's sequence number
// (0-based, dense). The batch file is staged at its final path and becomes
// visible only once the manifest's batch count covers it, so a crash
// before that manifest write leaves an orphan batch file that replay never
// reads and the next AppendRun overwrites: growth is replayed cleanly or
// is invisible, never torn.
//
// Concurrent appends to different runs coalesce: each stages its payload
// outside the store mutex, then the group-commit leader makes the whole
// group durable with one flush (syncfs of the appends filesystem where
// supported) and publishes every member's count in one atomic manifest
// write (see groupcommit.go) — N in-flight appends share three device
// flushes instead of paying their own.
func (s *Store) AppendRun(name string, data []byte) (seq int, err error) {
	if name == "" {
		return 0, fmt.Errorf("store: empty run name")
	}
	amu := s.appendLock(name)
	amu.Lock()
	defer amu.Unlock()
	// Reserve the sequence number: the append lock is held, so the
	// manifest's committed count is the next free slot and stays so until
	// this append commits or fails. The cached manifest is read in place —
	// no clone — since only one count is consulted.
	s.mu.Lock()
	if s.wedged {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: run %q: %w", name, ErrWedged)
	}
	m, err := s.manifestView()
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if _, ok := m.Runs[name]; !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: run %q: %w", name, ErrNotFound)
	}
	seq = m.Appends[name]
	s.mu.Unlock()

	if err := s.stage(s.appendPath(name, seq), data); err != nil {
		return 0, err
	}
	if err := s.groupCommit(func(m *manifest) {
		if m.Appends == nil {
			m.Appends = map[string]int{}
		}
		m.Appends[name] = seq + 1
	}); err != nil {
		return 0, fmt.Errorf("store: run %q: %w", name, err)
	}
	mWrites.With("append").Inc()
	mAppendBytes.Add(uint64(len(data)))
	return seq, nil
}

// GetRunAppend reads one committed growth batch of a run. Only batches
// below the manifest's committed count are readable; an orphan file from a
// crashed AppendRun is invisible.
func (s *Store) GetRunAppend(name string, seq int) ([]byte, error) {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if seq < 0 || seq >= m.Appends[name] {
		return nil, fmt.Errorf("store: run %q append %d: %w", name, seq, ErrNotFound)
	}
	return s.GetRunAppendData(name, seq)
}

// GetRunAppendData reads a growth batch without consulting the manifest,
// for callers that already hold the committed count (the boot replay reads
// the manifest once via Appends, then each batch directly — GetRunAppend
// would re-parse the manifest per batch, serializing the parallel decode
// workers on the store lock).
func (s *Store) GetRunAppendData(name string, seq int) ([]byte, error) {
	data, err := os.ReadFile(s.appendPath(name, seq))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: run %q append %d: %w", name, seq, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: run %q append %d: %w", name, seq, err)
	}
	return data, nil
}

// Appends returns the manifest's run → committed-growth-batch count (a
// copy); runs that never grew are absent.
func (s *Store) Appends() (map[string]int, error) {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(m.Appends))
	for k, v := range m.Appends {
		out[k] = v
	}
	return out, nil
}

// State returns the manifest's four bindings — run → spec, run → logged
// batch count, run → base epoch, run → folded batch count — from one atomic
// manifest read. Callers that need a consistent cross-map view (boot,
// snapshot) must use this rather than Runs/Appends/Bases in sequence: a
// compaction committing between two separate reads would otherwise pair an
// already-folded base with its pre-fold batch count, double-applying every
// folded batch.
func (s *Store) State() (runs map[string]string, appends, bases, folded map[string]int, err error) {
	s.mu.Lock()
	m, err := s.readManifest() // a private copy; maps of absent keys are nil
	s.mu.Unlock()
	return m.Runs, m.Appends, m.Bases, m.Folded, err
}

// Runs returns the manifest's run → specification binding (a copy).
func (s *Store) Runs() (map[string]string, error) {
	s.mu.Lock()
	m, err := s.readManifest()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(m.Runs))
	for k, v := range m.Runs {
		out[k] = v
	}
	return out, nil
}

// RunNames lists the committed run names, sorted.
func (s *Store) RunNames() ([]string, error) {
	m, err := s.Runs()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// ---- layout helpers ----

type manifest struct {
	Runs map[string]string `json:"runs"`
	// Appends counts the committed growth batches per run; a manifest
	// written before append support simply lacks the key (zero batches).
	Appends map[string]int `json:"appends,omitempty"`
	// Bases maps a run to its base payload's compaction epoch: 0 (or
	// absent) is the original runs/<name>.json, epoch e >= 1 lives at
	// bases/<name>.<e>.json. The manifest switch is what commits a
	// compaction.
	Bases map[string]int `json:"bases,omitempty"`
	// Folded counts the growth batches compactions have folded into the
	// run's base. Folded + Appends is the run's version: a count that
	// survives compaction and restart and never goes back. A manifest
	// written before the key existed lacks it (nothing folded is on
	// record, so every version equals its append count, as it did then).
	Folded map[string]int `json:"folded,omitempty"`
}

func (s *Store) specPath(name string) string {
	return filepath.Join(s.dir, specsDir, url.PathEscape(name)+ext)
}

// runPath locates a run's base payload at a compaction epoch. Epoch 0 is
// the original upload in runs/; compacted bases live in their own
// directory so an epoch-suffixed filename can never collide with another
// run whose *name* ends in ".<digits>".
func (s *Store) runPath(name string, epoch int) string {
	if epoch == 0 {
		return filepath.Join(s.dir, runsDir, url.PathEscape(name)+ext)
	}
	return filepath.Join(s.dir, basesDir, fmt.Sprintf("%s.%d%s", url.PathEscape(name), epoch, ext))
}

func (s *Store) appendPath(name string, seq int) string {
	return filepath.Join(s.dir, appendsDir, fmt.Sprintf("%s.%d%s", url.PathEscape(name), seq, ext))
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

// decodeName maps a directory entry back to a catalog name, rejecting
// anything that is not an escaped "<name>.json".
func decodeName(file string) (string, bool) {
	base, ok := strings.CutSuffix(file, ext)
	if !ok {
		return "", false
	}
	name, err := url.PathUnescape(base)
	if err != nil || name == "" {
		return "", false
	}
	return name, true
}

// readManifest returns a private copy of the manifest (callers hold s.mu
// and freely mutate the returned maps before writeManifest). The disk file
// is read and parsed only on the first call; afterwards the in-memory
// cache is authoritative — see the man field.
func (s *Store) readManifest() (manifest, error) {
	m, err := s.manifestView()
	if err != nil {
		return manifest{Runs: map[string]string{}}, err
	}
	return cloneManifest(*m), nil
}

// manifestView returns the cached manifest itself, without cloning —
// read-only access for hot paths like append sequence reservation.
// Callers hold s.mu and must neither mutate the result nor retain it past
// the unlock.
func (s *Store) manifestView() (*manifest, error) {
	if s.man == nil {
		m, err := s.loadManifest()
		if err != nil {
			return nil, err
		}
		s.man = &m
	}
	return s.man, nil
}

// loadManifest reads and parses the manifest file, bypassing the cache
// (Open-time and reopen-after-wedge paths).
func (s *Store) loadManifest() (manifest, error) {
	m := manifest{Runs: map[string]string{}}
	data, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: corrupt manifest %s: %w", s.manifestPath(), err)
	}
	if m.Runs == nil {
		m.Runs = map[string]string{}
	}
	return m, nil
}

// cloneManifest deep-copies the manifest's maps so cache and caller never
// alias (nil maps stay nil, matching the omitempty encoding).
func cloneManifest(m manifest) manifest {
	m.Runs = maps.Clone(m.Runs)
	m.Appends = maps.Clone(m.Appends)
	m.Bases = maps.Clone(m.Bases)
	m.Folded = maps.Clone(m.Folded)
	return m
}

func (s *Store) writeManifest(m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeAtomic(s.manifestPath(), data); err != nil {
		return err
	}
	c := cloneManifest(m)
	s.man = &c
	mWrites.With("manifest").Inc()
	return nil
}

// writeAtomic writes data to path via a same-directory temp file, fsync
// and rename, so concurrent readers and crashed writers never observe a
// torn file, then fsyncs the parent directory so the rename survives power
// loss. When writeAtomic returns nil the write IS the commit.
func writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	mFsyncs.Inc()
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp = nil
	// Invariant: the rename above only updates the in-memory directory
	// entry; until the directory is fsynced the old entry (or none) can
	// reappear after a crash, which would silently undo a "committed"
	// manifest or payload. Fsyncing the parent directory pins the rename,
	// completing the temp-file + fsync + rename + dir-fsync sequence. A
	// failure *here* is ambiguous — the rename already applied, so the
	// write may or may not survive — and is classified as such so the
	// store wedges instead of mutating on top of an unknowable disk state.
	if err := FsyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: %s: %w: %w", path, errAmbiguousCommit, err)
	}
	return nil
}

// writeStaged writes a staged append payload directly at its final path —
// no temp file, no rename, and durability deferred to the group-commit
// leader (content fsync here only when dataSync is true; the directory
// entry is always the leader's to pin). Skipping the
// atomic dance is safe *only* for staged files: a staged path is below no
// manifest count, so readers can never observe it, and a torn write just
// leaves invisible garbage the next append at that sequence rewrites with
// O_TRUNC. Atomicity of the visible state is the manifest's job here, not
// the filesystem's — which saves the temp-file create and rename
// syscalls on the hottest write path in the store.
//
//provrpq:fsyncsafe staged append payloads are invisible until a manifest write counts them, so a torn write here can never be observed; durability is the group-commit leader's pre-manifest flush
func writeStaged(path string, data []byte, dataSync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path) // best-effort: the partial file is invisible anyway
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if dataSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %s: %w", path, err)
		}
		mFsyncs.Inc()
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	return nil
}

// FsyncDir is syncDir, indirected so tests — including tests of layers
// above the store, like the server's degraded-/healthz coverage — can
// inject post-rename fsync failures, the ambiguous-commit window that
// wedges a store. Production code must never reassign it.
var FsyncDir = syncDir

// syncDir fsyncs a directory, making its entries (renames, creates)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", dir, err)
	}
	mFsyncs.Inc()
	return nil
}
