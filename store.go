package provrpq

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"provrpq/internal/derive"
	"provrpq/internal/metrics"
	"provrpq/internal/parallel"
	"provrpq/internal/store"
)

var (
	mBootSeconds = metrics.Default().Gauge("provrpq_boot_seconds",
		"Wall-clock seconds the last NewCatalogFromStore boot spent decoding and replaying.")
	mBootRuns = metrics.Default().Gauge("provrpq_boot_runs",
		"Runs restored by the last NewCatalogFromStore boot.")
	mBootBatches = metrics.Default().Gauge("provrpq_boot_replayed_batches",
		"Growth batches replayed by the last NewCatalogFromStore boot.")
)

// ErrStoreFailed marks a durable catalog mutation whose disk persistence
// failed. Nothing was registered — on a durable catalog an entry becomes
// visible only after its bytes are on disk — so the catalog and the store
// stay consistent and the name is free for a retry. Match with errors.Is
// to tell an infrastructure failure (disk full, permissions) from bad
// client input.
var ErrStoreFailed = errors.New("provrpq: store persistence failed")

// Store is a durable, disk-backed catalog store: named specifications and
// named runs (labels included), surviving process restarts. Specifications
// are stored as JSON; run bases and growth batches are persisted in the
// binary columnar format ("RPQC" — packed label column, endpoint columns,
// trailing checksum), which a restart opens zero-copy and memory-mapped
// instead of re-parsing JSON. Every run/batch reader sniffs the payload,
// so a run base written as JSON still boots — fully decoded — and becomes
// columnar at its next CompactRun. The layout is <dir>/specs/<name>.json,
// <dir>/runs/<name>.json and a manifest binding each run to its
// specification. Writes are atomic (temp file + fsync + rename) and a run
// becomes visible only once its manifest entry lands, so a crash mid-save
// never surfaces a torn or half-registered entry. A Store is safe for
// concurrent use.
//
// Attach a Store to a Catalog via CatalogOptions.Store to persist every
// successful RegisterSpec/AddRun/DeriveRun, and rebuild the catalog after
// a restart with NewCatalogFromStore — labels are decoded from disk, so
// nothing is re-derived.
type Store struct {
	st *store.Store
}

// OpenStore opens (creating if necessary) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	return &Store{st: st}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.st.Dir() }

// SaveSpec durably writes a specification under name.
func (s *Store) SaveSpec(name string, sp *Spec) error {
	if sp == nil || sp.s == nil {
		return fmt.Errorf("provrpq: store: nil specification %q", name)
	}
	data, err := sp.MarshalJSON()
	if err != nil {
		return err
	}
	return s.st.PutSpec(name, data)
}

// LoadSpec reads and re-validates the specification stored under name.
func (s *Store) LoadSpec(name string) (*Spec, error) {
	data, err := s.st.GetSpec(name)
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	sp := &Spec{}
	if err := sp.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("provrpq: store: specification %q: %w", name, err)
	}
	return sp, nil
}

// SaveRun durably writes a run under name, bound to the named
// specification (the columnar EncodeRunColumnar payload, which LoadRun
// and a catalog boot open zero-copy).
func (s *Store) SaveRun(name, specName string, r *Run) error {
	if r == nil || r.r == nil {
		return fmt.Errorf("provrpq: store: nil run %q", name)
	}
	data, err := EncodeRunColumnar(r)
	if err != nil {
		return err
	}
	return s.st.PutRun(name, specName, data)
}

// LoadRun reads the run stored under name and decodes it — full
// validation, labels included — against spec, which must be the
// specification instance registered under the run's bound specification
// name (label decoding depends on specification identity). The bound name
// is returned so callers can check the binding first via Runs.
func (s *Store) LoadRun(name string, spec *Spec) (*Run, string, error) {
	specName, data, err := s.st.GetRun(name)
	if err != nil {
		return nil, "", fmt.Errorf("provrpq: %w", err)
	}
	r, err := DecodeRun(spec, data)
	if err != nil {
		return nil, "", fmt.Errorf("provrpq: store: run %q: %w", name, err)
	}
	return r, specName, nil
}

// SpecNames lists the stored specification names, sorted.
func (s *Store) SpecNames() ([]string, error) {
	names, err := s.st.SpecNames()
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	return names, nil
}

// Runs returns the stored run → specification binding.
func (s *Store) Runs() (map[string]string, error) {
	m, err := s.st.Runs()
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	return m, nil
}

// Appends returns the stored run → committed-growth-batch count (runs
// that never grew are absent).
func (s *Store) Appends() (map[string]int, error) {
	m, err := s.st.Appends()
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	return m, nil
}

// AppendRun durably commits one growth batch for the named stored run and
// returns its sequence number. The batch must decode (DecodeBatch) against
// the run's specification — Catalog.AppendEdges guarantees this; direct
// store users own the check. Batches persist in the columnar format;
// replay sniffs, so logs mixing columnar and legacy JSON batches replay
// identically.
func (s *Store) AppendRun(name string, b *Batch) (int, error) {
	if b == nil || b.spec == nil || b.spec.s == nil {
		return 0, fmt.Errorf("provrpq: nil batch")
	}
	data, err := derive.EncodeBatchColumnar(b.spec.s, b.b)
	if err != nil {
		return 0, err
	}
	seq, err := s.st.AppendRun(name, data)
	if err != nil {
		return 0, fmt.Errorf("provrpq: %w", err)
	}
	return seq, nil
}

// Wedged reports whether the underlying store has latched its wedge: an
// ambiguous commit failure occurred and every further mutation is
// refused until the process reopens the directory. Reads still serve.
func (s *Store) Wedged() bool { return s.st.Wedged() }

// HasSpec reports whether a specification is stored under name.
func (s *Store) HasSpec(name string) bool { return s.st.HasSpec(name) }

// HasRun reports whether a run is stored under name.
func (s *Store) HasRun(name string) bool { return s.st.HasRun(name) }

// StoreSnapshot is a point-in-time listing of a store's contents, as
// served by rpqd's GET /v1/snapshot.
type StoreSnapshot struct {
	Dir   string
	Specs []string
	Runs  map[string]string // run name -> bound specification name
	// Appends counts the committed growth batches per run (runs that
	// never grew are absent) — what a restart replays on top of each
	// stored base run.
	Appends map[string]int
}

// Snapshot lists the store's committed contents. The run bindings and
// append counts come from one atomic manifest read (a racing append or
// compaction yields the before- or after-state, never a torn mix), and
// runs are read before specs: a run is only ever persisted after its
// specification (the catalog enforces spec-before-run) and specs are
// never deleted, so every specification a snapshot's run binding names is
// present in Specs.
func (s *Store) Snapshot() (StoreSnapshot, error) {
	runs, appends, _, _, err := s.st.State()
	if err != nil {
		return StoreSnapshot{}, fmt.Errorf("provrpq: %w", err)
	}
	specs, err := s.SpecNames()
	if err != nil {
		return StoreSnapshot{}, err
	}
	return StoreSnapshot{Dir: s.Dir(), Specs: specs, Runs: runs, Appends: appends}, nil
}

// NewCatalogFromStore rebuilds a catalog from a store's committed
// contents and attaches the store for subsequent persistence: every spec
// is re-validated, every run is decoded with its persisted labels — no
// re-derivation — and later RegisterSpec/AddRun/DeriveRun calls are
// durable before they return. opts.Store is ignored; st is used.
func NewCatalogFromStore(st *Store, opts CatalogOptions) (*Catalog, error) {
	bootStart := time.Now()
	opts.Store = nil
	c := NewCatalog(opts)
	specNames, err := st.SpecNames()
	if err != nil {
		return nil, err
	}
	for _, name := range specNames {
		sp, err := st.LoadSpec(name)
		if err != nil {
			return nil, err
		}
		if err := c.putSpec(name, sp); err != nil {
			return nil, err
		}
	}
	// One atomic manifest read: a compaction or append committing between
	// separate Runs/Appends/Bases reads could pair a folded base with its
	// pre-fold batch count and double-apply every folded batch.
	runs, appends, bases, folded, err := st.st.State()
	if err != nil {
		return nil, fmt.Errorf("provrpq: %w", err)
	}
	runNames := make([]string, 0, len(runs))
	for name := range runs {
		runNames = append(runNames, name)
	}
	sort.Strings(runNames)
	// Runs are independent once every spec is registered, and decoding —
	// label unpacking plus full validation — dominates boot time, so fan
	// it across the worker pool; the registry inserts stay serial and in
	// sorted order, and the first error (in name order) wins so a failing
	// boot reports deterministically.
	decoded := make([]*Run, len(runNames))
	errs := make([]error, len(runNames))
	var legacy atomic.Int64
	parallel.Do(len(runNames), parallel.Workers(opts.Workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			name := runNames[i]
			specName := runs[name]
			sp, ok := c.Spec(specName)
			if !ok {
				errs[i] = fmt.Errorf("provrpq: store: run %q is bound to specification %q, which the store does not contain", name, specName)
				continue
			}
			// The binding, batch count and base epoch are already in hand
			// from the manifest reads above, so fetch just the payload
			// (LoadRun would re-read the manifest for every run) — memory
			// mapped, so a columnar base is opened zero-copy over the file
			// instead of being copied through the heap.
			data, err := st.st.GetRunDataMapped(name, bases[name])
			if err != nil {
				errs[i] = fmt.Errorf("provrpq: %w", err)
				continue
			}
			var r *Run
			if derive.IsColumnar(data) {
				// The store's own payloads are trusted (persisted from
				// validated runs, checksummed): open them with the lazy
				// columnar path, which defers name-map and adjacency
				// construction and never materializes labels.
				dr, derr := derive.OpenColumnar(sp.s, data)
				if derr != nil {
					errs[i] = fmt.Errorf("provrpq: store: run %q: %w", name, derr)
					continue
				}
				r = &Run{r: dr, spec: sp}
			} else {
				// A base written as JSON by an older build: fully decoded,
				// and rewritten as columnar by its next CompactRun.
				if r, err = DecodeRun(sp, data); err != nil {
					errs[i] = fmt.Errorf("provrpq: store: run %q: %w", name, err)
					continue
				}
				legacy.Add(1)
			}
			// Replay the run's append log in commit order, growing the
			// decoded base in place (nothing shares it yet): the restored
			// run is the exact version the last successful AppendEdges
			// published. Like the base decode, replay re-validates every
			// batch, so a corrupted log fails the boot deterministically
			// instead of serving a half-grown run.
			for seq := 0; seq < appends[name]; seq++ {
				// The committed count is in hand from the single manifest
				// read above; fetch just the batch payload.
				bdata, err := st.st.GetRunAppendData(name, seq)
				if err != nil {
					errs[i] = fmt.Errorf("provrpq: %w", err)
					break
				}
				b, err := derive.DecodeBatch(sp.s, bdata)
				if err != nil {
					errs[i] = fmt.Errorf("provrpq: store: run %q append %d: %w", name, seq, err)
					break
				}
				if _, err := derive.AppendEdges(r.r, b); err != nil {
					errs[i] = fmt.Errorf("provrpq: store: run %q append %d: %w", name, seq, err)
					break
				}
			}
			if errs[i] == nil {
				decoded[i] = r
			}
		}
	})
	for i, name := range runNames {
		if errs[i] != nil {
			return nil, errs[i]
		}
		// The run's version counts all batches ever applied — folded into
		// the base by compactions or replayed just now — so it is stable
		// across restarts and never goes back.
		if err := c.putRun(name, runs[name], decoded[i], folded[name]+appends[name]); err != nil {
			return nil, err
		}
	}
	c.store = st
	c.legacyBases = int(legacy.Load())
	replayed := 0
	for _, n := range appends {
		replayed += n
	}
	mBootSeconds.Set(time.Since(bootStart).Seconds())
	mBootRuns.Set(float64(len(runNames)))
	mBootBatches.Set(float64(replayed))
	return c, nil
}
