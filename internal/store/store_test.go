package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec("wf", []byte(`{"grammar":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetSpec("wf")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"grammar":1}` {
		t.Fatalf("GetSpec = %q", got)
	}
	if !s.HasSpec("wf") || s.HasSpec("ghost") {
		t.Error("HasSpec wrong")
	}
	if _, err := s.GetSpec("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing spec error = %v, want ErrNotFound", err)
	}
	// A re-save replaces the payload (idempotent persistence).
	if err := s.PutSpec("wf", []byte(`{"grammar":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetSpec("wf"); string(got) != `{"grammar":2}` {
		t.Fatalf("after re-save GetSpec = %q", got)
	}
}

func TestRunRoundTripAndManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("r1", "wf", []byte(`{"nodes":[]}`)); err != nil {
		t.Fatal(err)
	}
	spec, data, err := s.GetRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if spec != "wf" || string(data) != `{"nodes":[]}` {
		t.Fatalf("GetRun = (%q, %q)", spec, data)
	}
	if !s.HasRun("r1") || s.HasRun("ghost") {
		t.Error("HasRun wrong")
	}
	if _, _, err := s.GetRun("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing run error = %v, want ErrNotFound", err)
	}
	m, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m["r1"] != "wf" {
		t.Fatalf("Runs = %v", m)
	}
}

// TestEscapedNames puts names that are hostile as filenames — path
// separators, spaces, dots — through the full save/list/load cycle.
func TestEscapedNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "a b", "..", "weird%2Fname", "ünïcode"}
	for _, n := range names {
		if err := s.PutSpec(n, []byte(`{}`)); err != nil {
			t.Fatalf("PutSpec(%q): %v", n, err)
		}
		if err := s.PutRun(n, n, []byte(`{}`)); err != nil {
			t.Fatalf("PutRun(%q): %v", n, err)
		}
	}
	specs, err := s.SpecNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(names) {
		t.Fatalf("SpecNames = %v, want %d names", specs, len(names))
	}
	for _, n := range names {
		if _, err := s.GetSpec(n); err != nil {
			t.Errorf("GetSpec(%q): %v", n, err)
		}
		if spec, _, err := s.GetRun(n); err != nil || spec != n {
			t.Errorf("GetRun(%q) = (%q, %v)", n, spec, err)
		}
	}
	// No escaped name may climb out of the store's directories.
	entries, err := os.ReadDir(filepath.Join(s.Dir(), "specs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("specs dir holds %d files, want %d", len(entries), len(names))
	}
}

// TestOrphanRunInvisible checks the manifest is the commit point: a run
// file without a manifest entry (a crash between the two PutRun writes)
// is not surfaced by any read path.
func TestOrphanRunInvisible(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("committed", "wf", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(s.Dir(), "runs", "orphan.json")
	if err := os.WriteFile(orphan, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := s.RunNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "committed" {
		t.Fatalf("RunNames = %v; the orphan must stay invisible", names)
	}
	if s.HasRun("orphan") {
		t.Error("HasRun sees the orphan")
	}
	if _, _, err := s.GetRun("orphan"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetRun(orphan) = %v, want ErrNotFound", err)
	}
}

// TestAppendRunRoundTrip: growth batches commit in sequence, bound to an
// existing run, and read back exactly.
func TestAppendRunRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendRun("ghost", []byte(`{}`)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to unknown run = %v, want ErrNotFound", err)
	}
	if err := s.PutRun("r1", "wf", []byte(`{"nodes":[]}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seq, err := s.AppendRun("r1", []byte{byte('0' + i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("AppendRun #%d returned seq %d", i, seq)
		}
	}
	for i := 0; i < 3; i++ {
		data, err := s.GetRunAppend("r1", i)
		if err != nil || string(data) != string(byte('0'+i)) {
			t.Fatalf("GetRunAppend(%d) = %q, %v", i, data, err)
		}
	}
	if _, err := s.GetRunAppend("r1", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("past-end append read = %v, want ErrNotFound", err)
	}
	m, err := s.Appends()
	if err != nil || m["r1"] != 3 {
		t.Fatalf("Appends = %v, %v", m, err)
	}
	// A reopening process sees the same committed growth.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if m2, err := s2.Appends(); err != nil || m2["r1"] != 3 {
		t.Fatalf("reopened Appends = %v, %v", m2, err)
	}
}

// TestOrphanAppendInvisible mirrors TestOrphanRunInvisible for the append
// log: a batch file without its manifest count bump — a crash between
// AppendRun's two writes — must stay invisible to every read path, and the
// next AppendRun must commit cleanly over it.
func TestOrphanAppendInvisible(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("r1", "wf", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendRun("r1", []byte(`committed-0`)); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: batch file for seq 1 lands, manifest never does.
	orphan := filepath.Join(s.Dir(), "appends", "r1.1.json")
	if err := os.WriteFile(orphan, []byte(`torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if m, err := reopened.Appends(); err != nil || m["r1"] != 1 {
		t.Fatalf("Appends after torn append = %v, %v, want r1:1", m, err)
	}
	if _, err := reopened.GetRunAppend("r1", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn batch readable: %v", err)
	}
	// The next append takes seq 1, atomically replacing the orphan.
	seq, err := reopened.AppendRun("r1", []byte(`committed-1`))
	if err != nil || seq != 1 {
		t.Fatalf("AppendRun after torn append = %d, %v", seq, err)
	}
	data, err := reopened.GetRunAppend("r1", 1)
	if err != nil || string(data) != "committed-1" {
		t.Fatalf("GetRunAppend(1) = %q, %v; the orphan must be gone", data, err)
	}
}

// TestNoTempLeftovers verifies atomic writes clean up after themselves
// and that listing skips anything that is not a committed entry.
func TestNoTempLeftovers(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutSpec("wf", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutRun("r", "wf", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	var leftovers []string
	err = filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp-") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestOpenSweepsAbandonedTempFiles: a kill -9 between CreateTemp and
// rename strands a temp file; the next Open must clear it while leaving
// committed entries alone.
func TestOpenSweepsAbandonedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec("wf", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	stranded := []string{
		filepath.Join(dir, "specs", "wf.json.tmp-123"),
		filepath.Join(dir, "runs", "r.json.tmp-456"),
		filepath.Join(dir, "manifest.json.tmp-789"),
	}
	for _, p := range stranded {
		if err := os.WriteFile(p, []byte(`partial`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range stranded {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the sweep", p)
		}
	}
	if got, err := s.GetSpec("wf"); err != nil || string(got) != `{}` {
		t.Fatalf("committed spec damaged by sweep: %q, %v", got, err)
	}
}

// Regression: names are opaque strings, and url.PathEscape leaves '.'
// and '-' alone, so a committed entry legitimately named "build.tmp-2026"
// lands on disk as "build.tmp-2026.json" — the sweep must not mistake it
// for a writeAtomic leftover and delete it on the next Open.
func TestSweepSparesCommittedNamesContainingTmpMarker(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const name = "build.tmp-2026"
	if err := s.PutSpec(name, []byte(`{"spec":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(name, name, []byte(`{"run":true}`)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetSpec(name); err != nil || string(got) != `{"spec":true}` {
		t.Fatalf("committed spec swept on reopen: %q, %v", got, err)
	}
	if spec, got, err := s2.GetRun(name); err != nil || spec != name || string(got) != `{"run":true}` {
		t.Fatalf("committed run swept on reopen: spec=%q data=%q err=%v", spec, got, err)
	}
}

func TestReopenSeesContents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec("wf", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("r1", "wf", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	// A second process opening the same directory sees the committed state.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := s2.SpecNames()
	runs, _ := s2.RunNames()
	if len(specs) != 1 || len(runs) != 1 {
		t.Fatalf("reopened store: specs=%v runs=%v", specs, runs)
	}
}

func TestEmptyNamesRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec("", nil); err == nil {
		t.Error("empty spec name accepted")
	}
	if err := s.PutRun("", "wf", nil); err == nil {
		t.Error("empty run name accepted")
	}
	if err := s.PutRun("r", "", nil); err == nil {
		t.Error("empty bound spec name accepted")
	}
}

// TestCompactRunFoldsLog: compaction replaces base+batches with one
// payload at the next epoch, zeroes the batch count, reuses append seq 0,
// and removes the superseded files.
func TestCompactRunFoldsLog(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactRun("ghost", []byte(`{}`)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("compact of unknown run = %v, want ErrNotFound", err)
	}
	if err := s.PutRun("r1", "wf", []byte(`base`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AppendRun("r1", []byte(`b`)); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := s.CompactRun("r1", []byte(`folded`))
	if err != nil || epoch != 1 {
		t.Fatalf("CompactRun = %d, %v", epoch, err)
	}
	spec, data, err := s.GetRun("r1")
	if err != nil || spec != "wf" || string(data) != "folded" {
		t.Fatalf("GetRun after compaction = (%q, %q, %v)", spec, data, err)
	}
	if m, _ := s.Appends(); m["r1"] != 0 {
		t.Fatalf("Appends after compaction = %v", m)
	}
	if b, _ := s.Bases(); b["r1"] != 1 {
		t.Fatalf("Bases after compaction = %v", b)
	}
	// The folded count is committed with the switch: folded + logged — the
	// run's version — is 2 before and after.
	if _, _, _, folded, _ := s.State(); folded["r1"] != 2 {
		t.Fatalf("folded after compaction = %v, want r1:2", folded)
	}
	// Superseded files are gone; the reopened store sees only the folded
	// state and growth restarts at seq 0.
	if _, err := os.Stat(filepath.Join(s.Dir(), "runs", "r1.json")); !errors.Is(err, os.ErrNotExist) {
		t.Error("old epoch-0 base survived compaction")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "appends", "r1.0.json")); !errors.Is(err, os.ErrNotExist) {
		t.Error("folded batch file survived compaction")
	}
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := s2.GetRun("r1"); err != nil || string(data) != "folded" {
		t.Fatalf("reopened GetRun = (%q, %v)", data, err)
	}
	if seq, err := s2.AppendRun("r1", []byte(`after`)); err != nil || seq != 0 {
		t.Fatalf("post-compaction AppendRun = %d, %v", seq, err)
	}
	// A second compaction moves to epoch 2 and adds to the folded count; a
	// fresh put under the name starts a fresh history.
	if epoch, err := s2.CompactRun("r1", []byte(`folded2`)); err != nil || epoch != 2 {
		t.Fatalf("second CompactRun = %d, %v", epoch, err)
	}
	if _, _, _, folded, _ := s2.State(); folded["r1"] != 3 {
		t.Fatalf("folded after the second compaction = %v, want r1:3", folded)
	}
	if err := s2.PutRun("r1", "wf", []byte(`base`)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, folded, _ := s2.State(); folded["r1"] != 0 {
		t.Fatalf("folded after a fresh PutRun = %v, want none", folded)
	}
}

// TestTornCompactionInvisible: a crash between the new-base write and the
// manifest switch leaves the old base and the full append log in force.
func TestTornCompactionInvisible(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("r1", "wf", []byte(`base`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendRun("r1", []byte(`batch0`)); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the epoch-1 base lands, the manifest never
	// switches.
	orphan := filepath.Join(s.Dir(), "bases", "r1.1.json")
	if err := os.WriteFile(orphan, []byte(`torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := s2.GetRun("r1"); err != nil || string(data) != "base" {
		t.Fatalf("GetRun after torn compaction = (%q, %v), want the old base", data, err)
	}
	if m, _ := s2.Appends(); m["r1"] != 1 {
		t.Fatalf("Appends after torn compaction = %v, want r1:1", m)
	}
	// The next compaction retakes epoch 1, atomically replacing the
	// orphan.
	if epoch, err := s2.CompactRun("r1", []byte(`folded`)); err != nil || epoch != 1 {
		t.Fatalf("CompactRun after torn compaction = %d, %v", epoch, err)
	}
	if _, data, _ := s2.GetRun("r1"); string(data) != "folded" {
		t.Fatalf("GetRun = %q after recovery compaction", data)
	}
}

// TestAmbiguousCommitWedgesStore: a directory fsync failing after the
// rename applied means memory and disk may disagree about what is
// committed; the store must refuse further mutations (reads keep working)
// until reopened.
func TestAmbiguousCommitWedgesStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun("r1", "wf", []byte(`base`)); err != nil {
		t.Fatal(err)
	}
	fail := true
	orig := FsyncDir
	FsyncDir = func(dir string) error {
		if fail {
			return fmt.Errorf("injected fsync failure")
		}
		return orig(dir)
	}
	defer func() { FsyncDir = orig }()

	_, err = s.AppendRun("r1", []byte(`batch`))
	if err == nil || !strings.Contains(err.Error(), "ambiguous commit") {
		t.Fatalf("append with failing dir fsync = %v, want ambiguous-commit error", err)
	}
	fail = false
	// Every further mutation is refused — continuing on an unknowable
	// disk state is how histories diverge — while reads still serve.
	if _, err := s.AppendRun("r1", []byte(`b2`)); !errors.Is(err, ErrWedged) {
		t.Fatalf("append on wedged store = %v, want ErrWedged", err)
	}
	if err := s.PutSpec("wf", []byte(`{}`)); !errors.Is(err, ErrWedged) {
		t.Fatalf("PutSpec on wedged store = %v, want ErrWedged", err)
	}
	if err := s.PutRun("r2", "wf", []byte(`{}`)); !errors.Is(err, ErrWedged) {
		t.Fatalf("PutRun on wedged store = %v, want ErrWedged", err)
	}
	if _, err := s.CompactRun("r1", []byte(`{}`)); !errors.Is(err, ErrWedged) {
		t.Fatalf("CompactRun on wedged store = %v, want ErrWedged", err)
	}
	if _, data, err := s.GetRun("r1"); err != nil || string(data) != "base" {
		t.Fatalf("read on wedged store = (%q, %v); reads must keep working", data, err)
	}
	// Reopening re-reads the disk state and recovers.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AppendRun("r1", []byte(`b3`)); err != nil {
		t.Fatalf("append after reopen = %v", err)
	}
}
