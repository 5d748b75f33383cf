package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestGroupCommitConcurrentAppends: N writers appending to N distinct runs
// concurrently must all commit, with dense per-run sequence numbers, and a
// reopen must replay exactly the committed batches. The coalescing counters
// must account for every append.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const runs, batches = 8, 6
	for i := 0; i < runs; i++ {
		if err := s.PutRun(fmt.Sprintf("r%d", i), "wf", []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	groups0, ops0 := CommitStats()
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("r%d", i)
			for j := 0; j < batches; j++ {
				seq, err := s.AppendRun(name, []byte(fmt.Sprintf("%s.batch%d", name, j)))
				if err != nil {
					errs[i] = err
					return
				}
				if seq != j {
					errs[i] = fmt.Errorf("run %s batch %d got seq %d", name, j, seq)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	groups, ops := CommitStats()
	if got := ops - ops0; got != runs*batches {
		t.Fatalf("grouped append ops = %d, want %d", got, runs*batches)
	}
	if g := groups - groups0; g == 0 || g > runs*batches {
		t.Fatalf("group commits = %d, want within [1, %d]", g, runs*batches)
	}

	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := s2.Appends()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("r%d", i)
		if counts[name] != batches {
			t.Fatalf("run %s committed %d batches, want %d", name, counts[name], batches)
		}
		for j := 0; j < batches; j++ {
			data, err := s2.GetRunAppend(name, j)
			if err != nil || string(data) != fmt.Sprintf("%s.batch%d", name, j) {
				t.Fatalf("GetRunAppend(%s, %d) = (%q, %v)", name, j, data, err)
			}
		}
	}
}

// TestGroupCommitCrashBeforeManifest: a failure while staging batch
// payloads (the leader's pre-manifest staging flush — syncfs where the
// group defers durability to it, the appends-directory fsync elsewhere)
// must leave every in-flight batch invisible — the manifest still names
// zero batches on reopen, the orphan files are dead bytes, and the
// post-reopen append retakes sequence 0, atomically overwriting its
// orphan.
func TestGroupCommitCrashBeforeManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	for i := 0; i < runs; i++ {
		if err := s.PutRun(fmt.Sprintf("r%d", i), "wf", []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	origDir, origFS := FsyncDir, doSyncfs
	if syncfsSupported {
		doSyncfs = func(dir string) error {
			return fmt.Errorf("injected syncfs failure")
		}
	} else {
		FsyncDir = func(dir string) error {
			if strings.Contains(dir, appendsDir) {
				return fmt.Errorf("injected fsync failure")
			}
			return origDir(dir)
		}
	}
	defer func() { FsyncDir, doSyncfs = origDir, origFS }()

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.AppendRun(fmt.Sprintf("r%d", i), []byte("doomed"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		// The first stage failure is ambiguous (the rename applied before
		// the injected fsync) and wedges the store; appends racing behind
		// it fail with either their own ambiguous stage or ErrWedged.
		if err == nil {
			t.Fatalf("append %d succeeded with failing appends-dir fsync", i)
		}
		if !strings.Contains(err.Error(), "ambiguous commit") && !errors.Is(err, ErrWedged) {
			t.Fatalf("append %d = %v, want ambiguous-commit or ErrWedged", i, err)
		}
	}
	if !s.Wedged() {
		t.Fatal("store must wedge after an ambiguous stage failure")
	}

	FsyncDir, doSyncfs = origDir, origFS
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := s2.Appends()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("r%d", i)
		if counts[name] != 0 {
			t.Fatalf("run %s shows %d committed batches after crash, want 0", name, counts[name])
		}
		if _, err := s2.GetRunAppend(name, 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("orphan batch of %s is visible: %v", name, err)
		}
		// Recovery retakes seq 0 and overwrites the orphan.
		if seq, err := s2.AppendRun(name, []byte("recovered")); err != nil || seq != 0 {
			t.Fatalf("append after reopen = (%d, %v), want seq 0", seq, err)
		}
		if data, err := s2.GetRunAppend(name, 0); err != nil || string(data) != "recovered" {
			t.Fatalf("GetRunAppend after recovery = (%q, %v)", data, err)
		}
	}
}

// TestGroupCommitAmbiguousManifestWedges: the coalesced manifest write
// failing *after* its rename applied (root-directory fsync, injected) is
// ambiguous for the whole group — every in-flight append must report
// failure, the store must wedge, and the reopened state must still be
// atomic per group: whatever batch count the manifest names, every counted
// batch is readable. A torn subset — some of one group's bumps visible,
// others not — is impossible because the group shares one manifest write.
func TestGroupCommitAmbiguousManifestWedges(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	for i := 0; i < runs; i++ {
		if err := s.PutRun(fmt.Sprintf("r%d", i), "wf", []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	root := s.Dir()
	orig := FsyncDir
	FsyncDir = func(dir string) error {
		// Let batch payloads (appends/) stage durably; fail only the root
		// fsync that pins the manifest rename.
		if strings.TrimSuffix(dir, "/") == strings.TrimSuffix(root, "/") {
			return fmt.Errorf("injected fsync failure")
		}
		return orig(dir)
	}
	defer func() { FsyncDir = orig }()

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.AppendRun(fmt.Sprintf("r%d", i), []byte("staged"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d succeeded despite ambiguous manifest commit", i)
		}
		if !strings.Contains(err.Error(), "ambiguous commit") && !errors.Is(err, ErrWedged) {
			t.Fatalf("append %d = %v, want ambiguous-commit or ErrWedged", i, err)
		}
	}
	if !s.Wedged() {
		t.Fatal("store must wedge after an ambiguous group commit")
	}
	if _, err := s.AppendRun("r0", []byte("more")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append on wedged store = %v, want ErrWedged", err)
	}

	FsyncDir = orig
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := s2.Appends()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("r%d", i)
		n := counts[name]
		if n < 0 || n > 1 {
			t.Fatalf("run %s committed count = %d, want 0 or 1", name, n)
		}
		// Invisible-or-committed: every batch the manifest counts must be
		// fully readable with the staged payload.
		for seq := 0; seq < n; seq++ {
			data, err := s2.GetRunAppend(name, seq)
			if err != nil || string(data) != "staged" {
				t.Fatalf("counted batch (%s, %d) unreadable: (%q, %v)", name, seq, data, err)
			}
		}
		// Either way the run accepts new growth after reopen.
		if seq, err := s2.AppendRun(name, []byte("after")); err != nil || seq != n {
			t.Fatalf("append after reopen = (%d, %v), want seq %d", seq, err, n)
		}
	}
}
