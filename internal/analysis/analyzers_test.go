package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestImmutable(t *testing.T)   { runAnalyzerTest(t, ImmutableAnalyzer, "immutable") }
func TestCowAlias(t *testing.T)    { runAnalyzerTest(t, CowAliasAnalyzer, "cowalias") }
func TestFsyncOrder(t *testing.T)  { runAnalyzerTest(t, FsyncOrderAnalyzer, "fsyncorder") }
func TestErrSentinel(t *testing.T) { runAnalyzerTest(t, ErrSentinelAnalyzer, "errsentinel") }
func TestDirectives(t *testing.T)  { runAnalyzerTest(t, ImmutableAnalyzer, "directives") }

func TestLockOrder(t *testing.T)     { runAnalyzerTest(t, LockOrderAnalyzer, "lockorder") }
func TestGoroutineLeak(t *testing.T) { runAnalyzerTest(t, GoroutineLeakAnalyzer, "goroutineleak") }
func TestCtxFlow(t *testing.T)       { runAnalyzerTest(t, CtxFlowAnalyzer, "ctxflow") }

// The multifile package splits a caller and its lock-inheriting callee
// across two files; the generics package ranks mutex fields inside a
// generic container. Both run the interprocedural lockorder analyzer.
func TestLockOrderMultiFile(t *testing.T) { runAnalyzerTest(t, LockOrderAnalyzer, "multifile") }
func TestLockOrderGenerics(t *testing.T)  { runAnalyzerTest(t, LockOrderAnalyzer, "generics") }

// TestLoaderMultiFile pins down that LoadDir folds every file of a
// directory into one type-checked package — the harness previously only
// ever saw single-file testdata packages.
func TestLoaderMultiFile(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "src", "multifile"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("LoadDir(multifile): got %d files, want 2", len(pkg.Files))
	}
}

// TestLockGraphDOT renders the lockorder testdata's declared hierarchy
// and checks the nodes carry ranks and the observed nesting edges are
// present.
func TestLockGraphDOT(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "src", "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	dot := LockGraphDOT([]*Package{pkg})
	for _, want := range []string{
		"digraph lockrank",
		`"catalogMu"`,
		`rank 10`,
		`"catalogMu" -> "storeMu"`, // observed in Catalog.OK
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("lock graph missing %q:\n%s", want, dot)
		}
	}
}

// TestMalformedIgnoreDoesNotSuppress loads a package whose only
// suppression lacks the required reason: the malformed directive must be
// reported and the finding underneath it must still fire.
func TestMalformedIgnoreDoesNotSuppress(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "badignore"))
	if err != nil {
		t.Fatal(err)
	}
	diags := (&Suite{Analyzers: []*Analyzer{ImmutableAnalyzer}}).Run([]*Package{pkg})
	var gotMalformed, gotFinding bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "provlint" && strings.Contains(d.Message, "requires an analyzer name and a reason"):
			gotMalformed = true
		case d.Analyzer == "immutable" && strings.Contains(d.Message, "write to field n"):
			gotFinding = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotMalformed {
		t.Error("malformed //provlint:ignore was not reported")
	}
	if !gotFinding {
		t.Error("malformed //provlint:ignore suppressed the finding it sits on")
	}
}
