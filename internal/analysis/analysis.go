package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// An Analyzer is one invariant checker. Run is invoked once per target
// package with a fully type-checked Pass.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by `provlint -list`.
	Doc string
	Run func(*Pass)
}

// A Pass carries one package through one analyzer, plus the module-wide
// directive table (annotations are collected across every loaded package
// before any analyzer runs, so cross-package invariants hold).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Dirs     *Directives
	// Facts is the whole-module view shared by the interprocedural
	// analyzers: every loaded package plus memoized cross-package
	// results (call-graph facts are computed once per Suite.Run, then
	// replayed into each per-package pass).
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Directives is the module-wide annotation table, keyed by stable
// package-path strings (object identity does not survive the export-data
// import boundary, names do).
//
// Annotation syntax, attached as doc comments:
//
//	//provrpq:immutable            on a type: its fields/elements are
//	                               frozen outside constructors (functions
//	                               returning the type), init, and
//	                               //provrpq:mutator functions
//	//provrpq:mutator              on a function: reviewed mutation site
//	//provrpq:trusted              on a function or type: its []byte
//	                               params/results (or fields) alias a
//	                               shared/mmap buffer
//	//provrpq:fsyncsafe <reason>   on a function: exempt from the
//	                               store's raw-file-operation ban
//	//provrpq:lockrank <name> <n>  on a mutex field, a package-level
//	                               mutex var, or a function returning a
//	                               mutex: declares the lock's place in
//	                               the module's partial acquisition
//	                               order (acquire in strictly increasing
//	                               rank; equal ranks never nest)
//	//provrpq:locks(<name>)        on a function or interface method: an
//	                               interprocedural summary — callers
//	                               must be able to acquire <name> at the
//	                               call site (boundaries the call graph
//	                               cannot see through)
//	//provrpq:excludes(<name>)     on a function or interface method: it
//	                               must never be called with <name> held
//	//provrpq:ctxroot <reason>     on a function: may mint root contexts
//	                               (context.Background/TODO)
//	//provrpq:detached <reason>    on a function, or on the line of (or
//	                               above) a go statement: the goroutine
//	                               intentionally has no bounded exit
//
// File-scope domain markers (anywhere in a file's comments) opt testdata
// packages into path-scoped analyzers:
//
//	//provrpq:fsyncdomain          treat this package like internal/store
//	//provrpq:errdomain            treat this package like store/catalog/server
type Directives struct {
	immutableTypes map[string]bool   // "pkgpath.TypeName"
	mutators       map[string]bool   // function key
	trustedFuncs   map[string]bool   // function key
	trustedTypes   map[string]bool   // "pkgpath.TypeName"
	fsyncsafe      map[string]string // function key -> reason
	fsyncDomains   map[string]bool   // package path
	errDomains     map[string]bool   // package path

	lockByKey    map[string]*LockDecl // mutex object key -> declaration
	lockByName   map[string]*LockDecl // declared lock name -> declaration
	funcLocks    map[string][]LockAnn // function key -> locks(...) summaries
	funcExcludes map[string][]LockAnn // function key -> excludes(...) summaries
	ctxRoots     map[string]string    // function key -> reason
	detached     map[string]string    // function key -> reason
}

// LockDecl is one //provrpq:lockrank declaration: a human-readable lock
// name, its rank in the acquisition order, and the object it annotates.
type LockDecl struct {
	Name string
	Rank int
	Key  string // "pkgpath.Type.field", "pkgpath.var" or a function key
	Pos  token.Pos
}

// LockAnn is one locks(...)/excludes(...) summary entry.
type LockAnn struct {
	Name string
	Pos  token.Pos
}

func newDirectives() *Directives {
	return &Directives{
		immutableTypes: map[string]bool{},
		mutators:       map[string]bool{},
		trustedFuncs:   map[string]bool{},
		trustedTypes:   map[string]bool{},
		fsyncsafe:      map[string]string{},
		fsyncDomains:   map[string]bool{},
		errDomains:     map[string]bool{},
		lockByKey:      map[string]*LockDecl{},
		lockByName:     map[string]*LockDecl{},
		funcLocks:      map[string][]LockAnn{},
		funcExcludes:   map[string][]LockAnn{},
		ctxRoots:       map[string]string{},
		detached:       map[string]string{},
	}
}

// typeKey names a defined type: "pkgpath.Name".
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// funcKey names a function or method: "pkgpath.Name" or
// "pkgpath.Recv.Name" (pointer receivers are normalized away).
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		if tn := namedTypeName(recv.Type()); tn != nil {
			return fn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedTypeName unwraps pointers/aliases and returns the defined type's
// name object, or nil.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}

// TrustedType reports whether t is annotated //provrpq:trusted.
func (d *Directives) TrustedType(t types.Type) bool {
	tn := namedTypeName(t)
	return tn != nil && d.trustedTypes[typeKey(tn)]
}

// Mutator reports whether fn is an annotated mutation site.
func (d *Directives) Mutator(fn *types.Func) bool { return fn != nil && d.mutators[funcKey(fn)] }

// TrustedFunc reports whether fn's byte-slice params/results are
// annotated as aliasing a shared buffer.
func (d *Directives) TrustedFunc(fn *types.Func) bool {
	return fn != nil && d.trustedFuncs[funcKey(fn)]
}

// FsyncSafe reports whether fn is exempt from the raw-file-operation ban.
func (d *Directives) FsyncSafe(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	_, ok := d.fsyncsafe[funcKey(fn)]
	return ok
}

// LockByKey returns the //provrpq:lockrank declaration attached to the
// mutex object named by key, or nil.
func (d *Directives) LockByKey(key string) *LockDecl { return d.lockByKey[key] }

// LockByName returns the declaration of the named lock, or nil.
func (d *Directives) LockByName(name string) *LockDecl { return d.lockByName[name] }

// LockDecls returns every declared lock, sorted by rank then name.
func (d *Directives) LockDecls() []*LockDecl {
	out := make([]*LockDecl, 0, len(d.lockByName))
	for _, l := range d.lockByName {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CtxRoot reports whether fn is annotated //provrpq:ctxroot.
func (d *Directives) CtxRoot(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	_, ok := d.ctxRoots[funcKey(fn)]
	return ok
}

// Detached reports whether fn is annotated //provrpq:detached.
func (d *Directives) Detached(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	_, ok := d.detached[funcKey(fn)]
	return ok
}

// directiveLines extracts "provrpq:" directive verbs (with trailing
// arguments) from a comment group.
func directiveLines(g *ast.CommentGroup) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		if rest, ok := strings.CutPrefix(c.Text, "//provrpq:"); ok {
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

var knownDirectives = map[string]bool{
	"immutable": true, "mutator": true, "trusted": true, "fsyncsafe": true,
	"fsyncdomain": true, "errdomain": true,
	"lockrank": true, "locks": true, "excludes": true, "ctxroot": true, "detached": true,
}

// splitDirective separates one directive line into its verb, an optional
// parenthesized operand ("locks(growMu)" -> "locks", "growMu") and the
// space-separated tail arguments.
func splitDirective(line string) (verb, paren, arg string) {
	verb, arg, _ = strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	if i := strings.IndexByte(verb, '('); i >= 0 && strings.HasSuffix(verb, ")") {
		paren = verb[i+1 : len(verb)-1]
		verb = verb[:i]
	}
	return verb, paren, arg
}

// splitLockNames parses the comma-separated operand of locks(...)/
// excludes(...).
func splitLockNames(paren string) []string {
	var out []string
	for _, n := range strings.Split(paren, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// addLockRank records one //provrpq:lockrank declaration on the object
// named by key. The argument must be "<name> <rank>"; conflicting ranks
// for one lock name are reported.
func (d *Directives) addLockRank(key, arg string, pos token.Pos, report func(token.Pos, string, ...any)) {
	fields := strings.Fields(arg)
	if len(fields) != 2 {
		report(pos, "//provrpq:lockrank requires a lock name and an integer rank, e.g. //provrpq:lockrank storeMu 30")
		return
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil {
		report(pos, "//provrpq:lockrank rank %q is not an integer", fields[1])
		return
	}
	decl := &LockDecl{Name: fields[0], Rank: rank, Key: key, Pos: pos}
	if prev := d.lockByName[decl.Name]; prev != nil && prev.Rank != rank {
		report(pos, "lock %q re-declared with rank %d (previously rank %d)", decl.Name, rank, prev.Rank)
		return
	}
	if d.lockByName[decl.Name] == nil {
		d.lockByName[decl.Name] = decl
	}
	d.lockByKey[key] = decl
}

// addLockSummaries records locks(...)/excludes(...) entries for a function
// key, reporting an empty operand list.
func (d *Directives) addLockSummaries(verb, key, paren string, pos token.Pos, report func(token.Pos, string, ...any)) {
	names := splitLockNames(paren)
	if len(names) == 0 {
		report(pos, "//provrpq:%s requires a parenthesized lock name, e.g. //provrpq:%s(growMu)", verb, verb)
		return
	}
	for _, n := range names {
		ann := LockAnn{Name: n, Pos: pos}
		if verb == "locks" {
			d.funcLocks[key] = append(d.funcLocks[key], ann)
		} else {
			d.funcExcludes[key] = append(d.funcExcludes[key], ann)
		}
	}
}

// collect folds one package's annotations into the table, reporting
// malformed or misplaced directives as provlint diagnostics.
func (d *Directives) collect(pkg *Package, report func(token.Pos, string, ...any)) {
	seen := map[*ast.CommentGroup]bool{}
	note := func(g *ast.CommentGroup, apply func(verb, paren, arg string, pos token.Pos) bool) {
		if g == nil || seen[g] {
			return
		}
		seen[g] = true
		for _, line := range directiveLines(g) {
			verb, paren, arg := splitDirective(line)
			if !knownDirectives[verb] {
				report(g.Pos(), "unknown directive //provrpq:%s", verb)
				continue
			}
			if !apply(verb, paren, arg, g.Pos()) {
				report(g.Pos(), "directive //provrpq:%s is not valid here", verb)
			}
		}
	}
	fileScope := func(verb string) bool {
		switch verb {
		case "fsyncdomain":
			d.fsyncDomains[pkg.Pkg.Path()] = true
			return true
		case "errdomain":
			d.errDomains[pkg.Pkg.Path()] = true
			return true
		}
		return false
	}
	// funcApply handles the verbs valid on functions and interface
	// methods, given the function object's stable key.
	funcApply := func(key string) func(verb, paren, arg string, pos token.Pos) bool {
		return func(verb, paren, arg string, pos token.Pos) bool {
			switch verb {
			case "mutator":
				d.mutators[key] = true
			case "trusted":
				d.trustedFuncs[key] = true
			case "fsyncsafe":
				if arg == "" {
					report(pos, "//provrpq:fsyncsafe requires a reason")
				}
				d.fsyncsafe[key] = arg
			case "lockrank":
				d.addLockRank(key, arg, pos, report)
			case "locks", "excludes":
				d.addLockSummaries(verb, key, paren, pos, report)
			case "ctxroot":
				d.ctxRoots[key] = arg
			case "detached":
				if arg == "" {
					report(pos, "//provrpq:detached requires a reason")
				}
				d.detached[key] = arg
			default:
				return fileScope(verb)
			}
			return true
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				note(decl.Doc, func(verb, paren, arg string, pos token.Pos) bool {
					if fn == nil {
						return false
					}
					return funcApply(funcKey(fn))(verb, paren, arg, pos)
				})
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						tn, _ := pkg.Info.Defs[spec.Name].(*types.TypeName)
						apply := func(verb, paren, arg string, pos token.Pos) bool {
							if tn == nil {
								return false
							}
							switch verb {
							case "immutable":
								d.immutableTypes[typeKey(tn)] = true
							case "trusted":
								d.trustedTypes[typeKey(tn)] = true
							default:
								return fileScope(verb)
							}
							return true
						}
						note(spec.Doc, apply)
						if len(decl.Specs) == 1 {
							note(decl.Doc, apply)
						}
						switch t := spec.Type.(type) {
						case *ast.StructType:
							// Mutex fields carry //provrpq:lockrank.
							for _, field := range t.Fields.List {
								field := field
								apply := func(verb, paren, arg string, pos token.Pos) bool {
									if verb != "lockrank" || tn == nil {
										return fileScope(verb)
									}
									for _, name := range field.Names {
										d.addLockRank(typeKey(tn)+"."+name.Name, arg, pos, report)
									}
									return true
								}
								note(field.Doc, apply)
								note(field.Comment, apply)
							}
						case *ast.InterfaceType:
							// Interface methods carry locks(...)/
							// excludes(...) boundary summaries.
							for _, m := range t.Methods.List {
								if len(m.Names) != 1 {
									continue
								}
								fn, _ := pkg.Info.Defs[m.Names[0]].(*types.Func)
								apply := func(verb, paren, arg string, pos token.Pos) bool {
									if fn == nil {
										return false
									}
									switch verb {
									case "locks", "excludes":
										d.addLockSummaries(verb, funcKey(fn), paren, pos, report)
										return true
									}
									return fileScope(verb)
								}
								note(m.Doc, apply)
								note(m.Comment, apply)
							}
						}
					case *ast.ValueSpec:
						// Package-level mutex vars carry lockrank.
						if decl.Tok != token.VAR {
							continue
						}
						apply := func(verb, paren, arg string, pos token.Pos) bool {
							if verb != "lockrank" {
								return fileScope(verb)
							}
							for _, name := range spec.Names {
								d.addLockRank(pkg.Pkg.Path()+"."+name.Name, arg, pos, report)
							}
							return true
						}
						note(spec.Doc, apply)
						if len(decl.Specs) == 1 {
							note(decl.Doc, apply)
						}
					}
				}
			}
		}
		// File-scope domain markers may sit in any comment group,
		// including the package doc.
		for _, g := range f.Comments {
			if seen[g] {
				continue
			}
			for _, line := range directiveLines(g) {
				verb, _, _ := splitDirective(line)
				fileScope(verb) // other verbs were (or will be) handled via decls
			}
		}
	}
}

// Suite runs a set of analyzers over loaded packages.
type Suite struct{ Analyzers []*Analyzer }

// DefaultSuite returns every provlint analyzer.
func DefaultSuite() *Suite {
	return &Suite{Analyzers: []*Analyzer{
		ImmutableAnalyzer, CowAliasAnalyzer, FsyncOrderAnalyzer, ErrSentinelAnalyzer,
		LockOrderAnalyzer, GoroutineLeakAnalyzer, CtxFlowAnalyzer,
	}}
}

// Run collects directives across all packages, runs every analyzer on
// every package, applies //provlint:ignore suppressions, and returns the
// surviving diagnostics sorted by position.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	meta := &Analyzer{Name: "provlint"}
	dirs := newDirectives()
	for _, pkg := range pkgs {
		p := &Pass{Analyzer: meta, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, diags: &diags}
		dirs.collect(pkg, p.Reportf)
	}
	facts := &Facts{Pkgs: pkgs, Dirs: dirs}
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: "provlint", Message: fmt.Sprintf(format, args...)})
		})
		var pkgDiags []Diagnostic
		for _, a := range s.Analyzers {
			p := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, Dirs: dirs, Facts: facts, diags: &pkgDiags}
			a.Run(p)
		}
		for _, d := range pkgDiags {
			if !sup.matches(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return dedupe(diags)
}

func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// suppressions maps file -> line -> analyzer names silenced on that line.
// A //provlint:ignore comment silences the line it sits on and, when it is
// the only thing on its line, the line below.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) matches(d Diagnostic) bool {
	return s[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

func collectSuppressions(pkg *Package, report func(token.Pos, string, ...any)) suppressions {
	sup := suppressions{}
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(c.Text, "//provlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), "//provlint:ignore requires an analyzer name and a reason, e.g. //provlint:ignore immutable copied before publication")
					continue
				}
				name := fields[0]
				pos := pkg.Fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					sup[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					lines[line][name] = true
				}
			}
		}
	}
	return sup
}
