package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"provrpq"
	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/workload"
)

// dataset pairs a paper dataset with the public handle of its grammar.
type dataset struct {
	d   *workload.Dataset
	pub *provrpq.Spec
}

func loadDataset(name string) (*dataset, error) {
	var d *workload.Dataset
	switch name {
	case "BioAID":
		d = workload.BioAID()
	case "QBLast":
		d = workload.QBLast()
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	// The catalog wants the public Spec; round-trip the grammar through its
	// JSON encoding (as internal/bench does).
	raw, err := json.Marshal(d.Spec)
	if err != nil {
		return nil, err
	}
	pub := &provrpq.Spec{}
	if err := pub.UnmarshalJSON(raw); err != nil {
		return nil, err
	}
	return &dataset{d: d, pub: pub}, nil
}

// runFixture is one frozen run: the complete derivation (ground truth for
// the oracle and input of the L3 replay) and, for a growing run, its split
// into a served base and the append bodies that rebuild the rest.
type runFixture struct {
	def  runDef
	ds   *dataset
	opts derive.Options
	full *derive.Run
	// baseNodes is the served base's node count (== full.NumNodes() for a
	// run that does not grow).
	baseNodes  int
	baseJSON   []byte   // upload payload of the base (growing runs only)
	batches    [][]byte // append bodies, in order
	batchEdges []int    // edges in batch i
}

func (rf *runFixture) name(id derive.NodeID) string { return rf.full.Nodes[id].Name }

// deriveOptions maps a run definition onto the paper's derivation options.
func deriveOptions(def runDef, ds *dataset, quick bool) derive.Options {
	edges := def.Edges
	if quick {
		edges = max(edges/10, 150)
	}
	o := derive.Options{Seed: fixtureSeed, TargetEdges: edges}
	if def.Fork {
		o.FavorModules = ds.d.ForkFavor
		o.FavorCaps = ds.d.ForkCaps
	}
	return o
}

func buildRun(def runDef, ds *dataset, quick bool) (*runFixture, error) {
	rf := &runFixture{def: def, ds: ds, opts: deriveOptions(def, ds, quick)}
	full, err := derive.Derive(ds.d.Spec, rf.opts)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", def.Name, err)
	}
	rf.full = full
	rf.baseNodes = full.NumNodes()
	if def.Grow == 0 {
		return rf, nil
	}
	// Split as internal/bench/ingest.go does: contiguous node segments, each
	// edge in the earliest segment that holds both endpoints, so every
	// prefix of the stream is a valid partial derivation and node ids never
	// change.
	n := full.NumNodes()
	grow := def.Grow
	if quick {
		grow = n / (2 * batchNodes)
	}
	base := n - grow*batchNodes
	if base < 2 {
		return nil, fmt.Errorf("run %s: %d nodes cannot grow by %d batches", def.Name, n, grow)
	}
	cuts := []int{base}
	for c := base; c < n; {
		c += batchNodes
		if c > n {
			c = n
		}
		cuts = append(cuts, c)
	}
	segEdges := make([][]derive.Edge, len(cuts))
	for _, e := range full.Edges {
		hi := int(e.From)
		if int(e.To) > hi {
			hi = int(e.To)
		}
		seg := sort.SearchInts(cuts, hi+1) // first cut > hi
		segEdges[seg] = append(segEdges[seg], e)
	}
	rf.baseNodes = base
	if rf.baseJSON, err = derive.EncodeBatch(ds.d.Spec, derive.Batch{Nodes: full.Nodes[:base], Edges: segEdges[0]}); err != nil {
		return nil, err
	}
	for i := 1; i < len(cuts); i++ {
		body, err := derive.EncodeBatch(ds.d.Spec, derive.Batch{Nodes: full.Nodes[cuts[i-1]:cuts[i]], Edges: segEdges[i]})
		if err != nil {
			return nil, err
		}
		rf.batches = append(rf.batches, body)
		rf.batchEdges = append(rf.batchEdges, len(segEdges[i]))
	}
	return rf, nil
}

// publicRun produces the run the catalog serves at set-up: a fresh public
// derivation (the "derive" of setup_s), or the decoded base of a growing run.
func (rf *runFixture) publicRun() (*provrpq.Run, error) {
	if rf.def.Grow > 0 {
		return provrpq.DecodeRun(rf.ds.pub, rf.baseJSON)
	}
	return rf.publicFull()
}

// publicFull derives the complete run through the public API.
func (rf *runFixture) publicFull() (*provrpq.Run, error) {
	r, err := rf.ds.pub.Derive(provrpq.DeriveOptions{
		Seed: rf.opts.Seed, TargetEdges: rf.opts.TargetEdges,
		FavorModules: rf.opts.FavorModules, FavorCaps: rf.opts.FavorCaps,
	})
	if err != nil {
		return nil, err
	}
	if r.NumNodes() != rf.full.NumNodes() || r.NumEdges() != rf.full.NumEdges() {
		return nil, fmt.Errorf("run %s: public derivation (%d nodes, %d edges) differs from the internal one (%d, %d)",
			rf.def.Name, r.NumNodes(), r.NumEdges(), rf.full.NumNodes(), rf.full.NumEdges())
	}
	return r, nil
}

// poolQuery is one frozen pool entry. Count, Strategy and the decomposition
// shape are exact values recorded when the pool was generated (-genpools);
// a run re-checks them, so a program change that alters an answer or a
// verdict fails the run instead of silently changing the workload.
type poolQuery struct {
	Role       string `json:"role"`
	Run        string `json:"run"`
	Query      string `json:"query"`
	Safe       bool   `json:"safe"`
	Count      int    `json:"count"`
	BaseCount  int    `json:"base_count,omitempty"` // growing runs: count on the served base
	Strategy   string `json:"strategy,omitempty"`
	Subtrees   int    `json:"safe_subtrees,omitempty"`
	Relational int    `json:"relational_nodes,omitempty"`

	node *automata.Node
}

type poolFile struct {
	FixtureSeed int64                  `json:"fixture_seed"`
	Workloads   map[string][]poolQuery `json:"workloads"`
}

//go:embed pools.json
var poolsJSON []byte

func loadPool(workload string) ([]poolQuery, string, error) {
	var pf poolFile
	if err := json.Unmarshal(poolsJSON, &pf); err != nil {
		return nil, "", fmt.Errorf("pools.json: %w", err)
	}
	if pf.FixtureSeed != fixtureSeed {
		return nil, "", fmt.Errorf("pools.json was generated for fixture seed %d, not %d: run -genpools", pf.FixtureSeed, fixtureSeed)
	}
	pool := pf.Workloads[workload]
	if len(pool) == 0 {
		return nil, "", fmt.Errorf("pools.json holds no pool for workload %q: run -genpools", workload)
	}
	h := sha256.New()
	for i := range pool {
		n, err := automata.Parse(pool[i].Query)
		if err != nil {
			return nil, "", fmt.Errorf("pools.json: %q: %w", pool[i].Query, err)
		}
		pool[i].node = n
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\n", pool[i].Role, pool[i].Run, pool[i].Query, pool[i].Count)
	}
	return pool, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// fixture is everything a workload's run needs that is not the program
// under test: runs, pools and the ground truth to check answers against.
type fixture struct {
	wl       *workloadDef
	runs     map[string]*runFixture
	runOrder []string
	pool     []poolQuery
	poolHash string
}

// buildRuns derives the workload's frozen runs.
func buildRuns(wl *workloadDef, quick bool) (*fixture, error) {
	fx := &fixture{wl: wl, runs: map[string]*runFixture{}}
	sets := map[string]*dataset{}
	for _, def := range wl.Runs {
		ds := sets[def.Dataset]
		if ds == nil {
			var err error
			if ds, err = loadDataset(def.Dataset); err != nil {
				return nil, err
			}
			sets[def.Dataset] = ds
		}
		rf, err := buildRun(def, ds, quick)
		if err != nil {
			return nil, err
		}
		fx.runs[def.Name] = rf
		fx.runOrder = append(fx.runOrder, def.Name)
	}
	return fx, nil
}

func buildFixture(wl *workloadDef, quick bool) (*fixture, error) {
	fx, err := buildRuns(wl, quick)
	if err != nil {
		return nil, err
	}
	if fx.pool, fx.poolHash, err = loadPool(wl.Name); err != nil {
		return nil, err
	}
	for _, pq := range fx.pool {
		if fx.runs[pq.Run] == nil {
			return nil, fmt.Errorf("pools.json: workload %s names unknown run %q", wl.Name, pq.Run)
		}
	}
	return fx, nil
}

func (fx *fixture) role(role string) []*poolQuery {
	var out []*poolQuery
	for i := range fx.pool {
		if fx.pool[i].Role == role {
			out = append(out, &fx.pool[i])
		}
	}
	return out
}

func (fx *fixture) growing() *runFixture {
	for _, name := range fx.runOrder {
		if fx.runs[name].def.Grow > 0 {
			return fx.runs[name]
		}
	}
	return nil
}

// truth is the oracle's view of one query over a complete run: the rows
// (matches of one source node) it was asked for, computed by product BFS.
type truth struct {
	o    *baseline.Oracle
	rows map[derive.NodeID]map[derive.NodeID]bool
}

func newTruth(run *derive.Run, q *automata.Node) *truth {
	return &truth{o: baseline.NewOracle(run, q), rows: map[derive.NodeID]map[derive.NodeID]bool{}}
}

func (t *truth) row(u derive.NodeID) map[derive.NodeID]bool {
	if r, ok := t.rows[u]; ok {
		return r
	}
	r := map[derive.NodeID]bool{}
	for _, v := range t.o.From(u) {
		r[v] = true
	}
	t.rows[u] = r
	return r
}
