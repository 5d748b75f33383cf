//go:build !slow

package provrpq

// Differential-harness tier for the regular (and CI -race) test run: small
// runs, few cases, fast under the race detector. The slow tier
// (difftest_slow_test.go, -tags slow) widens everything and enforces the
// ≥ 200-case floor.
const (
	diffRunsPerDataset = 2
	diffQueriesPerRun  = 8
	diffRunEdges       = 120
	diffMinCases       = 0
)

// Enumeration bounds (TestEnumeratedCells): every query of at most
// enumLeaves[spec] leaf symbols, every run of at most enumNodes nodes.
const enumNodes = 12

var enumLeaves = map[string]int{"paper": 2, "fork": 2, "multicycle": 2, "branchy": 2}
