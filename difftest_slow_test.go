//go:build slow

package provrpq

// Differential-harness tier for `go test -tags slow`: larger runs, enough
// run×query cases to enforce the acceptance floor.
const (
	diffRunsPerDataset = 4
	diffQueriesPerRun  = 18
	diffRunEdges       = 250
	diffMinCases       = 200
)

// Enumeration bounds (TestEnumeratedCells): every query of at most
// enumLeaves[spec] leaf symbols, every run of at most enumNodes nodes.
const enumNodes = 20

var enumLeaves = map[string]int{"paper": 2, "fork": 3, "multicycle": 2, "branchy": 3}
