package reach

// The sample run and the BFS ground truth, for the external tests of
// allpairs_test.go: they walk with core, which imports reach.
var (
	PaperRun = paperRun
	BFSReach = bfsReach
)
