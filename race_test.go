//go:build race

package provrpq

// The race detector makes sync.Pool drop a share of what it is handed, so
// allocation counts are for the plain build.
func init() { raceEnabled = true }
