// Package parallel provides the bounded worker pool that work spanning
// several runs fans out over — store boot decoding runs, a catalog batch
// evaluating (run, query) pairs: contiguous index chunks, one goroutine
// each. A single scan never shards; it runs on its caller's goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a configured worker count: n > 0 is taken as-is, any
// other value means "one worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Chunks splits the index range [0, n) into at most max contiguous [lo, hi)
// ranges of near-equal size (the first n%max chunks are one element larger).
// It returns nil when n == 0.
func Chunks(n, max int) [][2]int {
	if n <= 0 || max <= 0 {
		return nil
	}
	k := max
	if n < k {
		k = n
	}
	out := make([][2]int, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for s := 0; s < k; s++ {
		hi := lo + size
		if s < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// Do splits [0, n) into at most workers chunks and runs fn(shard, lo, hi)
// for each chunk on its own goroutine, waiting for all of them. With one
// chunk it runs fn inline. fn must not touch another shard's state.
func Do(n, workers int, fn func(shard, lo, hi int)) {
	chunks := Chunks(n, Workers(workers))
	if len(chunks) == 0 {
		return
	}
	if len(chunks) == 1 {
		fn(0, chunks[0][0], chunks[0][1])
		return
	}
	var wg sync.WaitGroup
	for s, c := range chunks {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, c[0], c[1])
	}
	wg.Wait()
}
