package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

func TestChunksCoverRange(t *testing.T) {
	for n := 0; n <= 37; n++ {
		for max := 1; max <= 9; max++ {
			chunks := Chunks(n, max)
			if n == 0 {
				if chunks != nil {
					t.Fatalf("Chunks(0,%d) = %v, want nil", max, chunks)
				}
				continue
			}
			if len(chunks) > max {
				t.Fatalf("Chunks(%d,%d): %d chunks", n, max, len(chunks))
			}
			next := 0
			for _, c := range chunks {
				if c[0] != next || c[1] <= c[0] {
					t.Fatalf("Chunks(%d,%d) = %v: bad chunk %v", n, max, chunks, c)
				}
				next = c[1]
			}
			if next != n {
				t.Fatalf("Chunks(%d,%d) = %v: covers [0,%d)", n, max, chunks, next)
			}
		}
	}
}

func TestDoVisitsEveryIndex(t *testing.T) {
	const n = 1000
	var hits [n]int32
	Do(n, 7, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}
