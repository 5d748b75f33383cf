// Package lockorder exercises the lockorder analyzer: //provrpq:lockrank
// mutexes must be acquired in strictly increasing rank order (equal
// ranks never nest), never re-acquired, with held sets propagated over
// the call graph and locks(...)/excludes(...) summaries honored at
// interface boundaries.
package lockorder

import "sync"

// gate serializes process-wide boot, below everything else.
//
//provrpq:lockrank gateMu 5
var gate sync.Mutex

// Catalog mirrors the engine's layered locking.
type Catalog struct {
	//provrpq:lockrank catalogMu 10
	mu sync.Mutex

	//provrpq:lockrank storeMu 20
	storeMu sync.Mutex

	// left and right share a rank: they must never nest.
	//provrpq:lockrank leftMu 30
	left sync.Mutex
	//provrpq:lockrank rightMu 30
	right sync.Mutex

	// want `re-declared with rank 11`
	//provrpq:lockrank catalogMu 11
	dup sync.Mutex

	bad sync.Mutex //provrpq:lockrank nope // want `requires a lock name and an integer rank`

	shards []shard
}

type shard struct{ mu sync.Mutex }

// shardLock is a ranked getter, like the catalog's per-run growth locks.
//
//provrpq:lockrank shardMu 40
func (c *Catalog) shardLock(i int) *sync.Mutex { return &c.shards[i].mu }

// OK acquires in strictly increasing rank order.
func (c *Catalog) OK() {
	c.mu.Lock()
	c.storeMu.Lock()
	c.storeMu.Unlock()
	c.mu.Unlock()
}

// Inverted takes the inner lock first.
func (c *Catalog) Inverted() {
	c.storeMu.Lock()
	c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held: lock ranks must strictly increase`
	c.mu.Unlock()
	c.storeMu.Unlock()
}

// Reacquire deadlocks against itself.
func (c *Catalog) Reacquire() {
	c.mu.Lock()
	c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while it is already held: self-deadlock`
	c.mu.Unlock()
	c.mu.Unlock()
}

// EqualRanks nest two same-rank locks.
func (c *Catalog) EqualRanks() {
	c.left.Lock()
	c.right.Lock() // want `acquiring rightMu \(rank 30\) while leftMu \(rank 30\) is held: lock ranks must strictly increase`
	c.right.Unlock()
	c.left.Unlock()
}

// Flush holds storeMu across a call; the violation is only visible
// through the call edge into flushLocked.
func (c *Catalog) Flush() {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	c.flushLocked()
}

func (c *Catalog) flushLocked() {
	c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held \(held on entry from provlint\.test/lockorder\.Catalog\.Flush`
	c.mu.Unlock()
}

// ViaGetter binds a local to a ranked getter; 10 -> 40 is clean.
func (c *Catalog) ViaGetter(i int) {
	mu := c.shardLock(i)
	c.mu.Lock()
	mu.Lock()
	mu.Unlock()
	c.mu.Unlock()
}

// GetterInverted acquires below the getter's rank while holding it.
func (c *Catalog) GetterInverted(i int) {
	mu := c.shardLock(i)
	mu.Lock()
	c.storeMu.Lock() // want `acquiring storeMu \(rank 20\) while shardMu \(rank 40\) is held: lock ranks must strictly increase`
	c.storeMu.Unlock()
	mu.Unlock()
}

// BootUnderCatalog reaches for the package-level gate too late.
func (c *Catalog) BootUnderCatalog() {
	c.mu.Lock()
	gate.Lock() // want `acquiring gateMu \(rank 5\) while catalogMu \(rank 10\) is held: lock ranks must strictly increase`
	gate.Unlock()
	c.mu.Unlock()
}

// BranchRelease unlocks on the early-return path; after the branch the
// lock is still possibly held, but the final unlock clears it.
func (c *Catalog) BranchRelease(fast bool) {
	c.mu.Lock()
	if fast {
		c.mu.Unlock()
		return
	}
	c.storeMu.Lock()
	c.storeMu.Unlock()
	c.mu.Unlock()
}

// LoopCarried leaves storeMu held at the end of an iteration: the next
// one meets it across the back edge.
func (c *Catalog) LoopCarried(n int) {
	for i := 0; i < n; i++ {
		c.storeMu.Lock() // want `acquiring storeMu \(rank 20\) while it is already held: self-deadlock`
	}
}

// LoopUnderLock takes locks inside a range loop entered with storeMu held:
// the higher rank is clean on every iteration, the lower one is not.
func (c *Catalog) LoopUnderLock(keys []int) {
	c.storeMu.Lock()
	for range keys {
		c.left.Lock()
		c.left.Unlock()
		c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held: lock ranks must strictly increase`
		c.mu.Unlock()
	}
	c.storeMu.Unlock()
}

// SwitchArms enters a switch with storeMu held: one arm releases and
// returns, one inverts, one is clean. An arm that returns does not reach
// the join, so the lock is still held after the switch and the final
// unlock clears it.
func (c *Catalog) SwitchArms(k int) {
	c.storeMu.Lock()
	switch k {
	case 0:
		c.storeMu.Unlock()
		return
	case 1:
		c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held: lock ranks must strictly increase`
		c.mu.Unlock()
	default:
		c.left.Lock()
		c.left.Unlock()
	}
	c.storeMu.Unlock()
}

// SwitchLeavesHeld: a lock one arm leaves held is possibly held after the
// join.
func (c *Catalog) SwitchLeavesHeld(k int) {
	switch k {
	case 0:
		c.storeMu.Lock()
	}
	c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held: lock ranks must strictly increase`
	c.mu.Unlock()
	if k == 0 {
		c.storeMu.Unlock()
	}
}

// SelectArms waits on channels with storeMu held (deferred unlock): the
// receive arm inverts, the done arm just returns.
func (c *Catalog) SelectArms(in chan int, done chan struct{}) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	select {
	case <-done:
		return
	case <-in:
		c.mu.Lock() // want `acquiring catalogMu \(rank 10\) while storeMu \(rank 20\) is held: lock ranks must strictly increase`
		c.mu.Unlock()
	}
}

// SpawnResets: a spawned goroutine starts with an empty held set, so
// its low-rank acquisition under a held storeMu is clean.
func (c *Catalog) SpawnResets(done chan struct{}) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	go func() {
		c.mu.Lock()
		c.mu.Unlock()
		close(done)
	}()
}

// SuppressedInversion is a reviewed violation.
func (c *Catalog) SuppressedInversion() {
	c.storeMu.Lock()
	//provlint:ignore lockorder reviewed: boot path runs single-threaded
	c.mu.Lock()
	c.mu.Unlock()
	c.storeMu.Unlock()
}

// Sink is a boundary the call graph cannot see through: summaries
// declare what its implementations do with the ranked locks.
type Sink interface {
	// Flush acquires the store lock internally.
	//provrpq:locks(storeMu)
	Flush()
	// Snapshot must never run under the catalog lock.
	//provrpq:excludes(catalogMu)
	Snapshot()
}

// Drain calls a storeMu-locking boundary while already holding it.
func Drain(s Sink, c *Catalog) {
	c.storeMu.Lock()
	s.Flush() // want `calling provlint\.test/lockorder\.Sink\.Flush, which locks storeMu \(rank 20\), while it is already held: self-deadlock`
	c.storeMu.Unlock()
}

// DrainClean holds only the lower-ranked lock: 10 -> 20 is fine.
func DrainClean(s Sink, c *Catalog) {
	c.mu.Lock()
	s.Flush()
	c.mu.Unlock()
}

// Snap violates the boundary's excludes contract.
func Snap(s Sink, c *Catalog) {
	c.mu.Lock()
	s.Snapshot() // want `calling provlint\.test/lockorder\.Sink\.Snapshot while catalogMu is held, but the callee declares excludes\(catalogMu\)`
	c.mu.Unlock()
}

// Broken names a lock nothing declares.
type Broken interface {
	// want `names a lock with no //provrpq:lockrank declaration`
	//provrpq:locks(ghostMu)
	Run()
}
