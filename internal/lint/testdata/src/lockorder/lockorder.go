// Package lockorder is golden input for the lock-order analyzer: AB/BA
// cycles, direct and interprocedural self-deadlocks, and the patterns
// that must stay silent (consistent ordering, conditional locking merged
// by intersection, go-spawned callees, suppression).
package lockorder

import "sync"

var muA, muB, muC sync.Mutex

var rw sync.RWMutex

// lockAB and lockBA acquire the package mutexes in opposite orders: both
// closing acquisitions are cycle findings.
func lockAB() {
	muA.Lock()
	muB.Lock() // want `lock-order cycle`
	muB.Unlock()
	muA.Unlock()
}

func lockBA() {
	muB.Lock()
	muA.Lock() // want `lock-order cycle`
	muA.Unlock()
	muB.Unlock()
}

// consistent ordering with a third lock: an edge, but no cycle.
func lockAC() {
	muA.Lock()
	defer muA.Unlock()
	muC.Lock()
	defer muC.Unlock()
}

// relock is the direct self-deadlock.
func relock() {
	muC.Lock()
	muC.Lock() // want `self-deadlock`
	muC.Unlock()
	muC.Unlock()
}

// relockSuppressed pins the suppression geometry for this analyzer.
func relockSuppressed() {
	muC.Lock()
	//lint:ignore locks golden-test fixture: demonstrates audited suppression
	muC.Lock()
	muC.Unlock()
	muC.Unlock()
}

// rlockTwice is the read-read case: exempt (only deadlocks under writer
// starvation; reporting it would drown the signal).
func rlockTwice() {
	rw.RLock()
	rw.RLock()
	rw.RUnlock()
	rw.RUnlock()
}

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// reenter calls a method that re-acquires the lock the caller holds.
func (b *box) reenter() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bump() // want `self-deadlock`
}

// spawn starts bump on its own goroutine: the spawnee shares no lock
// context with the spawner, so holding b.mu here is fine.
func (b *box) spawn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go b.bump()
}

// conditional locking: the lock is only held on one branch, so the merge
// drops it and the following call is not a self-deadlock.
func (b *box) maybeLock(cond bool) {
	if cond {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}
	b.bump()
}

// unlockThenCall releases before calling: no finding.
func (b *box) unlockThenCall() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.bump()
}

// The flow walker's edge cases. A labeled break or continue out of a
// select leaves the linear flow, so only the arm that falls through
// reaches the call, still holding b.mu.
func (b *box) selectLoop(ch chan int) {
	b.mu.Lock()
loop:
	for {
		select {
		case <-ch:
			break loop
		case v := <-ch:
			if v > 0 {
				continue loop
			}
			b.bump() // want `self-deadlock`
		}
	}
	b.mu.Unlock()
}

// gotoRetry jumps back after unlocking; the path that falls through the
// if still holds b.mu.
func (b *box) gotoRetry(n int) {
retry:
	b.mu.Lock()
	if n > 0 {
		n--
		b.mu.Unlock()
		goto retry
	}
	b.bump() // want `self-deadlock`
	b.mu.Unlock()
}

// switchNoDefault: a switch without default may run no case, so the
// entry state joins the merge and b.mu is still held after it.
func (b *box) switchNoDefault(k int) {
	b.mu.Lock()
	switch k {
	case 0:
		b.mu.Unlock()
		return
	case 1:
		b.n++
	}
	b.bump() // want `self-deadlock`
	b.mu.Unlock()
}

// selectNoDefault: a select without default runs one of its clauses, and
// both take b.mu.
func (b *box) selectNoDefault(x, y chan int) {
	select {
	case <-x:
		b.mu.Lock()
	case <-y:
		b.mu.Lock()
	}
	b.bump() // want `self-deadlock`
	b.mu.Unlock()
}
