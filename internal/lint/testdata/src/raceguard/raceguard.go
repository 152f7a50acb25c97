// Package raceguard is golden input for the goroutine rules of the locks
// analyzer: goroutine-reachable writes to "guarded by" fields without the guard,
// the entry-held fixpoint that keeps always-called-locked helpers clean,
// the read-lock-only write, mixed atomic/plain field access, and the
// patterns that must stay silent (locked writes, reads, Locked-suffix
// convention, typed atomics, suppression).
package raceguard

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu

	rw sync.RWMutex
	m  int // guarded by rw
}

// bump writes under the lock and is spawned on a goroutine: clean.
func (c *counter) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// flush is reachable from a go statement and writes without the guard.
func (c *counter) flush() {
	c.n = 0 // want `guarded by mu but written without holding it`
}

// readOnly reads without the lock in a method of the guarded type: the
// unlocked-access rule flags it whether or not a goroutine runs it.
func (c *counter) readOnly() int {
	return c.n // want `counter\.n is guarded by mu, but method readOnly does not lock it`
}

// applyLocked carries the caller-holds-the-lock naming convention: the
// audit burden is on its callers, not on this body.
func (c *counter) applyLocked() {
	c.n++
}

// helper is only ever called with mu held: the entry fixpoint proves the
// lock across the call edge, no rename needed.
func (c *counter) helper() {
	c.n = 42
}

// run is a goroutine body; its locked call chain stays clean.
func (c *counter) run() {
	c.mu.Lock()
	c.helper()
	c.mu.Unlock()
	c.applyLocked()
}

// rflush writes while holding only the read lock: readers may run
// concurrently, so this is still a race.
func (c *counter) rflush() {
	c.rw.RLock()
	c.m = 1 // want `holding only the read lock`
	c.rw.RUnlock()
}

// suppressed pins the audited-ignore path.
func (c *counter) suppressed() {
	//lint:ignore locks golden-test fixture: demonstrates audited suppression
	c.n = 7
}

// aliasWrite writes through a single-assignment alias: type-level field
// identity sees the guarded field regardless of the variable name.
func aliasWrite(c *counter) {
	d := c
	d.n = 9 // want `guarded by mu but written without holding it`
}

func spawnAll(c *counter) {
	go c.bump()
	go c.flush()
	go c.readOnly()
	go c.run()
	go c.rflush()
	go c.suppressed()
	go aliasWrite(c)
	go c.selectLoop(nil)
	go c.gotoRetry(1)
	go c.switchNoDefault(0)
	go c.selectNoDefault(nil, nil)
}

// The flow walker's edge cases, on goroutine-reachable writers. A
// labeled break or continue out of a select leaves the linear flow; the
// continue arm writes before it leaves, without the lock.
func (c *counter) selectLoop(ch chan int) {
loop:
	for {
		select {
		case v := <-ch:
			if v < 0 {
				break loop
			}
			c.mu.Lock()
			c.n = v
			c.mu.Unlock()
		case <-ch:
			c.n = 0 // want `guarded by mu but written without holding it`
			continue loop
		}
	}
}

// gotoRetry jumps back after unlocking: the write that falls through the
// if holds mu, the one after the unlock does not.
func (c *counter) gotoRetry(k int) {
retry:
	c.mu.Lock()
	if k > 0 {
		k--
		c.mu.Unlock()
		goto retry
	}
	c.n = k
	c.mu.Unlock()
	c.n = 1 // want `guarded by mu but written without holding it`
}

// switchNoDefault: a switch without default may run no case, so neither
// case's lock is proven at the write.
func (c *counter) switchNoDefault(k int) {
	switch k {
	case 0:
		c.mu.Lock()
	case 1:
		c.mu.Lock()
	}
	c.n = k // want `guarded by mu but written without holding it`
	c.mu.Unlock()
}

// selectNoDefault: a select without default runs one of its clauses, and
// both lock, so the write is guarded.
func (c *counter) selectNoDefault(x, y chan int) {
	select {
	case <-x:
		c.mu.Lock()
	case <-y:
		c.mu.Lock()
	}
	c.n = 2
	c.mu.Unlock()
}

// notSpawned writes without the lock, but it is a plain function that no
// go statement reaches: neither access rule applies.
func notSpawned(c *counter) {
	c.n = 3
}

// published uses a typed atomic pointer: the only access path is the
// atomic method set, so the snapshot/serve fast-path shape passes with
// no annotation at all.
type published struct {
	cur atomic.Pointer[counter]
}

func (p *published) swap(c *counter) {
	p.cur.Store(c)
}

func (p *published) watch() {
	go p.swap(nil)
}

// mixed touches the same field through sync/atomic in one place and
// plainly in others: there is no consistent synchronization story, and
// every plain access is a finding.
type mixed struct {
	hits int64
}

func (m *mixed) inc() {
	atomic.AddInt64(&m.hits, 1)
}

func (m *mixed) reset() {
	m.hits = 0 // want `mixed atomic/non-atomic`
}

func (m *mixed) read() int64 {
	return m.hits // want `mixed atomic/non-atomic`
}
