// Package mutexguard is sdlint golden-test input for the locks
// analyzer's unlocked-access rule: a guarded field touched in a method of
// its type must have its guard held, in any mode, at that access.
package mutexguard

import "sync"

type counterBox struct {
	mu    sync.Mutex
	n     int // guarded by mu
	free  int
	total int // guarded by mu
}

// Locking before the access satisfies the contract.
func (b *counterBox) Good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n + b.total
}

// Accessing a guarded field without the lock is the bug class.
func (b *counterBox) Bad() int {
	return b.n // want `counterBox\.n is guarded by mu, but method Bad does not lock it`
}

// Writes count as accesses too.
func (b *counterBox) BadWrite(v int) {
	b.total = v // want `counterBox\.total is guarded by mu, but method BadWrite does not lock it`
}

// The rule is flow-ordered: a lock taken after the access does not
// cover it, and neither does one released before it.
func (b *counterBox) LateLock() int {
	v := b.n // want `counterBox\.n is guarded by mu, but method LateLock does not lock it`
	b.mu.Lock()
	defer b.mu.Unlock()
	return v + b.total
}

func (b *counterBox) EarlyUnlock() int {
	b.mu.Lock()
	b.mu.Unlock()
	return b.n // want `counterBox\.n is guarded by mu, but method EarlyUnlock does not lock it`
}

// add is only ever called with mu held: the entry fixpoint carries the
// lock across the call, no Locked suffix needed.
func (b *counterBox) add(v int) { b.total += v }

func (b *counterBox) Add(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.add(v)
}

// A closure inside a method is checked like the method: one called under
// the lock is covered, one that escapes (a callback, no call edge) starts
// with nothing held.
func (b *counterBox) Visit(each func(func() int)) {
	b.mu.Lock()
	read := func() int { return b.n }
	_ = read()
	b.mu.Unlock()
	each(func() int { return b.n }) // want `counterBox\.n is guarded by mu, but method Visit does not lock it`
}

// Unguarded fields carry no obligation.
func (b *counterBox) Free() int { return b.free }

// The Locked suffix is the documented caller-holds-the-lock convention.
func (b *counterBox) totalLocked() int { return b.n + b.total }

type rwBox struct {
	mu sync.RWMutex
	// cache holds recent lookups; guarded by mu.
	cache map[string]int
}

// RLock satisfies the contract for readers.
func (b *rwBox) Read(k string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.cache[k]
}

func (b *rwBox) Peek(k string) int {
	return b.cache[k] // want `rwBox\.cache is guarded by mu, but method Peek does not lock it`
}

// Naming a non-mutex (or missing) sibling is itself a finding.
type brokenAnnotation struct {
	// guarded by missing
	state int // want `guarded-by comment names "missing", which is not a sync\.Mutex/RWMutex field`
}

// Audited reads bypass the lock; the suppression path is pinned here.
func (b *rwBox) Size() int {
	//lint:ignore locks golden-test fixture: demonstrates audited suppression
	return len(b.cache)
}

type anyBox struct {
	mu sync.Mutex
	v  any // guarded by mu
}

// A type switch's guard is an access like any other.
func (b *anyBox) Kind() string {
	switch b.v.(type) { // want `anyBox\.v is guarded by mu, but method Kind does not lock it`
	case int:
		return "int"
	}
	return "other"
}
