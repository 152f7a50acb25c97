// Package mutexguard is sdlint golden-test input for the mutexguard
// analyzer.
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
	//lint:ignore mutexguard golden-test fixture: demonstrates audited suppression
	return len(b.cache)
}
