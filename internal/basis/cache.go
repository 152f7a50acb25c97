package basis

import (
	"sync"

	"repro/internal/obs"
)

// The decode fast path asks for the same deterministic bases over and over
// — every zone reconstruction in a campaign needs its 2-D DCT, every
// Fig-4-style sweep the N-point DFT — each a trigonometric table (or, for
// the dense fallback, an O(N²) matrix) to build. Since a basis is fully
// determined by (kind, size), its operator is memoized here, the dense
// fallback's MatrixOp included.
//
// Operators are immutable and safe for concurrent use, so sharing them is
// free. Learned (PCA) bases depend on trace data, not just (kind, n), so
// they are never cached here.

const cacheCap = 64 // distinct (kind, size) entries; evicts arbitrarily past this

// Hoisted obs handles (sdlint obshot: no per-call registry lookups on the
// decode hot path). The size gauge tracks the live entry count so the
// bounded-growth contract (≤ cacheCap, arbitrary eviction past that — the
// cache is a memoizer, not an LRU) is observable in production.
var (
	obsCacheHits    = obs.GetCounter("basis.cache.hits")
	obsCacheMisses  = obs.GetCounter("basis.cache.misses")
	obsCacheEvicts  = obs.GetCounter("basis.cache.evictions")
	obsCacheOpsSize = obs.GetGauge("basis.cache.operators.size")
)

type cacheKey struct {
	kind Kind
	h, w int // w == 0 for 1-D bases
}

var (
	cacheMu sync.RWMutex
	opCache = make(map[cacheKey]Operator)
)

func opCacheGet(k cacheKey) (Operator, bool) {
	cacheMu.RLock()
	op, ok := opCache[k]
	cacheMu.RUnlock()
	if ok {
		obsCacheHits.Inc()
	} else {
		obsCacheMisses.Inc()
	}
	return op, ok
}

func opCachePut(k cacheKey, op Operator) {
	cacheMu.Lock()
	if len(opCache) >= cacheCap {
		for old := range opCache {
			delete(opCache, old)
			break
		}
		obsCacheEvicts.Inc()
	}
	opCache[k] = op
	obsCacheOpsSize.Set(float64(len(opCache)))
	cacheMu.Unlock()
}

// CachedOperator returns the shared matrix-free operator for (kind, n),
// constructing and memoizing it on first use. Two concurrent first calls
// may both construct; one wins the cache, both are valid.
func CachedOperator(kind Kind, n int) (Operator, error) {
	key := cacheKey{kind: kind, h: n}
	if op, ok := opCacheGet(key); ok {
		return op, nil
	}
	op, err := OperatorFor(kind, n)
	if err != nil {
		return nil, err
	}
	opCachePut(key, op)
	return op, nil
}

// CachedOperator2D returns the memoized Separable2D operator for an
// h-row × w-col field in the given basis family. This is the per-zone
// basis every broker reconstruction needs, memoized by (kind, h, w). The
// Kronecker product is never materialized: even when the 1-D factors fall
// back to dense matrices (non-dyadic sizes), applying them separably costs
// O(h·w·(h+w)) instead of the Kronecker matrix's O((h·w)²) flops and
// memory.
func CachedOperator2D(kind Kind, h, w int) (Operator, error) {
	key := cacheKey{kind: kind, h: h, w: w}
	if op, ok := opCacheGet(key); ok {
		return op, nil
	}
	rowOp, err := CachedOperator(kind, h)
	if err != nil {
		return nil, err
	}
	colOp, err := CachedOperator(kind, w)
	if err != nil {
		return nil, err
	}
	sep := NewSeparable2D(rowOp, colOp)
	opCachePut(key, sep)
	return sep, nil
}

// ResetCache drops all memoized operators (test isolation / memory
// pressure).
func ResetCache() {
	cacheMu.Lock()
	opCache = make(map[cacheKey]Operator)
	obsCacheOpsSize.Set(0)
	cacheMu.Unlock()
}
