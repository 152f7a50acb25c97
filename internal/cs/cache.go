package cs

import (
	"sync"

	"repro/internal/mat"
)

// Sensing-matrix cache: Φ̃ = Φ(L,:) depends only on the basis matrix and
// the measurement locations, and several workloads decode repeatedly with
// the same pair — ChooseKCrossValOp sweeps K over one gather, CHS-then-GLS
// refits one support, A6-style adaptive loops re-decode a window. Keyed by
// the basis identity (bases are themselves memoized in internal/basis, so
// pointer identity is stable) plus an FNV hash of the locations; the stored
// locations are compared on every hit so a hash collision can never return
// the wrong matrix.
//
// Cached sensing matrices are SHARED and read-only, like the bases.

const sensingCacheCap = 64

type sensingKey struct {
	phi  *mat.Matrix
	hash uint64
	m    int
}

type sensingEntry struct {
	locs []int
	a    *mat.Matrix
}

var (
	sensingMu    sync.RWMutex
	sensingCache = make(map[sensingKey]*sensingEntry)
)

func hashLocs(locs []int) uint64 {
	// FNV-1a over the location indices.
	h := uint64(14695981039346656037)
	for _, l := range locs {
		h ^= uint64(l)
		h *= 1099511628211
	}
	return h
}

func sameLocs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// sensingMatrix returns Φ̃ = Φ(L, :), the M×N matrix of basis rows at the
// sensor locations (paper Eq. 7 before column selection), memoized per
// (Φ, L). The returned matrix is shared: callers must not mutate it.
func sensingMatrix(phi *mat.Matrix, locs []int) (*mat.Matrix, error) {
	if len(locs) == 0 {
		return nil, ErrNoMeasurements
	}
	key := sensingKey{phi: phi, hash: hashLocs(locs), m: len(locs)}
	sensingMu.RLock()
	e, ok := sensingCache[key]
	sensingMu.RUnlock()
	if ok && sameLocs(e.locs, locs) {
		return e.a, nil
	}
	a, err := mat.SelectRows(phi, locs)
	if err != nil {
		return nil, err
	}
	sensingMu.Lock()
	if len(sensingCache) >= sensingCacheCap {
		for old := range sensingCache {
			delete(sensingCache, old)
			break
		}
	}
	sensingCache[key] = &sensingEntry{locs: append([]int(nil), locs...), a: a}
	sensingMu.Unlock()
	return a, nil
}

// ResetSensingCache drops all memoized sensing matrices and the pooled
// decode workspaces, so the next decode starts cold.
func ResetSensingCache() {
	sensingMu.Lock()
	sensingCache = make(map[sensingKey]*sensingEntry)
	sensingMu.Unlock()
	resetWorkspaces()
}
