package experiments

// Bounded fan-out for the embarrassingly parallel trial loops. The contract
// that makes parallel tables byte-identical to serial ones has two parts:
//
//  1. every trial derives its own RNG from (seed, sweep-point, trial) via
//     subSeed, so no trial reads another trial's stream, and
//  2. workers only write to per-index slots; all floating-point reduction
//     (sums, medians) happens after the pool drains, in index order.
//
// Under that contract the schedule cannot influence any result, so the
// golden determinism tests compare GOMAXPROCS=1 against GOMAXPROCS=N runs
// for exact equality.

import (
	"math/rand"

	"repro/internal/par"
)

// mix64 is the splitmix64 finalizer; it decorrelates adjacent seeds.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// subSeed derives a deterministic child seed from a base seed and a path of
// indices (sweep point, trial, ...).
func subSeed(seed int64, path ...int64) int64 {
	h := mix64(uint64(seed))
	for _, p := range path {
		h = mix64(h ^ uint64(p))
	}
	return int64(h >> 1) // non-negative, the convention for rand seeds here
}

// forEach runs fn(i) for i in [0, n) on the par pool. Errors land in
// per-index slots and the lowest-index one is returned, so the reported
// error does not depend on scheduling either.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, max(n, 0))
	par.ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachTrial is forEach where every trial gets its own deterministic RNG
// seeded by subSeed(seed, trial).
func forEachTrial(trials int, seed int64, fn func(trial int, rng *rand.Rand) error) error {
	return forEach(trials, func(t int) error {
		return fn(t, rand.New(rand.NewSource(subSeed(seed, int64(t)))))
	})
}
