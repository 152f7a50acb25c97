// Package nondet is sdlint golden-test input for the nondeterminism
// analyzer. Each "want" comment pins an expected diagnostic.
package nondet

import (
	"math/rand"
	"sort"
	"time"
)

// Global math/rand draws from process-global state: banned.
func globalRand() int {
	n := rand.Intn(10)                 // want `global rand\.Intn in deterministic package`
	f := rand.Float64()                // want `global rand\.Float64 in deterministic package`
	p := rand.Perm(4)                  // want `global rand\.Perm in deterministic package`
	rand.Shuffle(4, func(i, j int) {}) // want `global rand\.Shuffle in deterministic package`
	return n + int(f) + p[0]
}

// The explicitly seeded form is the allowed one.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10) + r.Perm(4)[0]
}

// Wall-clock reads are banned.
func wallClock() float64 {
	t := time.Now()              // want `wall-clock time\.Now in deterministic package`
	d := time.Since(t)           // want `wall-clock time\.Since in deterministic package`
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep in deterministic package`
	return d.Seconds()
}

// Pure duration arithmetic and explicit instants are fine.
func durations() time.Duration {
	base := time.Unix(0, 0)
	return base.Add(3 * time.Second).Sub(base)
}

// Appending to an outer slice while ranging a map leaks iteration order.
func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside map range`
	}
	return out
}

// The canonical collect-then-sort idiom is order-independent.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Commutative aggregation over a map is order-independent.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Sends observe iteration order on the receiving side.
func sendKeys(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside map range`
	}
}

// Appending to a slice declared inside the loop body is fine: its
// contents never outlive one iteration.
func innerAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// suppressed pins the audited-ignore path.
func suppressed() int64 {
	//lint:ignore nondeterminism golden-test fixture: demonstrates audited suppression
	return time.Now().UnixNano()
}
