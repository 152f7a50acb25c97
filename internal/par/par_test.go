package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, at any worker count, including the
// degenerate sizes.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			ForEach(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, h)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// With one worker the calls run in index order on the caller's goroutine.
func TestForEachSerialIsInOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var got []int
	ForEach(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d calls, want 5", len(got))
	}
}
