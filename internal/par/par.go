// Package par is the module's one worker pool: a GOMAXPROCS-bounded loop
// in which call i writes only the slots that index i owns. The cloud's
// zone fan-out, the fleet's per-tick shard fan-out and the experiment
// trial loops all run on it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0), …, fn(n-1) on min(n, GOMAXPROCS) workers and returns
// once every call has. Workers claim indices from a shared counter, so the
// order calls start in is unspecified; when fn(i) writes only slots owned
// by i, the result is independent of worker count and interleaving — the
// mechanism behind the callers' GOMAXPROCS bit-identity guarantees. With
// one worker the calls run in index order on the calling goroutine.
func ForEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
