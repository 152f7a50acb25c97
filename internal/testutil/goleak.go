// Package testutil holds small helpers shared by the project's tests.
package testutil

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// TB is the subset of testing.TB the helpers need (kept tiny so the
// package does not import testing into non-test builds).
type TB interface {
	Helper()
	Name() string
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Watchdog fails the test binary if the test is still running after
// bound: it panics with every goroutine's stack, as go test's own
// -timeout does, so a deadlock costs bound rather than the ten-minute
// default. The test's Cleanup disarms it. State a bound well past the
// test's slowest legitimate run under -race on a loaded machine.
func Watchdog(t TB, bound time.Duration) {
	t.Helper()
	name := t.Name()
	timer := time.AfterFunc(bound, func() {
		debug.SetTraceback("all")
		panic(fmt.Sprintf("testutil.Watchdog: %s still running after %v", name, bound))
	})
	t.Cleanup(func() { timer.Stop() })
}

// CheckGoroutines registers a test cleanup that fails the test if
// goroutines spawned during it are still alive at the end. Call it first
// thing in the test; the snapshot it takes becomes the baseline.
//
// Goroutines owned by the runtime and the testing framework are filtered
// out by stack inspection. Because teardown is asynchronous (a Close may
// return a moment before its goroutines finish dying), the check retries
// briefly before declaring a leak.
func CheckGoroutines(t TB) {
	t.Helper()
	before := goroutineCount()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var after int
		for {
			after = goroutineCount()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after; stacks:\n%s", before, after, buf[:n])
		}
	})
}

// goroutineCount counts live goroutines that belong to the code under
// test: runtime/testing bookkeeping goroutines are excluded so the count
// is stable across `go test` plumbing.
func goroutineCount() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if stack == "" || ignoredStack(stack) {
			continue
		}
		count++
	}
	return count
}

func ignoredStack(stack string) bool {
	for _, marker := range []string{
		"testing.(*T).Run(",           // test framework bookkeeping
		"testing.(*M).",               // test main
		"testing.runFuzz",             // fuzz workers
		"runtime.goexit0",             // dying goroutine mid-teardown
		"created by runtime.",         // GC, scavenger, finalizer spawns
		"runtime.gc",                  // GC helpers
		"runtime.bgsweep",             // background sweeper
		"runtime.bgscavenge",          // background scavenger
		"runtime.forcegchelper",       // forced-GC helper
		"runtime.ReadTrace",           // trace reader
		"signal.signal_recv",          // os/signal receiver
		"runtime.ensureSigM",          // signal mask goroutine
		"os/signal.loop",              // signal loop
		"testing.tRunner.func",        // per-test cleanup wrapper
		"runtime/pprof.profileWriter", // profiler
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
