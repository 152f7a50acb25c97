package cs

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/basis"
)

// greedyDecode is one decode of the greedy loop: CHSOp with opts, or with
// omp set OMPOp, whose options ompOpts builds.
type greedyDecode struct {
	name string
	op   basis.Operator
	locs []int
	y    []float64
	opts CHSOptions
	omp  bool
}

// ompOpts are the loop options of OMPOp at sparsity k and tolerance tol.
func ompOpts(k int, tol float64) CHSOptions {
	return CHSOptions{MaxIter: k, MaxSupport: k, PerIter: 1, Tol: tol}
}

// pooled runs dc through its public decoder, on a pooled workspace.
func (dc greedyDecode) pooled() (*Result, error) {
	if dc.omp {
		return OMPOp(dc.op, dc.locs, dc.y, dc.opts.MaxSupport, dc.opts.Tol)
	}
	return CHSOp(dc.op, dc.locs, dc.y, dc.opts)
}

// decodeIn runs dc with its scratch in ws, as CHSOp and OMPOp do with a
// pooled workspace.
func decodeIn(t *testing.T, ws *workspace, dc greedyDecode) *Result {
	t.Helper()
	if err := ws.od.reset(dc.op, dc.locs); err != nil {
		t.Fatal(err)
	}
	res, err := chsDict(&ws.od, ws, dc.y, dc.opts, dc.omp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// zoneDecodes are the CHS and OMP decodes of zone case c at seed. OMP's
// sparsity is CHS's default iteration budget, 32, or the zone's K if
// smaller.
func zoneDecodes(t *testing.T, c zoneCase, seed int64) (chs, omp greedyDecode) {
	op, locs, y, sigmas := zoneProblem(t, c, seed)
	chs = greedyDecode{"CHS/" + c.name, op, locs, y, c.opts(sigmas), false}
	omp = greedyDecode{"OMP/" + c.name, op, locs, y, ompOpts(min(c.k, 32), NoiseTol(sigmas)), true}
	return chs, omp
}

// cloneResult deep-copies a Result, so a later decode that wrote into
// memory the Result shares would show up as a difference.
func cloneResult(r *Result) *Result {
	return &Result{
		Alpha:   append([]float64(nil), r.Alpha...),
		Support: append([]int(nil), r.Support...),
		Xhat:    append([]float64(nil), r.Xhat...),

		Residual: r.Residual, Iterations: r.Iterations,
	}
}

// sameResult reports the first field in which two results differ in any
// bit, or "" when they are identical.
func sameResult(got, want *Result) string {
	bits := func(name string, g, w []float64) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s length %d, want %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
		return ""
	}
	if len(got.Support) != len(want.Support) {
		return fmt.Sprintf("support size %d, want %d", len(got.Support), len(want.Support))
	}
	for i, j := range want.Support {
		if got.Support[i] != j {
			return fmt.Sprintf("support[%d] = %d, want %d", i, got.Support[i], j)
		}
	}
	if d := bits("alpha", got.Alpha, want.Alpha); d != "" {
		return d
	}
	if d := bits("xhat", got.Xhat, want.Xhat); d != "" {
		return d
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		return fmt.Sprintf("residual %v, want %v", got.Residual, want.Residual)
	}
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	return ""
}

// TestWorkspaceReuseBitIdentical decodes zone A, then a larger zone B,
// then A again in one workspace, so the second A decode runs on buffers
// and factors sized for B and holding B's values; CHS and OMP decodes
// alternate, so each also runs on scratch the other loop left. Every
// decode must equal the same decode in a fresh workspace, bit for bit,
// and a decode must leave the Results of earlier decodes in the workspace
// untouched. The same holds for warm starts whose seed is refused, which
// empty the factors mid-decode (coldRestart), and through the pool via
// CHSOp and OMPOp.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	var decodes []greedyDecode
	for i, c := range []zoneCase{zoneCases[2], zoneCases[1], zoneCases[2], zoneCases[0]} {
		chs, omp := zoneDecodes(t, c, 3)
		if i%2 == 0 {
			decodes = append(decodes, chs, omp)
		} else {
			decodes = append(decodes, omp, chs)
		}
	}
	// Seeded decodes of zone A: a seed whose residual check fails starts
	// over cold in the reused factors.
	a := decodes[0]
	fresh := decodeIn(t, new(workspace), a)
	refused, kept := a, a
	refused.name, refused.opts.SeedSupport, refused.opts.SeedRelTol = a.name+"/seed-refused", fresh.Support[:3], 1e-12
	kept.name, kept.opts.SeedSupport = a.name+"/seed-kept", fresh.Support
	decodes = append(decodes, refused, decodes[1], kept)

	ws := new(workspace)
	var earlier, earlierCopies []*Result
	for i, dc := range decodes {
		want := decodeIn(t, new(workspace), dc)
		got := decodeIn(t, ws, dc)
		if d := sameResult(got, want); d != "" {
			t.Fatalf("decode %d (%s) in a reused workspace: %s", i, dc.name, d)
		}
		pooled, err := dc.pooled()
		if err != nil {
			t.Fatal(err)
		}
		if d := sameResult(pooled, want); d != "" {
			t.Fatalf("decode %d (%s) through the pool: %s", i, dc.name, d)
		}
		earlier = append(earlier, got, pooled)
		earlierCopies = append(earlierCopies, cloneResult(got), cloneResult(pooled))
		for k, r := range earlier {
			if d := sameResult(r, earlierCopies[k]); d != "" {
				t.Fatalf("after decode %d (%s), an earlier Result changed: %s", i, dc.name, d)
			}
		}
	}
	if fresh.Iterations == 0 || len(fresh.Support) < 4 {
		t.Fatalf("zone A decoded to support %v; the seeded cases are vacuous", fresh.Support)
	}
}

// TestWorkspacePoolConcurrentDecodes: eight goroutines decode distinct
// zones through the workspace pool at once, as the fleet's parallel zone
// decodes do, each alternating CHS and OMP decodes of its zone, and each
// result equals its fresh-workspace decode bit for bit. Run under -race it
// also checks that no workspace is shared by two decodes.
func TestWorkspacePoolConcurrentDecodes(t *testing.T) {
	const workers = 8
	type job struct {
		decodes [2]greedyDecode
		want    [2]*Result
	}
	jobs := make([]job, workers)
	for g := range jobs {
		chs, omp := zoneDecodes(t, zoneCases[g%len(zoneCases)], int64(100+g))
		jobs[g].decodes = [2]greedyDecode{chs, omp}
		for i, dc := range jobs[g].decodes {
			jobs[g].want[i] = decodeIn(t, new(workspace), dc)
		}
	}
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				dc := j.decodes[rep%2]
				got, err := dc.pooled()
				if err != nil {
					t.Error(err)
					return
				}
				if d := sameResult(got, j.want[rep%2]); d != "" {
					t.Errorf("concurrent decode %s: %s", dc.name, d)
					return
				}
			}
		}(jobs[g])
	}
	wg.Wait()
}

// TestCHSSteadyStateAllocatesOnlyResult: at the fleet's zone shape (64×64
// DCT, 1024 sensors, support 64), a warm CHSOp allocates the Result and
// its Alpha, Support and Xhat, nothing else, with Sigmas or without: the
// GLS refit's divisors, whitened readings, scratch column and solved
// coefficients are workspace scratch too.
func TestCHSSteadyStateAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; alloc counts are meaningless")
	}
	// A collection empties the pool; keep the collector out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := zoneCases[1]
	op, locs, y, sigmas := zoneProblem(t, c, 9)
	const resultAllocs = 4 // *Result, Alpha, Support, Xhat
	for _, row := range []struct {
		name   string
		sigmas []float64
		want   float64
	}{
		{"OLS", nil, resultAllocs},
		{"GLS", sigmas, resultAllocs},
	} {
		opts := c.opts(sigmas)
		opts.Sigmas = row.sigmas
		var support int
		decode := func() {
			res, err := CHSOp(op, locs, y, opts)
			if err != nil {
				t.Fatal(err)
			}
			support = len(res.Support)
		}
		decode()
		if allocs := testing.AllocsPerRun(20, decode); allocs != row.want {
			t.Errorf("%s: %.1f allocs per warm decode of support %d, want %v", row.name, allocs, support, row.want)
		}
	}
}

// TestResetSensingCacheDropsWorkspaces: after ResetSensingCache the next
// decode's workspace is a new one, with no storage sized by earlier
// decodes, so a benchmark's set-up after the reset measures a cold start.
func TestResetSensingCacheDropsWorkspaces(t *testing.T) {
	chs, _ := zoneDecodes(t, zoneCases[1], 4)
	ws := getWorkspace()
	decodeIn(t, ws, chs)
	putWorkspace(ws)

	ResetSensingCache()
	next := getWorkspace()
	defer putWorkspace(next)
	if next == ws || cap(next.alphaR) != 0 || cap(next.od.full) != 0 || next.qr.Len() != 0 {
		t.Fatal("a workspace pooled before ResetSensingCache was handed out after it")
	}
}
