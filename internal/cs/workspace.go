package cs

import (
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// workspace is the scratch of one greedy decode: the incremental-QR
// factors, the step-(b) correlation, the sensor residual, one gathered
// column, the final coefficients, a GLS refit's divisors, OMP's column
// norms, the marks of a seed's duplicate check, and the matrix-free
// dictionary with its transform buffers. CHSOp and
// OMPOp take a workspace from a pool and return it when the decode ends,
// so a steady stream of zone decodes allocates little beyond each Result.
// A Result never points into a workspace: Alpha, Xhat and Support are
// allocated per decode, and the coefficients are copied out of coef into
// Alpha.
type workspace struct {
	pool *sync.Pool // the pool the workspace goes back to

	qr     mat.IncrementalQR
	od     opDict
	alphaR []float64 // length n
	resid  []float64 // length m
	col    []float64 // length m
	coef   []float64 // length |J|
	div    []float64 // length m, the GLS refit's divisors
	norms  []float64 // length n, OMP only
	seen   []bool    // length n, all false when handed out
}

// workspaces holds the current pool.
var workspaces atomic.Pointer[sync.Pool]

func init() { ResetSensingCache() }

// ResetSensingCache drops the pooled decode workspaces: it swaps in an
// empty pool, so the next decode starts from cold scratch. (The name dates
// from a memo of dense sensing matrices it used to drop as well.)
func ResetSensingCache() {
	workspaces.Store(&sync.Pool{New: func() any { return new(workspace) }})
}

// getWorkspace takes a workspace from the current pool.
func getWorkspace() *workspace {
	p := workspaces.Load()
	ws := p.Get().(*workspace)
	ws.pool = p
	return ws
}

// putWorkspace returns ws to the pool it came from, first dropping its
// references to the caller's operator and locations.
func putWorkspace(ws *workspace) {
	ws.od.op, ws.od.sep, ws.od.scat, ws.od.locs = nil, nil, nil, nil
	ws.pool.Put(ws)
}

// marks returns one mark per coefficient, all false.
func (ws *workspace) marks(n int) []bool {
	ws.seen = resized(ws.seen, n)
	clear(ws.seen)
	return ws.seen
}

// resized returns s with length n, reallocating only when its capacity is
// short. Reused elements keep whatever they held.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
