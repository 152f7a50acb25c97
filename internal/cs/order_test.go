package cs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCHSGatherOrderRelation pins the gather-order relation: the order in
// which a gather's readings arrive says nothing about the field, so
// permuting them (location, value and σ together) must leave CHS's
// support, in admission order, and its iteration count unchanged, with
// x̂ and the residual within 1e-12 relative. The tolerance is recomputed
// from the permuted σ, as a broker decoding the permuted gather would.
// It runs on the three bench zone shapes at seeds 1–20, and every seed
// is checked and logged, so a violation names each seed it shows on.
func TestCHSGatherOrderRelation(t *testing.T) {
	for _, c := range zoneCases {
		for seed := int64(1); seed <= 20; seed++ {
			op, locs, y, sigmas := zoneProblem(t, c, seed)
			base, err := CHSOp(op, locs, y, c.opts(sigmas))
			if err != nil {
				t.Fatal(err)
			}
			perm := rand.New(rand.NewSource(seed)).Perm(len(locs))
			pl, py, ps := make([]int, len(perm)), make([]float64, len(perm)), make([]float64, len(perm))
			for i, p := range perm {
				pl[i], py[i], ps[i] = locs[p], y[p], sigmas[p]
			}
			got, err := CHSOp(op, pl, py, c.opts(ps))
			if err != nil {
				t.Fatal(err)
			}

			xhatDev, scale := 0.0, 0.0
			for i, v := range base.Xhat {
				scale = math.Max(scale, math.Abs(v))
				xhatDev = math.Max(xhatDev, math.Abs(got.Xhat[i]-v))
			}
			xhatDev /= scale
			resDev := math.Abs(got.Residual-base.Residual) / base.Residual
			t.Logf("%s seed %d: %d atoms in %d iterations, x̂ %.2g and residual %.2g relative apart",
				c.name, seed, len(base.Support), base.Iterations, xhatDev, resDev)
			switch {
			case !slices.Equal(got.Support, base.Support):
				t.Errorf("%s seed %d: permuted support %v, want %v", c.name, seed, got.Support, base.Support)
			case got.Iterations != base.Iterations:
				t.Errorf("%s seed %d: permuted decode took %d iterations, want %d", c.name, seed, got.Iterations, base.Iterations)
			case xhatDev > 1e-12 || resDev > 1e-12:
				t.Errorf("%s seed %d: x̂ %.3g and residual %.3g relative apart, want within 1e-12", c.name, seed, xhatDev, resDev)
			}
		}
	}
}
