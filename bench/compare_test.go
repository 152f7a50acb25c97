package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100.5, 99.5}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDecl
		want string
	}{
		{"same runs", base, base, lower, verdictOK},
		{"worse inside the bound", base, []float64{105, 106, 104, 105.5, 104.5}, lower, verdictOK},
		{"worse beyond the bound", base, []float64{115, 116, 114, 115.5, 114.5}, lower, verdictRegressed},
		{"every run better", base, []float64{90, 91, 89, 90.5, 89.5}, lower, verdictImproved},
		{"lower throughput is worse", base, []float64{85, 86, 84, 85.5, 84.5}, higher, verdictRegressed},
		{"higher throughput is better", base, []float64{115, 116, 114, 115.5, 114.5}, higher, verdictImproved},
		{"spread wider than the bound, runs overlap",
			[]float64{100, 130, 80, 120, 90}, []float64{125, 95, 140, 85, 118}, lower, verdictUnresolved},
		{"spread wider than the bound, yet every run better",
			[]float64{100, 130, 80, 120, 90}, []float64{40, 50, 45, 48, 42}, lower, verdictImproved},
		{"one run a side cannot claim a gain", []float64{100}, []float64{90}, lower, verdictOK},
		{"one run a side can show a loss", []float64{100}, []float64{120}, lower, verdictRegressed},
	} {
		if got := judge(c.a, c.b, c.d, false); got.verdict != c.want {
			t.Errorf("%s: verdict %q (delta %+.3f), want %q", c.name, got.verdict, got.delta, c.want)
		}
	}
}

func TestJudgePairsNineTenthsRule(t *testing.T) {
	d := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wins9 := []float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 100.5} // loses the last pair only
	if got := judge(a, wins9, d, true); got.verdict != verdictImproved {
		t.Errorf("nine wins of ten: verdict %q, want improved", got.verdict)
	}
	wins8 := []float64{95, 96, 94, 95, 97, 93, 95, 96, 99.5, 100.5}
	if got := judge(a, wins8, d, true); got.verdict != verdictOK {
		t.Errorf("eight wins of ten: verdict %q, want ok", got.verdict)
	}
	// Nine wins, but by less than the distance between A's quartiles.
	hair := make([]float64, len(a))
	for i := range a {
		hair[i] = a[i] - 0.1
	}
	hair[9] = a[9] + 0.1
	if got := judge(a, hair, d, true); got.verdict != verdictOK {
		t.Errorf("wins inside A's own spread: verdict %q, want ok", got.verdict)
	}
}
