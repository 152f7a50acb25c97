package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// smokeConfig is a run shrunk until all five workloads fit in a unit
// test: one set-up, a tenth of a second of warm-up, 0.3 s measured.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		seed: 1, seconds: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
		setupReps: 1, outDir: t.TempDir(),
	}
}

func declared(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// checkEmitted asserts a run emitted the declared metrics and no others,
// each with a finite value and its declared unit.
func checkEmitted(t *testing.T, res runResult, decls []metricDecl) {
	t.Helper()
	got := make([]string, 0, len(res.Metrics))
	for name, v := range res.Metrics {
		got = append(got, name)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, name, v.Value)
		}
	}
	sort.Strings(got)
	if want := declared(decls); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s trace=%d emitted\n  %v\nBENCHMARK.json declares\n  %v", res.Workload, res.Trace, got, want)
	}
	for _, d := range decls {
		if res.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s: %s in %q, declared in %q", res.Workload, d.Name, res.Metrics[d.Name].Unit, d.Unit)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %v",
			res.Workload, res.Trace, res.Correct, res.Attempted, res.Failed, res.Errors)
	}
}

// TestSmokeEveryWorkload runs each workload's two passes. Each workload
// runs under a goroutine-leak check of its own, so the benchmark cannot
// hide a leak of the program's, nor leak its own clients.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every deployment; skipped in -short")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	measuredSomewhere := map[string]bool{}
	ran := 0
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			ran++
			cfg := smokeConfig(t)
			res, err := runUntraced(w, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, spec.EndToEnd)
			for _, d := range spec.EndToEnd {
				if res.Metrics[d.Name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.name, d.Name)
				}
			}
			res, err = runTraced(w, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, spec.PerLayer)
			for name := range res.measured {
				measuredSomewhere[name] = true
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
	// A ledger entry no workload measures would read zero for ever. The
	// tail percentile alone needs more ops than a smoke run has.
	measuredSomewhere["run.op_tail_pct"], measuredSomewhere["run.op_tail_ms"] = true, true
	for _, d := range spec.PerLayer {
		if ran == len(workloads) && !measuredSomewhere[d.Name] && !t.Failed() {
			t.Errorf("per-layer metric %s is declared and no workload measures it", d.Name)
		}
	}
}

func TestCommandLine(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		errs string
	}{
		{"unknown flag", []string{"-wrokload", "wire-gather"}, 2, "flag provided but not defined"},
		{"unknown workload", []string{"-workload", "wire-gahter"}, 2, `unknown workload "wire-gahter"`},
		{"stray argument", []string{"wire-gather"}, 2, "unexpected argument"},
		{"bad trace mode", []string{"-trace", "2"}, 2, "-trace"},
		{"compare wants two sides", []string{"compare", "a.json"}, 2, "two run files"},
		{"too few pairs", []string{"compare", "-pairs", "a", "b"}, 2, "at least ten"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, standardRun, &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit code %d, want %d", c.name, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.errs) {
			t.Errorf("%s: stderr %q does not mention %q", c.name, stderr.String(), c.errs)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed a result: %q", c.name, stdout.String())
		}
	}
}

// TestRunOneWorkloadAndCompare drives the command as the driver does —
// one workload, one pass, result on the last line — and then compares
// the run file with itself.
func TestRunOneWorkloadAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped in -short")
	}
	testutil.CheckGoroutines(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "campaign-decode", "--seed", "3", "--seconds", "0.3", "--trace", "0", "-out", out}
	if code := realMain(args, smokeConfig(t), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || !*last.Correct || *last.Attempted < 1 {
		t.Errorf("result object %s", lines[len(lines)-1])
	}
	if _, ok := last.Metrics["setup_s"]; !ok || len(last.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result carries %d metrics: %v", len(last.Metrics), last.Metrics)
	}

	run := filepath.Join(out, "run-3.json")
	stdout.Reset()
	if code := realMain([]string{"compare", run, out}, standardRun, &stdout, &stderr); code != 0 {
		t.Fatalf("compare of a run with itself: exit code %d: %s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), " "+verdictOK+"\n"); got != len(spec.EndToEnd) {
		t.Errorf("compare printed %d ok rows, want %d:\n%s", got, len(spec.EndToEnd), stdout.String())
	}
}
