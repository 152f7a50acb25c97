package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Verdicts of one (workload, end-to-end metric) pair, B against A.
const (
	verdictOK         = "ok"         // B's median is within the bound of A's
	verdictImproved   = "improved"   // B is better beyond A's own spread, and consistently
	verdictRegressed  = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // the runs spread wider than the bound and overlap
)

// comparison is one row of the compare table.
type comparison struct {
	a, b    [3]float64 // Q1, median, Q3
	delta   float64    // (median B − median A) ÷ |median A|; positive is worse
	verdict string
}

// judge compares B's runs of one metric with A's. Unpaired, B improved
// only if every run of B beats every run of A; paired (a[i] and b[i] ran
// back to back), only if B wins nine tenths of the pairs, ties counting
// for neither. Either way the medians must differ by more than the
// distance between A's quartiles.
func judge(a, b []float64, d metricDecl, paired bool) comparison {
	var c comparison
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	sign := 1.0 // lower is better: a rise is worse
	if d.Better == "higher" {
		sign = -1
	}
	if c.a[1] != 0 {
		c.delta = sign * (c.b[1] - c.a[1]) / math.Abs(c.a[1])
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	consistent := allBetter && len(a) > 1 && len(b) > 1
	if paired {
		wins := 0
		for i := range a {
			if better(b[i], a[i]) {
				wins++
			}
		}
		consistent = 10*wins >= 9*len(a)
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	switch {
	case consistent && c.delta < 0 && math.Abs(c.b[1]-c.a[1]) > c.a[2]-c.a[0]:
		c.verdict = verdictImproved
	case max(spread(c.a), spread(c.b)) > d.Bound && !allBetter && !allWorse:
		c.verdict = verdictUnresolved
	case c.delta > d.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictOK
	}
	return c
}

// samples holds end-to-end values by workload and metric, one per run.
type samples map[string]map[string][]float64

// load adds the untraced results of a run file, or of every run-*.json
// under a directory.
func (s samples) load(path string) error {
	var files []string
	err := filepath.WalkDir(path, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := filepath.Base(p)
		if !e.IsDir() && (p == path || (strings.HasPrefix(base, "run-") && strings.HasSuffix(base, ".json"))) {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("%s: no run files", path)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for _, res := range rf.Results {
			if res.Trace != 0 {
				continue
			}
			if s[res.Workload] == nil {
				s[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				s[res.Workload][name] = append(s[res.Workload][name], v.Value)
			}
		}
	}
	return nil
}

// compareMain implements `bench compare [-pairs] A B ...`.
func compareMain(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	flags.SetOutput(stderr)
	pairs := flags.Bool("pairs", false, "arguments are at least ten alternating A B pairs of run files")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench compare: "+format+"\n", a...)
		return 2
	}
	paths := flags.Args()
	switch {
	case !*pairs && len(paths) != 2:
		return fail("want two run files or directories of them, A and B")
	case *pairs && (len(paths) < 20 || len(paths)%2 != 0):
		return fail("-pairs wants at least ten A B pairs of run files, got %d files", len(paths))
	}
	spec, err := loadSpec()
	if err != nil {
		return fail("%v", err)
	}
	// Side 0 is A, side 1 is B; with -pairs the files alternate.
	sides := [2]samples{{}, {}}
	for i, p := range paths {
		if err := sides[i%2].load(p); err != nil {
			return fail("%v", err)
		}
	}

	fmt.Fprintf(stdout, "%-16s %-24s %38s %38s %9s %7s  %s\n",
		"workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]", "B vs A", "bound", "verdict")
	regressed := false
	for _, w := range workloads {
		for _, d := range spec.EndToEnd {
			a, b := sides[0][w.name][d.Name], sides[1][w.name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			if *pairs && len(a) != len(b) {
				return fail("%s %s: %d runs of A against %d of B", w.name, d.Name, len(a), len(b))
			}
			c := judge(a, b, d, *pairs)
			regressed = regressed || c.verdict == verdictRegressed
			quart := func(q [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2]) }
			fmt.Fprintf(stdout, "%-16s %-24s %38s %38s %+8.2f%% %6.1f%%  %s\n",
				w.name, d.Name, quart(c.a), quart(c.b), 100*c.delta, 100*d.Bound, c.verdict)
		}
	}
	fmt.Fprintln(stdout, "B vs A is the change of the median as a share of A's median; positive is worse.")
	if regressed {
		return 1
	}
	return 0
}
