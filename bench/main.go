// Command bench is the repository's benchmark: five workloads that each
// put a different layer of the middleware on the critical path, measured
// end to end with tracing off and then layer by layer from outside, by
// timing calls into the layers' exported functions. BENCHMARK.json at the
// root of the repository declares every metric it prints; README.md in
// this directory says why these workloads and how the numbers interact.
//
//	go run ./bench                       # all workloads, both passes
//	go run ./bench -workload wire-gather -seed 3 -seconds 10 -trace 0
//	go run ./bench compare A B           # two sets of runs, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// standardRun is the fixed shape of a run; only the seed, the workload,
// the measured seconds and the output directory are the caller's.
var standardRun = runConfig{warmup: time.Second}

func main() { os.Exit(realMain(os.Args[1:], standardRun, os.Stdout, os.Stderr)) }

// realMain is the command; cfg is the shape of its runs, which the tests
// shrink.
func realMain(args []string, cfg runConfig, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all)")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 10, "length of the measured phase")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer ledger; -1: both")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for run-<seed>.json and trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		return usage("-seconds must be positive and -trace one of -1, 0, 1")
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return usage("%v", err)
		}
		selected = []workload{w}
	}
	spec, err := loadSpec()
	if err != nil {
		return usage("%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return usage("%v", err)
	}
	cfg.seed, cfg.seconds, cfg.outDir = *seed, time.Duration(*seconds*float64(time.Second)), *outDir

	file := runFile{Meta: metaNow(cfg)}
	ok := true
	for _, w := range selected {
		for _, pass := range []struct {
			trace int
			run   func(workload, runConfig, *benchSpec) (runResult, error)
		}{{0, runUntraced}, {1, runTraced}} {
			if *trace >= 0 && *trace != pass.trace {
				continue
			}
			res, err := pass.run(w, cfg, spec)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			file.Results = append(file.Results, res)
			printResult(stdout, stderr, res)
			ok = ok && res.Correct
		}
	}
	path := filepath.Join(*outDir, fmt.Sprintf("run-%d.json", *seed))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runFile is what run-<seed>.json holds: where and how the numbers were
// taken, and every run of the invocation.
type runFile struct {
	Meta    runMeta     `json:"meta"`
	Results []runResult `json:"results"`
}

type runMeta struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func metaNow(cfg runConfig) runMeta {
	meta := runMeta{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				meta.Commit = s.Value
			}
		}
	}
	return meta
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printResult prints every metric the run measured by name with its
// unit, then the run as one JSON object on a line of its own — the last
// line of a single-workload, single-pass invocation. The object carries
// every declared metric; the ones not measured are layers off this
// workload's path and read zero.
func printResult(stdout, stderr io.Writer, res runResult) {
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", res.Workload, e)
	}
	names := make([]string, 0, len(res.measured))
	for name := range res.measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(stdout, "%-16s %-30s %16.6g %s\n", res.Workload, name, v.Value, v.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "%s\n", line)
}
