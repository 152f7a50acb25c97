package lint

import (
	"encoding/json"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// TestWriteJSON pins the -json wire format byte for byte: field order,
// indentation, sorted analyzer names, and the version marker. CI stores
// the document as an artifact, so format drift must be a deliberate,
// reviewed change here first. Timings are injected as fixed values —
// the only field whose real values vary run to run.
func TestWriteJSON(t *testing.T) {
	res := &Result{
		Diagnostics: []Diagnostic{
			{
				Pos:     token.Position{Filename: "internal/demo/demo.go", Line: 12, Column: 3},
				Check:   "locks",
				Message: "demo.n is guarded by mu but written without holding it",
			},
			{
				Pos:     token.Position{Filename: "internal/demo/demo.go", Line: 40, Column: 9},
				Check:   "hotalloc",
				Message: "make allocates per element on the hot path",
			},
		},
		Packages:   3,
		Suppressed: 2,
		Timings: []AnalyzerTiming{
			{Analyzer: "aliaspub", Millis: 1.25},
			{Analyzer: "hotalloc", Millis: 40},
			{Analyzer: "locks", Millis: 3.5},
		},
	}
	analyzers := []*Analyzer{Locks(), {Name: "aliaspub"}, {Name: "hotalloc"}}

	var b strings.Builder
	if err := WriteJSON(&b, res, analyzers); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{
  "version": 2,
  "packages": 3,
  "analyzers": [
    "aliaspub",
    "hotalloc",
    "locks"
  ],
  "timings": [
    {
      "analyzer": "aliaspub",
      "ms": 1.25
    },
    {
      "analyzer": "hotalloc",
      "ms": 40
    },
    {
      "analyzer": "locks",
      "ms": 3.5
    }
  ],
  "findings": [
    {
      "file": "internal/demo/demo.go",
      "line": 12,
      "col": 3,
      "check": "locks",
      "message": "demo.n is guarded by mu but written without holding it"
    },
    {
      "file": "internal/demo/demo.go",
      "line": 40,
      "col": 9,
      "check": "hotalloc",
      "message": "make allocates per element on the hot path"
    }
  ],
  "suppressed": 2
}
`
	if got := b.String(); got != want {
		t.Errorf("JSON report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteJSONEmpty pins the clean-tree shape: findings and timings are
// [] (never null), so `jq '.findings | length'` works without a null
// guard.
func TestWriteJSONEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, &Result{Packages: 1}, ProjectAnalyzers()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := b.String()
	if strings.Contains(out, "null") {
		t.Errorf("empty report contains null:\n%s", out)
	}
	var rep struct {
		Version   int      `json:"version"`
		Analyzers []string `json:"analyzers"`
		Timings   []any    `json:"timings"`
		Findings  []any    `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out)
	}
	if rep.Version != 2 {
		t.Errorf("version = %d, want 2", rep.Version)
	}
	if want := len(ProjectAnalyzers()); len(rep.Analyzers) != want {
		t.Errorf("analyzers = %d, want %d (the project suite)", len(rep.Analyzers), want)
	}
	if rep.Timings == nil || len(rep.Timings) != 0 {
		t.Errorf("timings = %v, want empty non-null list", rep.Timings)
	}
	if rep.Findings == nil || len(rep.Findings) != 0 {
		t.Errorf("findings = %v, want empty non-null list", rep.Findings)
	}
}

// msValue matches a timing value so determinism checks can normalize
// the one legitimately varying field.
var msValue = regexp.MustCompile(`"ms": [0-9.]+`)

// TestWriteJSONDeterministic pins byte-stability across runs on a real
// golden package, modulo the timing values.
func TestWriteJSONDeterministic(t *testing.T) {
	pkg := loadTestdata(t, "raceguard")
	dump := func() string {
		res := Run([]*Package{pkg}, []*Analyzer{Locks()})
		var b strings.Builder
		if err := WriteJSON(&b, res, []*Analyzer{Locks()}); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return msValue.ReplaceAllString(b.String(), `"ms": X`)
	}
	first := dump()
	if !strings.Contains(first, `"check": "locks"`) {
		t.Fatalf("golden run produced no locks findings:\n%s", first)
	}
	if !strings.Contains(first, `"analyzer": "locks"`) {
		t.Fatalf("report carries no timing entry for the analyzer that ran:\n%s", first)
	}
	if second := dump(); second != first {
		t.Errorf("JSON output is not deterministic:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}
