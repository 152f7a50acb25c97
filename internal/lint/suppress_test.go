package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text        string
		isDirective bool
		ok          bool
		checks      []string
		reason      string
	}{
		{"//lint:ignore errcheck best-effort close", true, true, []string{"errcheck"}, "best-effort close"},
		{"//lint:ignore printban,errcheck demo output", true, true, []string{"printban", "errcheck"}, "demo output"},
		{"//lint:ignore errcheck", true, false, nil, ""},          // reason is mandatory
		{"//lint:ignore", true, false, nil, ""},                   // no check, no reason
		{"//lint:ignored errcheck oops", false, false, nil, ""},   // prefix must end at a space
		{"// lint:ignore errcheck spaced", false, false, nil, ""}, // not the directive form
		{"// an ordinary comment", false, false, nil, ""},
	}
	for _, c := range cases {
		d, isDirective := parseDirective(c.text, token.Position{})
		if isDirective != c.isDirective || d.ok != c.ok {
			t.Errorf("parseDirective(%q): directive=%v ok=%v, want %v/%v", c.text, isDirective, d.ok, c.isDirective, c.ok)
			continue
		}
		if !d.ok {
			continue
		}
		if strings.Join(d.checks, ",") != strings.Join(c.checks, ",") || d.reason != c.reason {
			t.Errorf("parseDirective(%q) = checks %v reason %q, want %v %q", c.text, d.checks, d.reason, c.checks, c.reason)
		}
	}
}

// TestSuppressionPositions pins the exact line geometry on the
// ignoredemo golden package: same line and line-above suppress, two
// lines above / wrong check / line below / malformed do not, and the
// malformed directive surfaces as an sdlint finding.
func TestSuppressionPositions(t *testing.T) {
	pkg := loadTestdata(t, "ignoredemo")
	res := Run([]*Package{pkg}, []*Analyzer{ErrCheck(testdataScope)})

	if res.Suppressed != 3 {
		t.Errorf("Suppressed = %d, want 3 (same line, line above, multi-check)", res.Suppressed)
	}

	var errcheckLines, sdlintLines []int
	for _, d := range res.Diagnostics {
		switch d.Check {
		case "errcheck":
			errcheckLines = append(errcheckLines, d.Pos.Line)
		case "sdlint":
			sdlintLines = append(sdlintLines, d.Pos.Line)
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	wantErrcheck := []int{20, 23, 25, 31}
	if !equalInts(errcheckLines, wantErrcheck) {
		t.Errorf("surviving errcheck lines = %v, want %v", errcheckLines, wantErrcheck)
	}
	// The reasonless directive on line 30 is malformed: reported, and it
	// suppressed nothing (line 31 survives above).
	if !equalInts(sdlintLines, []int{30}) {
		t.Errorf("sdlint (malformed directive) lines = %v, want [30]", sdlintLines)
	}
}

// TestMalformedDirectiveIsUnsuppressable: an sdlint finding cannot be
// silenced by an ignore directive, even one naming sdlint itself.
func TestMalformedDirectiveIsUnsuppressable(t *testing.T) {
	byLine := map[lineKey][]directive{
		{file: "x.go", line: 5}: {{checks: []string{"sdlint", "printban"}, reason: "r", ok: true}},
	}
	printbanDiag := Diagnostic{Pos: token.Position{Filename: "x.go", Line: 5}, Check: "printban"}
	if !isSuppressed(byLine, printbanDiag) {
		t.Error("printban diagnostic on the directive line should be suppressed")
	}
	// suppress() never consults directives for sdlint diagnostics; mimic
	// its guard here.
	sdlintDiag := Diagnostic{Pos: token.Position{Filename: "x.go", Line: 5}, Check: "sdlint"}
	suppressible := sdlintDiag.Check != "sdlint" && isSuppressed(byLine, sdlintDiag)
	if suppressible {
		t.Error("sdlint diagnostics must not be suppressible")
	}
}

func TestSortDiagnostics(t *testing.T) {
	d := func(file string, line, col int, check, msg string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line, Column: col}, Check: check, Message: msg}
	}
	diags := []Diagnostic{
		d("b.go", 1, 1, "errcheck", "z"),
		d("a.go", 9, 2, "printban", "y"),
		d("a.go", 9, 2, "errcheck", "x"),
		d("a.go", 2, 7, "printban", "w"),
		d("a.go", 2, 3, "printban", "v"),
	}
	SortDiagnostics(diags)
	var order []string
	for _, x := range diags {
		order = append(order, x.Message)
	}
	want := "v w x y z"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("sorted order = %q, want %q", got, want)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/cs/omp.go", Line: 42, Column: 7},
		Check:   "nondeterminism",
		Message: "wall-clock time.Now in deterministic package",
	}
	want := "internal/cs/omp.go:42:7: wall-clock time.Now in deterministic package (nondeterminism)"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func equalInts(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
