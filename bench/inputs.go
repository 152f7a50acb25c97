package main

import (
	"math/rand"

	"repro/internal/field"
	"repro/internal/serve"
)

// Everything a workload hands the program under test is generated here
// from the run's seed: truth fields, plume tracks, deployment RNG seeds
// and the query stream. The program never sees the seed or the
// workload's name.

// inputs is one run's generated input set.
type inputs struct {
	fields  []*field.Field // truth fields, one per op in rotation
	tracks  []plumeTrack   // serve-mixed: the drifting truth
	queries []readQuery    // serve-mixed: the read stream
}

// fieldInputs draws n truth fields of side×side cells. An op's
// reconstruction error depends on where the field's plumes lie; a run
// rotates through enough draws that its nmse is not a property of one
// lucky field.
func fieldInputs(side, n int) func(*rand.Rand) *inputs {
	return func(rng *rand.Rand) *inputs { return &inputs{fields: genFields(rng, side, side, n)} }
}

func serveInputs(rng *rand.Rand) *inputs {
	return &inputs{
		tracks:  genTracks(rng, serveGrid, serveGrid),
		queries: genQueries(rng, queryStreamSz, serveGrid, serveGrid, serveZones*serveZones, 8),
	}
}

// Every plume has the same amplitude over the ambient level and the same
// width as a share of the grid's side, so fields differ in where their
// plumes are and not in how hard they are to reconstruct.
const (
	ambient        = 10
	plumeAmplitude = 20
	plumeWidth     = 0.3
)

// genFields draws n plume fields of w×h cells: three plumes each, with
// widths tied to the grid so every field is about equally compressible.
func genFields(rng *rand.Rand, w, h, n int) []*field.Field {
	out := make([]*field.Field, n)
	for i := range out {
		out[i] = field.GenPlumes(w, h, ambient, genPlumes(rng, w, h, 3))
	}
	return out
}

func genPlumes(rng *rand.Rand, w, h, n int) []field.Plume {
	side := float64(min(w, h))
	plumes := make([]field.Plume, n)
	for i := range plumes {
		plumes[i] = field.Plume{
			Row:       (0.3 + 0.4*rng.Float64()) * float64(h),
			Col:       (0.3 + 0.4*rng.Float64()) * float64(w),
			Sigma:     plumeWidth * side,
			Amplitude: plumeAmplitude,
		}
	}
	return plumes
}

// plumeTrack is a plume that drifts at a constant velocity, in cells per
// simulated second.
type plumeTrack struct {
	field.Plume
	dRow, dCol float64
}

// genTracks draws two slowly drifting plumes: a twentieth of a cell per
// simulated second at most, so consecutive windows share a support. Both
// start on the grid's quarter points and only their velocities are
// drawn. A warm-started zone keeps the support its first window chose
// for as long as it explains the measurements, so where the plumes start
// decides the accuracy of the whole run: with the start drawn too, nmse
// moved by ±15 % from seed to seed and said nothing about the code.
func genTracks(rng *rand.Rand, w, h int) []plumeTrack {
	tracks := make([]plumeTrack, 2)
	for i := range tracks {
		at := 0.3 + 0.4*float64(i)
		tracks[i] = plumeTrack{
			Plume: field.Plume{
				Row: at * float64(h), Col: at * float64(w),
				Sigma: plumeWidth * float64(min(w, h)), Amplitude: plumeAmplitude,
			},
			dRow: 0.1 * (rng.Float64() - 0.5), dCol: 0.1 * (rng.Float64() - 0.5),
		}
	}
	return tracks
}

// evolve returns the truth at simulated time t.
func evolve(tracks []plumeTrack, w, h int, t float64) *field.Field {
	plumes := make([]field.Plume, len(tracks))
	for i, tr := range tracks {
		plumes[i] = tr.Plume
		plumes[i].Row += tr.dRow * t
		plumes[i].Col += tr.dCol * t
	}
	return field.GenPlumes(w, h, ambient, plumes)
}

// Query kinds of the serve-mixed stream.
const (
	qPoint = iota
	qRange
	qAgg
)

// readQuery is one pre-generated read.
type readQuery struct {
	kind   int
	row    int
	col    int
	rect   serve.Rect
	zone   int // -1 = whole field
	op     serve.AggOp
	filter int // index into queryFilters
}

// queryFilters are the predicates range and aggregate queries draw from.
// match is the same predicate in plain Go, for the cross-checks.
var queryFilters = []struct {
	src   string
	match func(value float64, zone int) bool
}{
	{"", func(float64, int) bool { return true }},
	{"value > 15", func(v float64, _ int) bool { return v > 15 }},
	{"zone == 0 && value < 30", func(v float64, z int) bool { return z == 0 && v < 30 }},
}

var aggOps = []serve.AggOp{serve.AggSum, serve.AggMean, serve.AggMin, serve.AggMax, serve.AggCount}

// genQueries draws the 70/20/10 point/range/aggregate mix over a w×h
// field of the given zone count, rectangles at most span cells a side.
func genQueries(rng *rand.Rand, n, w, h, zones, span int) []readQuery {
	out := make([]readQuery, n)
	for i := range out {
		q := readQuery{filter: rng.Intn(len(queryFilters))}
		switch u := rng.Float64(); {
		case u < 0.7:
			q.kind, q.row, q.col = qPoint, rng.Intn(h), rng.Intn(w)
		case u < 0.9:
			r0, c0 := rng.Intn(h), rng.Intn(w)
			q.kind = qRange
			q.rect = serve.Rect{
				Row0: r0, Col0: c0,
				Row1: min(h, r0+1+rng.Intn(span)), Col1: min(w, c0+1+rng.Intn(span)),
			}
		default:
			q.kind, q.zone, q.op = qAgg, rng.Intn(zones+1)-1, aggOps[rng.Intn(len(aggOps))]
		}
		out[i] = q
	}
	return out
}
