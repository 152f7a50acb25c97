// Command sensedroid-serve runs the middleware in continuous-service
// mode: a full in-process hierarchy senses an evolving synthetic world
// on a sliding window, each window's reconstruction is published as a
// versioned snapshot, and an HTTP API answers point/range/aggregate
// field queries against the latest snapshot while windows keep landing.
//
//	sensedroid-serve -addr :8080 -interval 250ms
//	curl 'localhost:8080/field/point?row=3&col=5'
//	curl 'localhost:8080/field/range?row0=0&col0=0&row1=8&col1=8&filter=value>20'
//	curl 'localhost:8080/field/agg?zone=1&op=mean'
//	curl 'localhost:8080/snapshot'
//
// With -load it instead drives a sustained mixed ingest+query workload
// against the in-process server for -load-duration and prints
// throughput plus p50/p95/p99 latencies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "query API listen address")
		w         = flag.Int("w", 32, "field width")
		h         = flag.Int("h", 32, "field height")
		zones     = flag.Int("zones", 2, "zone grid edge (zones×zones local clouds)")
		nodes     = flag.Int("nodes", 8, "mobile nodes per NanoCloud")
		budget    = flag.Int("budget", 240, "measurements per window")
		interval  = flag.Duration("interval", 250*time.Millisecond, "window cadence")
		retain    = flag.Int("retain", 8, "snapshots retained for history")
		seed      = flag.Int64("seed", 9, "deployment + world seed")
		warm      = flag.Bool("warm", true, "warm-start decodes from the previous window")
		loadMode  = flag.Bool("load", false, "run the load generator instead of serving HTTP")
		loadFor   = flag.Duration("load-duration", 10*time.Second, "load generator run time")
		loadW     = flag.Int("load-workers", 8, "load generator client goroutines")
		debugAddr = flag.String("debug-addr", "", "serve /metrics.json and /debug/pprof on this address")
	)
	flag.Parse()
	obs.Enable()
	if *debugAddr != "" {
		dbg, bound, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			log.Fatalf("sensedroid-serve: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoints on http://%s", bound)
	}

	sd, err := core.New(core.Options{
		FieldW: *w, FieldH: *h,
		ZoneRows: *zones, ZoneCols: *zones,
		NCsPerZone: 1, NodesPerNC: *nodes,
		Seed:    *seed,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatalf("sensedroid-serve: %v", err)
	}
	defer sd.Close()

	// The simulated physical world: plumes drifting a fraction of a cell
	// per window.
	evolve := func(step int, t float64) *field.Field {
		return field.GenPlumes(*w, *h, 10, []field.Plume{
			{Row: float64(*h)/4 + 0.05*t, Col: float64(*w) / 4, Sigma: float64(min(*w, *h)) / 8, Amplitude: 25},
			{Row: float64(*h) * 3 / 4, Col: float64(*w)*3/4 - 0.04*t, Sigma: float64(min(*w, *h)) / 6, Amplitude: 18},
		})
	}
	if err := sd.SetTruth(evolve(0, 0)); err != nil {
		log.Fatalf("sensedroid-serve: %v", err)
	}

	reg := snapshot.NewRegistry(*retain)
	pipe, err := stream.New(sd, reg, stream.Config{
		Budget: *budget, Interval: *interval,
		WarmStart: *warm, SeedRelTol: 0.5,
		Evolve: evolve,
	})
	if err != nil {
		log.Fatalf("sensedroid-serve: %v", err)
	}
	srv, err := serve.New(reg, *w, *h, *zones, *zones)
	if err != nil {
		log.Fatalf("sensedroid-serve: %v", err)
	}
	if err := pipe.Start(); err != nil {
		log.Fatalf("sensedroid-serve: %v", err)
	}
	defer pipe.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if _, err := reg.WaitContext(ctx, 1); err != nil {
		cancel()
		log.Fatalf("sensedroid-serve: first window never landed: %v", err)
	}
	cancel()
	log.Printf("pipeline live: %dx%d field, %dx%d zones, budget %d/window, warm-start %v",
		*h, *w, *zones, *zones, *budget, *warm)

	if *loadMode {
		rep, err := serve.RunLoad(context.Background(), srv, serve.LoadConfig{
			Workers: *loadW, Duration: *loadFor, Seed: *seed,
			Filters: []string{"value > 15", "zone == 0 && value < 30"},
		})
		if err != nil {
			log.Fatalf("sensedroid-serve: load: %v", err)
		}
		fmt.Printf("windows=%d latest_version=%d\n%s\n", pipe.Windows(), reg.Latest().Version, rep)
		return
	}

	mux := newMux(reg, srv, pipe)

	hs := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }() // exits on Shutdown/Close
	log.Printf("query API on %s (/field/point /field/range /field/agg /snapshot /healthz)", *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	select {
	case <-stop:
		log.Printf("shutting down after %d windows (latest version %d)", pipe.Windows(), reg.Latest().Version)
	case err := <-errCh:
		log.Printf("sensedroid-serve: http: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("sensedroid-serve: shutdown: %v", err)
	}
}

// pipelineStatus is what /snapshot reports of the pipeline that feeds
// the registry: how many windows have completed, and the last window's
// error (nil after a clean one). *stream.Pipeline implements it.
type pipelineStatus interface {
	Windows() int
	LastErr() error
}

// newMux builds the query API routes. Factored out of main so the
// handler error paths are testable with httptest against a registry in
// any state and a pipeline in any state.
func newMux(reg *snapshot.Registry, srv *serve.Server, pipe pipelineStatus) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		if reg.Latest() == nil {
			http.Error(rw, "no snapshot", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/snapshot", func(rw http.ResponseWriter, _ *http.Request) {
		s := reg.Latest()
		if s == nil {
			http.Error(rw, "no snapshot", http.StatusServiceUnavailable)
			return
		}
		// A window that fails publishes nothing, so the latest snapshot
		// can be many windows old; last_error says why (null if the last
		// window was clean).
		var lastErr any
		if err := pipe.LastErr(); err != nil {
			lastErr = err.Error()
		}
		writeJSON(rw, map[string]any{
			"version": s.Version, "step": s.Step, "t": s.T,
			"nmse": s.NMSE, "measurements": s.Measurements,
			"brokers_failed": s.BrokersFailed, "shortfall": s.Shortfall,
			"retained": reg.Len(),
			"windows":  pipe.Windows(), "last_error": lastErr,
		})
	})
	mux.HandleFunc("/field/point", func(rw http.ResponseWriter, r *http.Request) {
		row, err1 := qInt(r, "row")
		col, err2 := qInt(r, "col")
		if err1 != nil || err2 != nil {
			http.Error(rw, "need integer row= and col=", http.StatusBadRequest)
			return
		}
		res, err := srv.Point(row, col)
		if err != nil {
			http.Error(rw, err.Error(), queryStatus(err))
			return
		}
		writeJSON(rw, res)
	})
	mux.HandleFunc("/field/range", func(rw http.ResponseWriter, r *http.Request) {
		r0, e1 := qInt(r, "row0")
		c0, e2 := qInt(r, "col0")
		r1, e3 := qInt(r, "row1")
		c1, e4 := qInt(r, "col1")
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			http.Error(rw, "need integer row0= col0= row1= col1=", http.StatusBadRequest)
			return
		}
		res, err := srv.Range(serve.Rect{Row0: r0, Col0: c0, Row1: r1, Col1: c1}, r.URL.Query().Get("filter"))
		if err != nil {
			http.Error(rw, err.Error(), queryStatus(err))
			return
		}
		writeJSON(rw, res)
	})
	mux.HandleFunc("/field/agg", func(rw http.ResponseWriter, r *http.Request) {
		zone := -1
		if r.URL.Query().Get("zone") != "" {
			var err error
			if zone, err = qInt(r, "zone"); err != nil {
				http.Error(rw, "bad zone=", http.StatusBadRequest)
				return
			}
		}
		op := serve.AggOp(r.URL.Query().Get("op"))
		if op == "" {
			op = serve.AggMean
		}
		res, err := srv.Aggregate(zone, op, r.URL.Query().Get("filter"))
		if err != nil {
			http.Error(rw, err.Error(), queryStatus(err))
			return
		}
		writeJSON(rw, res)
	})
	return mux
}

// qInt parses one required integer query parameter.
func qInt(r *http.Request, name string) (int, error) {
	return strconv.Atoi(r.URL.Query().Get(name))
}

// queryStatus maps query-layer errors onto HTTP statuses.
func queryStatus(err error) int {
	if err == snapshot.ErrNoSnapshot {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeJSON renders one response object.
func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		log.Printf("sensedroid-serve: encode: %v", err)
	}
}
