// Command podsbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index):
//
//	T1  — §5.1 iPSC/2 instruction-time table vs the simulator's cost model
//	T2  — §5.1 Array-Manager task times and message costs
//	F8  — Figure 8: functional-unit utilization balance (16×16 SIMPLE)
//	F9  — Figure 9: EU utilization per problem size
//	F10 — Figure 10: SIMPLE speed-up incl. the P&R control-driven baseline
//	E1  — §5.3.4 efficiency comparison (conduction 32×32, 1 PE)
//	X1  — generic matrix-multiply example
//	ABL — ablations (distribution off, cache off, control-driven)
//	PAGE — page-size sensitivity sweep ([BIC89] "not a critical parameter")
//	BACK — the three execution backends (sim, podsrt, cluster) head-to-head
//	       on the paper kernels (matmul, heat, pipeline)
//	SKEW — work stealing on/off × PE counts on the skewed kernels
//	       (triangular, mirror): wall clock, makespan, utilization recovered
//	ADAPT — adaptive Range-Filter repartitioning on/off × work stealing
//	       on/off × PE counts on the drifting-skew relax kernel: makespan,
//	       utilization, rebound count
//	CACHE — bounded page cache with CLOCK eviction: hit rate, makespan,
//	       evictions and refetches vs. the per-shard page cap on heat,
//	       relax, and matmul (cap 0 = unbounded control arm), plus
//	       prefetch and adaptive-cap counts and a triread post-steal probe
//	TRACE — observability overhead: tracing off vs on (event rings +
//	       per-round metric snapshots) on relax and matmul, asserting the
//	       makespan on the deterministic pumped steal schedule grows ≤5%
//	       (free-running steal+adapt arms give wall time); with -csv it
//	       also writes the traced relax run as Chrome trace_event JSON
//	       (Perfetto-loadable), the per-round timeline CSV, and a per-PE
//	       counter breakdown
//	SERVE — multi-program job service: a persistent fleet takes a sustained
//	       closed-loop stream of mixed heat/relax/matmul/triangular jobs
//	       from concurrent clients; reports job throughput and the latency
//	       distribution (p50/p90/p99), every job verified against the
//	       simulator
//
// Usage:
//
//	podsbench                  # everything, paper-scale axes
//	podsbench -exp F10         # a single experiment
//	podsbench -quick           # reduced axes for smoke runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "podsbench:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("podsbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (T1,T2,F8,F9,F10,E1,X1,ABL,PAGE,BACK,SKEW,ADAPT,CACHE,TRACE,SERVE) or 'all'")
	quick := fs.Bool("quick", false, "reduced axes (smaller sizes, fewer PE counts)")
	csvDir := fs.String("csv", "", "also write figure data as CSV files into this directory")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	pes := bench.DefaultPECounts
	sizes := bench.DefaultSizes
	e1n := 32
	ablN, ablPEs := 32, 16
	backN, backPEs := 24, 8
	skewN, skewPEs := 96, []int{1, 2, 4, 8}
	adaptN, adaptSweeps, adaptPEs := 64, 6, []int{1, 2, 4, 8}
	cacheN, cachePEs, cacheCaps := 32, 8, []int{0, 2, 4, 8, 16, 32}
	traceN, tracePEs, traceReps := 48, 8, 3
	serveN, servePEs, serveClients, serveJobs := 12, 8, 6, 48
	if *quick {
		pes = []int{1, 4, 16}
		sizes = []int{8, 16}
		e1n = 16
		ablN, ablPEs = 16, 8
		backN, backPEs = 12, 4
		skewN, skewPEs = 32, []int{1, 4}
		adaptN, adaptSweeps, adaptPEs = 32, 4, []int{1, 8}
		cacheN, cachePEs, cacheCaps = 16, 4, []int{0, 2, 8}
		traceN, traceReps = 24, 2
		serveN, servePEs, serveClients, serveJobs = 10, 4, 4, 16
	}

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToUpper(*exp), ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["ALL"]
	section := func(id string) bool { return all || want[id] }
	hr := strings.Repeat("=", 78)

	start := time.Now()
	if section("T1") {
		fmt.Println(hr)
		fmt.Print(bench.TableT1())
	}
	if section("T2") {
		fmt.Println(hr)
		fmt.Print(bench.TableT2())
	}
	if section("F8") {
		fmt.Println(hr)
		r, err := bench.Figure8(16, pes)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "figure8.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("F9") {
		fmt.Println(hr)
		r, err := bench.Figure9(sizes, pes)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "figure9.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("F10") {
		fmt.Println(hr)
		r, err := bench.Figure10(sizes, pes)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "figure10.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("E1") {
		fmt.Println(hr)
		r, err := bench.EfficiencyE1(e1n)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
	}
	if section("X1") {
		fmt.Println(hr)
		r, err := bench.MatmulX1(32, pes)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
	}
	if section("ABL") {
		fmt.Println(hr)
		r, err := bench.Ablations(ablN, ablPEs)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
	}
	if section("PAGE") {
		fmt.Println(hr)
		r, err := bench.PageSweep(ablN, ablPEs, []int{8, 16, 32, 64, 128})
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
	}
	if section("BACK") {
		fmt.Println(hr)
		r, err := bench.Backends(backN, backPEs)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "backends.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("SKEW") {
		fmt.Println(hr)
		r, err := bench.Skew(skewN, skewPEs)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "skew.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("ADAPT") {
		fmt.Println(hr)
		r, err := bench.Adapt(adaptN, adaptSweeps, adaptPEs)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "adapt.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if section("CACHE") {
		fmt.Println(hr)
		r, err := bench.Cache(cacheN, cachePEs, cacheCaps)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "cache.csv", r.WriteCSV); err != nil {
			return err
		}
		// BENCH_CACHE.json is the experiment's machine-readable record;
		// written unconditionally (into -csv's directory when given, the
		// working directory otherwise).
		jsonDir := *csvDir
		if jsonDir == "" {
			jsonDir = "."
		}
		if err := emitCSV(jsonDir, "BENCH_CACHE.json", r.WriteJSON); err != nil {
			return err
		}
	}
	if section("TRACE") {
		fmt.Println(hr)
		r, err := bench.Trace(traceN, tracePEs, traceReps)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := r.Check(); err != nil {
			return err
		}
		if err := emitCSV(*csvDir, "trace.csv", r.WriteCSV); err != nil {
			return err
		}
		if err := emitCSV(*csvDir, "trace_pe.csv", r.WritePerPECSV); err != nil {
			return err
		}
		chrome := func(w io.Writer) error { return r.WriteChromeJSON(w, "relax") }
		if err := emitCSV(*csvDir, "relax_trace.json", chrome); err != nil {
			return err
		}
		timeline := func(w io.Writer) error { return r.WriteTimelineCSV(w, "relax") }
		if err := emitCSV(*csvDir, "relax_timeline.csv", timeline); err != nil {
			return err
		}
	}
	if section("SERVE") {
		fmt.Println(hr)
		r, err := bench.Serve(serveN, servePEs, serveClients, serveJobs)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		if err := emitCSV(*csvDir, "serve.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	fmt.Println(hr)
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// emitCSV writes one figure's data into dir (no-op when dir is empty).
func emitCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", filepath.Join(dir, name))
	return nil
}
