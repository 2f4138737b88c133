package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	ctrace "repro/internal/cluster/trace"
	"repro/internal/kernels"
)

// The TRACE experiment measures what always-on observability costs: each
// kernel runs with tracing off and on (event recorder + per-round metric
// snapshots + driver-side timeline assembly) and reports the overhead
// ratio. The claim under test is that tracing is cheap enough to leave on
// and never perturbs the computation: the instruction makespan — max
// per-PE executed instructions, the deterministic speed-up proxy used by
// SKEW and ADAPT — must grow by at most TraceOverheadLimit. The gated
// makespans come from the deterministic pumped schedule
// (cluster.PumpedRun, work stealing on), where the schedule cannot drift
// between arms and the ratio is exactly 1 unless tracing executes
// instructions. The free-running steal+adapt arms supply everything else —
// wall time, events, samples and the exported artifacts, ungated: with
// stealing and adaptation free to react to timing, their makespans follow
// the schedule, not the tracer. Each free-running arm runs Reps times and
// keeps the minimum wall time.

// TraceOverheadLimit is the acceptance bound on the pumped makespan ratio
// of a traced run over an untraced one.
const TraceOverheadLimit = 1.05

// TraceCell is one (kernel, tracing on/off) arm.
type TraceCell struct {
	Makespan int64         // max per-PE executed instructions on the pumped schedule
	Wall     time.Duration // free-running: min over reps
	Events   int           // trace events gathered (traced arm only)
	Drops    int64         // events dropped to the ring bound (traced arm only)
	Samples  int           // timeline samples assembled (traced arm only)
}

// TraceResult is the TRACE experiment output.
type TraceResult struct {
	N       int
	PEs     int
	Reps    int
	Kernels []string
	Off     map[string]TraceCell
	On      map[string]TraceCell
	// Overhead[kernel] = On.Makespan / Off.Makespan (pumped schedule).
	Overhead map[string]float64
	// PEStats[kernel] is the traced arm's per-PE counter breakdown.
	PEStats map[string][]cluster.PEStat

	// Retained traced-arm data for artifact export.
	traces map[string]*ctrace.Trace
	names  map[string]func(tmpl int64) string
}

// traceKernels are the default workloads: the drifting-skew relax kernel
// (steal + adapt traffic) and matmul (page-fetch traffic).
var traceKernels = []string{"relax", "matmul"}

// Trace runs the TRACE experiment at problem size n on pes PEs with work
// stealing and adaptive repartitioning enabled (the busiest configuration —
// every event kind fires). reps < 1 is clamped to 1.
func Trace(n, pes, reps int, kerns ...string) (*TraceResult, error) {
	if cluster.ForceTraceFromEnv() {
		// The override would silently trace the control arm too, reporting
		// a ~1.0 ratio as if tracing cost nothing.
		return nil, fmt.Errorf("bench: TRACE needs a genuine untraced control arm; unset PODS_FORCE_TRACE")
	}
	if reps < 1 {
		reps = 1
	}
	if len(kerns) == 0 {
		kerns = traceKernels
	}
	r := &TraceResult{
		N: n, PEs: pes, Reps: reps, Kernels: kerns,
		Off:      make(map[string]TraceCell),
		On:       make(map[string]TraceCell),
		Overhead: make(map[string]float64),
		PEStats:  make(map[string][]cluster.PEStat),
		traces:   make(map[string]*ctrace.Trace),
		names:    make(map[string]func(int64) string),
	}
	ctx := context.Background()
	for _, kn := range kerns {
		k, ok := kernels.ByName(kn)
		if !ok {
			return nil, fmt.Errorf("bench: unknown kernel %q", kn)
		}
		prog, err := Compile(k.File(), k.Source, true)
		if err != nil {
			return nil, err
		}
		for _, traced := range []bool{false, true} {
			pumped, err := cluster.PumpedRun(prog, k.Args(n), cluster.Config{NumPEs: pes, Steal: true, Trace: traced})
			if err != nil {
				return nil, fmt.Errorf("%s @%dPE pumped trace=%v: %w", kn, pes, traced, err)
			}
			cell := TraceCell{Makespan: slices.Max(pumped.PEInstrs), Wall: time.Duration(1<<63 - 1)}
			for rep := 0; rep < reps; rep++ {
				runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
				start := time.Now()
				res, err := cluster.Execute(runCtx, prog,
					cluster.Config{NumPEs: pes, Steal: true, Adapt: true, Trace: traced},
					k.Args(n)...)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("%s @%dPE trace=%v: %w", kn, pes, traced, err)
				}
				if wall := time.Since(start); wall < cell.Wall {
					cell.Wall = wall
				}
				if res.Trace != nil {
					cell.Events = res.Trace.Events()
					cell.Drops = res.Trace.Drops()
					cell.Samples = len(res.Trace.Timeline.Samples)
					r.PEStats[kn] = res.PEStats
					r.traces[kn] = res.Trace
					p := prog
					r.names[kn] = func(tmpl int64) string {
						if t := p.Template(int(tmpl)); t != nil {
							return t.Name
						}
						return ""
					}
				}
			}
			if traced {
				r.On[kn] = cell
			} else {
				r.Off[kn] = cell
			}
		}
		if off := r.Off[kn].Makespan; off > 0 {
			r.Overhead[kn] = float64(r.On[kn].Makespan) / float64(off)
		} else {
			r.Overhead[kn] = 1
		}
	}
	return r, nil
}

// Check enforces the acceptance bound: every kernel's traced pumped
// makespan must stay within TraceOverheadLimit of the untraced one.
func (r *TraceResult) Check() error {
	for _, kn := range r.Kernels {
		if ov := r.Overhead[kn]; ov > TraceOverheadLimit {
			return fmt.Errorf("bench: TRACE overhead on %s is %.3f× (limit %.2f×): traced pumped makespan %d vs %d",
				kn, ov, TraceOverheadLimit, r.On[kn].Makespan, r.Off[kn].Makespan)
		}
	}
	return nil
}

// Format renders the experiment.
func (r *TraceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TRACE — observability overhead, n=%d @%d PEs, best of %d free-running steal+adapt reps\n", r.N, r.PEs, r.Reps)
	fmt.Fprintf(&b, "(makespan = max per-PE instrs on the pumped steal schedule; overhead = traced÷untraced makespan, limit %.2f×)\n\n", TraceOverheadLimit)
	fmt.Fprintf(&b, "%-8s %-6s %12s %10s %9s %8s %6s %8s\n",
		"kernel", "trace", "wall-ms", "makespan", "overhead", "events", "drops", "samples")
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
	}
	for _, kn := range r.Kernels {
		off, on := r.Off[kn], r.On[kn]
		fmt.Fprintf(&b, "%-8s %-6s %12s %10d %9s %8s %6s %8s\n",
			kn, "off", ms(off.Wall), off.Makespan, "", "", "", "")
		fmt.Fprintf(&b, "%-8s %-6s %12s %10d %8.3fx %8d %6d %8d\n",
			kn, "on", ms(on.Wall), on.Makespan, r.Overhead[kn], on.Events, on.Drops, on.Samples)
	}
	return b.String()
}

// WriteCSV emits kernel,trace,wall_ms,makespan,overhead,events,drops,samples rows.
func (r *TraceResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, kn := range r.Kernels {
		for i, cell := range []TraceCell{r.Off[kn], r.On[kn]} {
			onOff, ov := "off", ""
			if i == 1 {
				onOff, ov = "on", fmtF(r.Overhead[kn])
			}
			rows = append(rows, []string{
				kn, onOff,
				fmtF(float64(cell.Wall.Microseconds()) / 1000),
				strconv.FormatInt(cell.Makespan, 10),
				ov,
				strconv.Itoa(cell.Events),
				strconv.FormatInt(cell.Drops, 10),
				strconv.Itoa(cell.Samples),
			})
		}
	}
	return writeCSV(w, []string{"kernel", "trace", "wall_ms", "makespan", "overhead", "events", "drops", "samples"}, rows)
}

// WriteChromeJSON renders the named kernel's traced run in the Chrome
// trace_event JSON array format (load at https://ui.perfetto.dev).
func (r *TraceResult) WriteChromeJSON(w io.Writer, kernel string) error {
	tr, ok := r.traces[kernel]
	if !ok {
		return fmt.Errorf("bench: no trace retained for kernel %q", kernel)
	}
	return ctrace.WriteChrome(w, tr, r.names[kernel])
}

// WriteTimelineCSV renders the named kernel's per-probe-round metrics
// timeline as CSV.
func (r *TraceResult) WriteTimelineCSV(w io.Writer, kernel string) error {
	tr, ok := r.traces[kernel]
	if !ok || tr.Timeline == nil {
		return fmt.Errorf("bench: no timeline retained for kernel %q", kernel)
	}
	return ctrace.WriteTimelineCSV(w, tr.Timeline)
}

// WritePerPECSV emits the traced arm's per-PE counter vectors — one row
// per (kernel, PE), one column per cluster.CounterNames entry — so
// load-balance and locality claims are checkable per worker rather than
// only as cluster-wide sums.
func (r *TraceResult) WritePerPECSV(w io.Writer) error {
	var rows [][]string
	for _, kn := range r.Kernels {
		for _, s := range r.PEStats[kn] {
			row := []string{kn, strconv.Itoa(s.PE)}
			for _, v := range s.Counters {
				row = append(row, strconv.FormatInt(v, 10))
			}
			rows = append(rows, row)
		}
	}
	return writeCSV(w, append([]string{"kernel", "pe"}, cluster.CounterNames()...), rows)
}
