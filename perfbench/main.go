// Command perfbench is the repository's end-to-end benchmark. It drives the
// cluster runtime through its public entry points (cluster.OpenFleet,
// Fleet.Submit, Fleet.ServeJobs, cluster.SubmitJob, cluster.ServeWorker)
// with closed-loop clients, verifies every job's arrays bit for bit
// against the simulator, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 a separate pass alternates untraced and traced jobs and
// reports the per-layer metrics; its spans go to
// .bench_build/spans/<workload>-<seed>.jsonl. -smoke checks the benchmark
// itself. Run it from the repository root with
//
//	bash perfbench/run.sh --workload matmul-remote --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupsPerSegment is how many times each segment compiles the
// workload's kernels and opens its fleet; setup_s is the median over all.
const setupsPerSegment = 5

// segmentDur is the measured time spent on one fleet instance.
const segmentDur = time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed (orders serve-mix's job stream)")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		smoke   = flag.Bool("smoke", false, "check the benchmark itself and exit")
		list    = flag.Bool("list", false, "print every metric with its unit and the change it should show, and exit")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
		return
	case *smoke:
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench smoke: ok")
		return
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	rep, err := runWorkload(w, runOpts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1})
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.Name)
	}
	return strings.Join(ns, ", ")
}

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload %-16s %s\n", w.Name, w.Why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end-to-end %-22s %-8s %s is better\n", m.Name, m.Unit, m.Better)
	}
	for _, m := range perLayer {
		fmt.Printf("per-layer %-34s %-6s moves %s\n", m.Name, m.Unit, m.Moves)
	}
}

type runOpts struct {
	seed    int64
	dur     time.Duration
	traced  bool
	corrupt bool // make the first job kind's reference wrong (smoke mode)
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	firstErr  error
	defs      []metricDef
	values    map[string]float64
	notes     []string
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// print writes every metric as "name value unit", then the JSON line.
func (r *report) print(f io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	if r.firstErr != nil {
		fmt.Fprintln(f, "first failure:", r.firstErr)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]mv)}
	for _, d := range r.defs {
		v := r.values[d.Name]
		fmt.Fprintf(f, "%-34s %.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always encode
	fmt.Fprintln(f, string(b))
}

// runWorkload sets the workload up, computes its references, warms it up,
// and runs the timed or the traced pass.
func runWorkload(w *workload, o runOpts) (*report, error) {
	var sp *spanLog
	if o.traced {
		sp = newSpanLog()
	}
	kinds := make([]*compiled, len(w.Jobs))
	for i, spec := range w.Jobs {
		c, _, err := compileJob(spec, sp)
		if err != nil {
			return nil, err
		}
		if err := c.simulate(); err != nil {
			return nil, err
		}
		kinds[i] = c
	}
	if o.corrupt {
		kinds[0].corrupt()
	}

	// setUp is the work setup_s times: compiling the workload's kernels
	// and opening its fleet. The simulator references above are the
	// benchmark's own check and stay out of it.
	var setups []float64
	setUp := func() (*rig, error) {
		t0 := time.Now()
		for _, spec := range w.Jobs {
			if _, _, err := compileJob(spec, sp); err != nil {
				return nil, err
			}
		}
		r, err := openRig(w, sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return r, nil
	}

	// A pass is a series of segments, each on a freshly opened fleet. Job
	// latency is quantised by the termination probe's back-off, and the
	// share of jobs that catch the earlier probe round drifts between fleet
	// instances and over time; pooling many short instances spread over
	// the run keeps a run's median steadier than one long-lived fleet.
	pass := func(dur time.Duration, po passOpts) (*passResult, error) {
		segs := max(1, int((dur+segmentDur/2)/segmentDur))
		all := &passResult{}
		for i := 0; i < segs; i++ {
			// Set-up is sampled at every segment, so that setup_s sees
			// the same host conditions as the rest of the run.
			var r *rig
			for k := 0; k < setupsPerSegment; k++ {
				if r != nil {
					r.close()
				}
				var err error
				if r, err = setUp(); err != nil {
					return nil, err
				}
			}
			po.dur = dur / time.Duration(segs)
			po.seed = o.seed*1000 + int64(i)
			all.merge(runPass(r, w, kinds, po))
			r.close()
		}
		return all, nil
	}

	rep := &report{correct: true, values: make(map[string]float64)}
	if !o.traced {
		// Warm-up: lazy set-up in the runtime and the Go heap settle
		// before timing starts.
		if _, err := pass(o.dur/10, passOpts{viaServer: w.Server}); err != nil {
			return nil, err
		}
		p, err := pass(o.dur, passOpts{viaServer: w.Server})
		if err != nil {
			return nil, err
		}
		rep.endToEnd(p, w, median(setups))
		return rep, nil
	}

	// The traced pass runs every job through Fleet.Submit, whose Result
	// carries the trace (a job-server reply does not), and alternates
	// traced and untraced jobs so both arms see the same conditions.
	// Its warm-up sizes the trace rings: twice the largest per-PE trace
	// seen, after growing the warm-up ring until it dropped nothing.
	traceCap := 0
	for probe := 1 << 16; traceCap == 0; probe *= 4 {
		if probe > 1<<22 {
			return nil, fmt.Errorf("trace rings of %d events still drop", probe/4)
		}
		p, err := pass(o.dur/10, passOpts{traceEvery: 1, traceCap: probe})
		if err != nil {
			return nil, err
		}
		most, drops := 0, int64(0)
		for _, j := range p.jobs {
			most = max(most, j.maxEvents)
			drops += j.drops
		}
		if drops == 0 {
			traceCap = 4096
			for traceCap < 2*most {
				traceCap *= 2
			}
		}
	}
	p, err := pass(o.dur, passOpts{traceEvery: 2, traceCap: traceCap, sp: sp})
	if err != nil {
		return nil, err
	}
	if err := rep.perLayer(p, w, kinds); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.Name, o.seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("trace ring %d events per PE; %d spans written to %s", traceCap, len(sp.spans), path))
	return rep, nil
}

// percentile interpolates linearly between the order statistics of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *report) count(p *passResult) {
	r.attempted += len(p.jobs)
	for _, j := range p.jobs {
		if j.failed {
			r.failed++
		}
	}
	if r.failed > 0 {
		r.correct = false
		r.firstErr = p.firstErr
	}
}

// endToEnd fills the user-visible metrics from the timed pass.
func (r *report) endToEnd(p *passResult, w *workload, setup float64) {
	r.defs = endToEnd
	r.count(p)
	var lats []float64
	var instrs int64
	for _, j := range p.jobs {
		if !j.failed {
			lats = append(lats, ms(j.lat))
		}
		instrs += j.instrs
	}
	if w.Server {
		// A job-server reply carries no instruction counts; the fleet's
		// process-wide counter does, and this pass was the only load.
		instrs = p.expInstrs
	}
	wall := p.wall.Seconds()
	fi := float64(max(instrs, 1))
	r.set("job_p50_ms", percentile(lats, 0.5))
	r.set("job_p90_ms", percentile(lats, 0.9))
	r.set("jobs_per_s", float64(len(lats))/wall)
	r.set("instrs_per_s_per_pe", float64(instrs)/wall/pes)
	r.set("allocs_per_instr", float64(p.mallocs)/fi)
	r.set("alloc_bytes_per_instr", float64(p.allocB)/fi)
	// The median segment's peak: the largest single peak would make
	// the metric as unsteady as one untimely collection.
	r.set("heap_peak_mb", median(p.segPeaks)/1e6)
	r.set("setup_s", setup)
	r.notes = append(r.notes,
		fmt.Sprintf("jobs %d in %.3f s, %d clients, %d instructions", len(p.jobs), wall, w.Clients, instrs),
		fmt.Sprintf("failed_frac %.6g ratio", float64(r.failed)/float64(max(r.attempted, 1))))
}

// perLayer fills the per-layer metrics from the alternating pass and the
// single-layer timings.
func (r *report) perLayer(p *passResult, w *workload, kinds []*compiled) error {
	r.defs = perLayer
	r.count(p)
	var (
		untraced, traced             []float64
		heads, spans, tails, imbal   []float64
		withResult, withTrace        float64
		instrs, hits, misses, defers float64
		msgs, steals, fwds           float64
		reqs, ins, rounds, drops     float64
		wireB, wireR, wireJobs       float64
	)
	for _, j := range p.jobs {
		if j.failed {
			continue
		}
		if j.traced {
			traced = append(traced, ms(j.lat))
		} else {
			untraced = append(untraced, ms(j.lat))
			wireB += float64(j.wireBytes)
			wireR += float64(j.wireReads)
			wireJobs++
		}
		if !j.hasResult {
			continue
		}
		withResult++
		instrs += float64(j.instrs)
		imbal = append(imbal, j.imbalance)
		hits += float64(j.stats.CacheHits)
		misses += float64(j.stats.CacheMisses)
		defers += float64(j.stats.DeferredReads)
		msgs += float64(j.stats.MsgsSent)
		steals += float64(j.stats.Steals)
		fwds += float64(j.stats.Forwards)
		if j.traced {
			drops += float64(j.drops)
		}
		if j.hasTrace {
			withTrace++
			heads = append(heads, ms(j.head))
			spans = append(spans, ms(j.span))
			tails = append(tails, ms(j.tail))
			reqs += float64(j.stealReqs)
			ins += float64(j.stealIns)
			rounds += float64(j.rounds)
		}
	}
	if withTrace == 0 || len(untraced) == 0 {
		return fmt.Errorf("the traced pass finished no traced and untraced job pair")
	}
	per := func(x float64) float64 { return x / withResult }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	st, err := compileTimes(w)
	if err != nil {
		return err
	}
	mUs, uUs, size, err := podsCodec(kinds)
	if err != nil {
		return err
	}
	sh, err := replayShards()
	if err != nil {
		return err
	}
	r.set("idlang.compile_ms", ms(st.idlang))
	r.set("translate.translate_ms", ms(st.translate))
	r.set("partition.partition_ms", ms(st.partition))
	r.set("isa.marshal_us", mUs)
	r.set("isa.unmarshal_us", uUs)
	r.set("isa.pods_bytes", float64(size))
	r.set("istructure.read_local_ns", sh.readLocalNs)
	r.set("istructure.cache_lookup_ns", sh.cacheLookupNs)
	r.set("istructure.write_ns", sh.writeNs)
	r.set("istructure.offset_ns", sh.offsetNs)
	r.set("istructure.allocs_per_read", sh.allocsPerRead)
	r.set("istructure.cache_hits_per_job", per(hits))
	r.set("istructure.cache_misses_per_job", per(misses))
	r.set("istructure.hit_ratio", ratio(hits, hits+misses))
	r.set("istructure.deferred_reads_per_job", per(defers))
	r.set("interp.instrs_per_job", per(instrs))
	r.set("interp.span_ms", median(spans))
	r.set("interp.pe_imbalance", median(imbal))
	r.set("sched.steals_per_job", per(steals))
	r.set("sched.forwards_per_job", per(fwds))
	r.set("sched.steal_reqs_per_job", reqs/withTrace)
	r.set("sched.steal_success", ratio(ins, reqs))
	r.set("cluster.msgs_per_job", per(msgs))
	r.set("tcp.bytes_per_job", ratio(wireB, wireJobs))
	r.set("tcp.reads_per_job", ratio(wireR, wireJobs))
	r.set("driver.head_ms", median(heads))
	r.set("driver.tail_ms", median(tails))
	r.set("driver.probe_rounds_per_job", rounds/withTrace)
	r.set("trace.record_ns", recordNs())
	r.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	r.set("trace.drops", drops)
	if drops > 0 {
		r.correct = false
		r.notes = append(r.notes, "traced pass rejected: trace rings dropped events")
	}
	r.notes = append(r.notes,
		fmt.Sprintf("jobs %d (%d traced) in %.3f s; untraced p50 %.4g ms, traced p50 %.4g ms",
			len(p.jobs), len(traced), p.wall.Seconds(), median(untraced), median(traced)),
		fmt.Sprintf("failed_frac %.6g ratio", float64(r.failed)/float64(max(r.attempted, 1))))
	return nil
}
