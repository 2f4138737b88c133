package bench

import (
	"strings"
	"testing"
)

// Small axes keep unit tests fast; cmd/podsbench runs the full sweep.
var (
	testPEs   = []int{1, 4, 16}
	testSizes = []int{8, 16}
)

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(16, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range r.PEs {
		eu := r.Util["EU"][pi]
		for _, u := range []string{"MU", "RU", "AM", "MM"} {
			if r.Util[u][pi] >= eu {
				t.Errorf("PEs=%d: %s utilization %.3f >= EU %.3f", r.PEs[pi], u, r.Util[u][pi], eu)
			}
		}
	}
	out := r.Format()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "EU") {
		t.Errorf("format output malformed:\n%s", out)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(testSizes, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	// Larger problems sustain higher EU utilization at the largest PE count.
	last := len(testPEs) - 1
	if r.Util[1][last] <= r.Util[0][last] {
		t.Errorf("EU util at %d PEs: %dx%d %.3f should exceed %dx%d %.3f",
			testPEs[last], testSizes[1], testSizes[1], r.Util[1][last],
			testSizes[0], testSizes[0], r.Util[0][last])
	}
	// Utilization decreases from 1 PE to many PEs.
	for i := range testSizes {
		if r.Util[i][last] >= r.Util[i][0] {
			t.Errorf("size %d: EU util should fall with PE count (%.3f -> %.3f)",
				testSizes[i], r.Util[i][0], r.Util[i][last])
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(testSizes, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	last := len(testPEs) - 1
	// Speed-up at the largest PE count is ordered by problem size.
	if r.Speedup[1][last] <= r.Speedup[0][last] {
		t.Errorf("larger problem should speed up more: %v vs %v", r.Speedup[1], r.Speedup[0])
	}
	// Speed-up grows with PEs for the biggest size.
	for p := 1; p <= last; p++ {
		if r.Speedup[1][p] <= r.Speedup[1][p-1] {
			t.Errorf("64-equivalent speed-up not monotonic: %v", r.Speedup[1])
		}
	}
	// PODS >= P&R at the largest size and PE count (the paper's headline).
	if r.Speedup[1][last] < r.PRSpeedup[last] {
		t.Errorf("PODS %.2f should beat P&R %.2f at %d PEs", r.Speedup[1][last], r.PRSpeedup[last], testPEs[last])
	}
	if s := r.Format(); !strings.Contains(s, "P&R") {
		t.Errorf("format missing baseline:\n%s", s)
	}
}

func TestEfficiencyE1(t *testing.T) {
	r, err := EfficiencyE1(16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio <= 1.0 {
		t.Errorf("PODS with overheads (%.3fs) must be slower than ideal sequential (%.3fs)", r.PodsSec, r.SeqSeconds)
	}
	if r.Ratio > 5.0 {
		t.Errorf("ratio %.2f implausibly far from the paper's 1.91", r.Ratio)
	}
}

func TestMatmulX1(t *testing.T) {
	r, err := MatmulX1(12, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup[1] <= 1.2 {
		t.Errorf("matmul should speed up on 4 PEs, got %.2f", r.Speedup[1])
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	pods := r.Seconds["PODS"]
	if r.Seconds["nodist"] <= pods {
		t.Errorf("disabling distribution should hurt: PODS %.3f vs nodist %.3f", pods, r.Seconds["nodist"])
	}
	if r.Seconds["P&R"] < pods {
		t.Errorf("control-driven stalling should not beat PODS: %.3f vs %.3f", r.Seconds["P&R"], pods)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := TableT1()
	if strings.Contains(t1, "MISMATCH") {
		t.Errorf("cost model drifted from the paper's table:\n%s", t1)
	}
	if !strings.Contains(t1, "96.418") {
		t.Errorf("T1 missing fpow entry:\n%s", t1)
	}
	t2 := TableT2()
	if !strings.Contains(t2, "Dunigan") || !strings.Contains(t2, "19.5") {
		t.Errorf("T2 malformed:\n%s", t2)
	}
}

func TestPageSweepNotCritical(t *testing.T) {
	r, err := PageSweep(16, 4, []int{8, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Seconds[0], r.Seconds[0]
	for _, s := range r.Seconds {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	// [BIC89]: page size is not a critical parameter — the spread across an
	// 8x range of page sizes should stay well under 2x.
	if hi/lo > 2.0 {
		t.Errorf("page-size spread %.2fx too large:\n%s", hi/lo, r.Format())
	}
}

func TestCSVWriters(t *testing.T) {
	f8, err := Figure8(8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := f8.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "unit,pes,utilization\n") {
		t.Errorf("f8 csv: %s", b.String())
	}
	f10, err := Figure10([]int{8}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f10.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "PR8") || strings.Count(out, "\n") != 5 {
		t.Errorf("f10 csv:\n%s", out)
	}
	f9, err := Figure9([]int{8}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f9.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "size,pes,eu_utilization\n") {
		t.Errorf("f9 csv: %s", b.String())
	}
}

// TestCacheShape pins the CACHE experiment's structural claims: the
// unbounded control arm never evicts, a tight cap really evicts and
// refetches on a remote-read-heavy kernel, hit rates are well-formed, and
// the bounded arm's hit rate cannot beat the unbounded one (eviction can
// only lose hits). Results are schedule-dependent in magnitude but not in
// these invariants — the cluster counters are gathered after termination.
func TestCacheShape(t *testing.T) {
	r, err := Cache(16, 4, []int{0, 2}, "heat")
	if err != nil {
		t.Fatal(err)
	}
	unbounded, capped := r.Cells["heat"][0], r.Cells["heat"][2]
	if unbounded.Evictions != 0 || unbounded.Refetches != 0 {
		t.Fatalf("unbounded arm evicted (%d evictions, %d refetches) — control is contaminated",
			unbounded.Evictions, unbounded.Refetches)
	}
	if capped.Evictions == 0 {
		t.Fatal("cap 2 never evicted on heat — the bound was not exercised")
	}
	for _, c := range []CacheCell{unbounded, capped} {
		if c.HitRate < 0 || c.HitRate > 1 {
			t.Fatalf("hit rate %v out of [0,1]", c.HitRate)
		}
		if c.Makespan <= 0 {
			t.Fatalf("makespan %d, want positive", c.Makespan)
		}
	}
	// Schedule noise can move individual hits either way, but eviction
	// cannot systematically create them: allow a small tolerance only.
	if capped.HitRate > unbounded.HitRate+0.05 {
		t.Errorf("capped hit rate %.3f beats unbounded %.3f — eviction cannot create hits",
			capped.HitRate, unbounded.HitRate)
	}
	out := r.Format()
	if !strings.Contains(out, "CACHE") || !strings.Contains(out, "hitrate") {
		t.Errorf("format output malformed:\n%s", out)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "kernel,cap,wall_ms,makespan,hit_rate,hits,misses,evictions,refetches,prefetches,prefetch_hits,cap_end\n") {
		t.Errorf("cache csv: %s", b.String())
	}
	if !strings.Contains(b.String(), "triread+steal") {
		t.Errorf("cache csv missing the post-steal probe row: %s", b.String())
	}
}

// TestAdaptShape pins the ADAPT experiment's headline claim: on the
// drifting-skew relax kernel at 8 PEs, adaptive repartitioning must beat
// the static split — lower makespan, higher utilization — and must have
// actually rebounded to do it. Rebind timing depends on the wall-clock
// probe cadence racing real execution, so one unlucky run on a loaded
// machine can land its rebinds too late to clear the margin; the claim is
// that the mechanism works, not that every schedule is lucky, so the test
// accepts the best of three attempts before failing.
func TestAdaptShape(t *testing.T) {
	var r *AdaptResult
	var static, adapt AdaptCell
	for attempt := 1; ; attempt++ {
		var err error
		r, err = Adapt(48, 5, []int{8})
		if err != nil {
			t.Fatal(err)
		}
		cell := r.Cells[8]
		static, adapt = cell[0][0], cell[0][1]
		if static.Rebounds != 0 {
			t.Fatalf("static arm issued %d rebounds — control is contaminated", static.Rebounds)
		}
		won := adapt.Rebounds > 0 &&
			float64(adapt.Makespan) < 0.95*float64(static.Makespan) &&
			adapt.Util > static.Util
		if won {
			break
		}
		t.Logf("attempt %d: rebounds=%d makespan %d vs static %d, util %.2f vs %.2f",
			attempt, adapt.Rebounds, adapt.Makespan, static.Makespan, adapt.Util, static.Util)
		if attempt == 3 {
			t.Fatalf("adaptation never beat the static split by >5%% in %d attempts", attempt)
		}
	}
	out := r.Format()
	if !strings.Contains(out, "ADAPT") || !strings.Contains(out, "rebounds") {
		t.Errorf("format output malformed:\n%s", out)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "pes,steal,adapt,wall_ms,makespan,util,rebounds,steals\n") {
		t.Errorf("adapt csv: %s", b.String())
	}
}

// TestTraceShape pins the TRACE experiment's headline claim: the flight
// recorder never perturbs the computation. The gated makespans come from
// the deterministic pumped schedule, where tracing — which executes no
// program instructions — must leave the makespan exactly unchanged.
func TestTraceShape(t *testing.T) {
	r, err := Trace(24, 4, 2, "relax")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if off, on := r.Off["relax"].Makespan, r.On["relax"].Makespan; off == 0 || on != off {
		t.Fatalf("pumped makespan traced %d vs untraced %d: want equal and nonzero", on, off)
	}
	on := r.On["relax"]
	if on.Events == 0 || on.Samples == 0 {
		t.Fatalf("traced arm gathered no data: %+v", on)
	}
	if len(r.PEStats["relax"]) != 4 {
		t.Fatalf("per-PE stats for %d PEs, want 4", len(r.PEStats["relax"]))
	}
	out := r.Format()
	if !strings.Contains(out, "TRACE") || !strings.Contains(out, "overhead") {
		t.Errorf("format output malformed:\n%s", out)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "kernel,trace,wall_ms,makespan,overhead,events,drops,samples\n") {
		t.Errorf("trace csv: %s", b.String())
	}
	b.Reset()
	if err := r.WritePerPECSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "kernel,pe,instrs,") {
		t.Errorf("per-pe csv: %s", b.String())
	}
	b.Reset()
	if err := r.WriteChromeJSON(&b, "relax"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "[") {
		t.Errorf("chrome json does not open an array: %.40s", b.String())
	}
	b.Reset()
	if err := r.WriteTimelineCSV(&b, "relax"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "round,pe,wall_ms,") {
		t.Errorf("timeline csv: %s", b.String())
	}
}

// TestServeSmoke runs a tiny SERVE experiment: a few mixed jobs on a small
// persistent fleet, every one verified against the simulator inside Serve
// itself, and the summary plus CSV must be well-formed.
func TestServeSmoke(t *testing.T) {
	r, err := Serve(8, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 8 || len(r.Records) != 8 {
		t.Fatalf("recorded %d/%d jobs, want 8", len(r.Records), r.Jobs)
	}
	if r.Throughput <= 0 || r.P99 <= 0 || r.P99 < r.P50 {
		t.Fatalf("degenerate latency summary: throughput=%v p50=%v p99=%v",
			r.Throughput, r.P50, r.P99)
	}
	for _, mx := range serveMix {
		if s := r.PerKernel[mx.Kernel]; s.Jobs != 2 {
			t.Errorf("%s ran %d jobs, want 2", mx.Kernel, s.Jobs)
		}
	}
	if !strings.Contains(r.Format(), "throughput") {
		t.Errorf("summary missing throughput: %s", r.Format())
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "job,kernel,client,start_ms,latency_ms\n") {
		t.Errorf("serve csv: %s", b.String())
	}
}
