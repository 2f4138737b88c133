package cluster

import (
	"testing"

	"repro/internal/istructure"
	"repro/internal/kernels"
	"repro/internal/rtcfg"
)

// Tests for the bounded page cache (Config.CachePages): the cap is a hard
// bound on resident cached pages at every moment of a run, eviction is
// invisible in the results (single assignment: a refetch returns the same
// immutable data), and batched locality-aware steal grants reduce the
// post-steal page fetches that location-blind single grants pay.

// pumpCfg selects a pumped run's worker options. adaptEvery > 0 arms
// adaptation and plays the driver's probe part on a fixed script: every
// adaptEvery pumping rounds (while no probe round is open) a KProbe goes
// to every PE, the cost reports it flushes merge into an adaptCoord, and
// once all of the round's acks are in, the coordinator's rebinds are
// broadcast — the real driver's round boundary, at deterministic points
// of the schedule. It must be at least 2: a pumping round that carries a
// probe always makes progress, so the run needs probe-free rounds to be
// seen quiescent. perRound, when non-nil, observes the workers after
// every pumping round (invariant checks mid-run).
type pumpCfg struct {
	steal, stealOne bool
	cachePages      int
	adaptEvery      int
	perRound        func([]*worker)
}

// pumpedRun executes a kernel on hand-pumped workers — a deterministic,
// adversarially fair schedule — and returns the workers, the gathered
// arrays at quiescence, and the number of rebinds broadcast.
func pumpedRun(t *testing.T, k kernels.Kernel, n, pes int, pc pumpCfg) ([]*worker, map[int64]*gathered, int64) {
	t.Helper()
	prog := compile(t, k.File(), k.Source)
	geo := rtcfg.Geometry{PEs: pes, PageElems: 8, DistThreshold: 16}
	if err := geo.Fill(pes); err != nil {
		t.Fatal(err)
	}
	eps := newChanTransport(pes, 0)
	ws := make([]*worker, pes)
	for pe := range ws {
		ws[pe] = newWorker(pe, pes, geo, prog, eps[pe],
			workerOpts{steal: pc.steal, adapt: pc.adaptEvery > 0, cachePages: pc.cachePages})
		ws[pe].stealOne = pc.stealOne
	}
	driver := eps[pes]
	ad := newAdaptCoord(pes)
	var round int32 // the last probe round sent
	var acks int    // acks received for it
	open := false   // a probe round awaits acks

	arrays := make(map[int64]*gathered)
	drainDriver := func() {
		for {
			m, ok := driver.TryRecv()
			if !ok {
				return
			}
			switch m.Kind {
			case KAlloc:
				dims := make([]int, len(m.Dims))
				for i, d := range m.Dims {
					dims[i] = int(d)
				}
				h, err := istructure.NewHeader(m.Arr, m.Name, dims, geo.PageElems, pes, int(m.Origin), m.Dist)
				if err != nil {
					t.Fatal(err)
				}
				arrays[m.Arr] = &gathered{h: h, vals: make([]float64, h.Elems()), mask: make([]bool, h.Elems())}
			case KCostReport:
				ad.merge(m, round)
			case KAck:
				if m.Round == round {
					acks++
				}
			case KFail:
				t.Fatalf("worker failed: %s", m.Name)
			case KDump:
				if err := arrays[m.Arr].merge(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: int32(prog.EntryID), Args: k.Args(n)}); err != nil {
		t.Fatal(err)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 50_000_000 {
			t.Fatal("pumped run did not quiesce")
		}
		if pc.adaptEvery > 0 && !open && rounds%pc.adaptEvery == 0 {
			round++
			acks, open = 0, true
			for pe := 0; pe < pes; pe++ {
				if err := driver.Send(pe, &Msg{Kind: KProbe, Round: round}); err != nil {
					t.Fatal(err)
				}
			}
		}
		progress := pumpRound(ws, eps)
		drainDriver()
		if open && acks == pes {
			open = false
			for _, rb := range ad.tick(round) {
				for pe := 0; pe < pes; pe++ {
					m := &Msg{Kind: KRebound, Tmpl: rb.tmpl, Cuts: append([]int64(nil), rb.cuts...)}
					if err := driver.Send(pe, m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if pc.perRound != nil {
			pc.perRound(ws)
		}
		if !progress {
			break
		}
	}
	var live int64
	for _, w := range ws {
		live += int64(len(w.insts))
	}
	if live != 0 {
		t.Fatalf("%d live SPs at quiescence (deadlock)", live)
	}
	for id, g := range arrays {
		for pe := 0; pe < pes; pe++ {
			lo, hi := g.h.SegmentElems(pe)
			if lo >= hi {
				continue
			}
			if err := driver.Send(pe, &Msg{Kind: KDumpReq, Arr: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pumpRound(ws, eps) {
		drainDriver()
	}
	drainDriver()
	return ws, arrays, ad.rebounds
}

// checkGathered compares pumped-run arrays bit-for-bit against the
// simulator reference.
func checkGathered(t *testing.T, k kernels.Kernel, arrays map[int64]*gathered,
	wantVals map[string][]float64, wantMasks map[string][]bool) {
	t.Helper()
	for name, ref := range wantVals {
		var g *gathered
		for _, cand := range arrays {
			if cand.h.Name == name {
				g = cand
			}
		}
		if g == nil {
			t.Fatalf("array %q never allocated", name)
		}
		if len(g.vals) != len(ref) {
			t.Fatalf("%s: %d elements, want %d", name, len(g.vals), len(ref))
		}
		for i := range ref {
			if g.mask[i] != wantMasks[name][i] {
				t.Fatalf("%s[%d]: written=%v, want %v", name, i, g.mask[i], wantMasks[name][i])
			}
			if g.mask[i] && g.vals[i] != ref[i] {
				t.Fatalf("%s[%d] = %v, want %v (eviction broke determinacy)", name, i, g.vals[i], ref[i])
			}
		}
	}
}

// TestCacheCapHardBoundDuringRun asserts the acceptance criterion
// directly: with CachePages set, no shard's resident cached page count
// ever exceeds the cap at any observable point of the run — checked after
// every pumping round of a remote-read-heavy kernel, not just at the end.
func TestCacheCapHardBoundDuringRun(t *testing.T) {
	const cap = 2
	k, _ := kernels.ByName("mirror")
	wantVals, wantMasks := simArraysMasked(t, compile(t, k.File(), k.Source), 4, k.Arrays, k.Args(12)...)
	ws, arrays, _ := pumpedRun(t, k, 12, 4, pumpCfg{cachePages: cap, perRound: func(ws []*worker) {
		for _, w := range ws {
			if got := w.shard.CachedPages(); got > cap {
				t.Fatalf("pe %d: %d resident cached pages, cap %d", w.pe, got, cap)
			}
		}
	}})
	var evictions, hits int64
	for _, w := range ws {
		evictions += w.shard.Evictions
		hits += w.ctr[cHits]
	}
	if evictions == 0 {
		t.Fatal("mirror at cap 2 evicted nothing — the bound was never exercised")
	}
	t.Logf("mirror@4PE cap=%d: %d evictions, %d hits", cap, evictions, hits)
	checkGathered(t, k, arrays, wantVals, wantMasks)
}

// TestEvictionKeepsKernelsDeterminate runs the kernel agreement matrix
// with a tight page-cache cap — evictions and refetches mid-run must not
// be observable — alone and combined with stealing and adaptation.
func TestEvictionKeepsKernelsDeterminate(t *testing.T) {
	const n = 8
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			prog := compile(t, k.File(), k.Source)
			wantVals, wantMasks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)
			for _, pes := range []int{1, 2, 4, 8} {
				res, err := Execute(testCtx(t), prog,
					Config{NumPEs: pes, PageElems: 8, CachePages: 2}, k.Args(n)...)
				if err != nil {
					t.Fatalf("%d PEs: %v", pes, err)
				}
				checkAgainstSimMasked(t, res, wantVals, wantMasks)

				both, err := Execute(testCtx(t), prog,
					Config{NumPEs: pes, PageElems: 8, CachePages: 2, Steal: true, Adapt: true},
					k.Args(n)...)
				if err != nil {
					t.Fatalf("%d PEs (steal+adapt): %v", pes, err)
				}
				checkAgainstSimMasked(t, both, wantVals, wantMasks)
			}
		})
	}
}

// TestBatchedLocalityStealReducesPostStealMisses is the A/B acceptance
// check for the grant policy, on a deterministic hand-pumped schedule: the
// triangular kernel with reads (triread — plain triangular never reads an
// array, so its post-steal miss count is vacuously zero) at 8 PEs must pay
// fewer page fetches under batched locality-aware grants than under the
// PR 2 policy (one location-blind SP per grant). Both arms stream
// prefetches, which hide a stolen row scan's later pages either way, so
// the difference is in the first read of each stolen row: the victim
// ranks its candidates by the pages the thief already holds, and pushes
// the owned page each granted read starts on ahead of the grant. The
// pumped schedule is deterministic, so the counts are exactly
// reproducible.
func TestBatchedLocalityStealReducesPostStealMisses(t *testing.T) {
	const n, pes = 26, 8
	k, ok := kernels.ByName("triread")
	if !ok {
		t.Fatal("triread kernel missing")
	}
	wantVals, wantMasks := simArraysMasked(t, compile(t, k.File(), k.Source), pes, k.Arrays, k.Args(n)...)
	run := func(single bool) (misses, steals int64) {
		ws, arrays, _ := pumpedRun(t, k, n, pes, pumpCfg{steal: true, stealOne: single})
		checkGathered(t, k, arrays, wantVals, wantMasks)
		for _, w := range ws {
			misses += w.ctr[cMisses]
			steals += w.ctr[cSteals]
		}
		return misses, steals
	}
	singleMisses, singleSteals := run(true)
	batchMisses, batchSteals := run(false)
	t.Logf("triread@%dPE: single-grant misses=%d steals=%d, batched misses=%d steals=%d",
		pes, singleMisses, singleSteals, batchMisses, batchSteals)
	if singleSteals == 0 || batchSteals == 0 {
		t.Fatalf("steals single=%d batched=%d — the comparison is vacuous", singleSteals, batchSteals)
	}
	if batchMisses >= singleMisses {
		t.Errorf("batched locality-aware grants paid %d page fetches, single-grant stealing %d — no reduction",
			batchMisses, singleMisses)
	}
}

// TestForceCachePagesEnvOverride: the PODS_FORCE_CACHE_PAGES override caps
// runs that leave CachePages at its default and never overrides an
// explicit cap.
func TestForceCachePagesEnvOverride(t *testing.T) {
	t.Setenv("PODS_FORCE_CACHE_PAGES", "3")
	cfg := Config{NumPEs: 2}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.CachePages != 3 {
		t.Fatalf("CachePages = %d, want 3 from the environment", cfg.CachePages)
	}
	cfg = Config{NumPEs: 2, CachePages: 7}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.CachePages != 7 {
		t.Fatalf("CachePages = %d, explicit cap must win over the environment", cfg.CachePages)
	}
	t.Setenv("PODS_FORCE_CACHE_PAGES", "")
	cfg = Config{NumPEs: 2, CachePages: -1}
	if err := cfg.fill(); err == nil {
		t.Fatal("negative CachePages accepted")
	}
}
