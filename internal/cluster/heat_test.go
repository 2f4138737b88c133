package cluster

import (
	"testing"

	"repro/internal/kernels"
)

// Tests for the worker-side page-heat machinery: the adaptive-cap
// governor's hysteresis, the page-granular steal-locality win over the
// array-granular policy it replaced, and the streaming prefetcher on a
// real sequential-scan kernel.

// TestCapGovernorHysteresis pins the governor's movement rules: growth is
// immediate and multiplicative under refetch pressure (capped at the
// ceiling), shrinking needs capQuietRounds consecutive eviction-free
// rounds (clamped at the floor), and rounds that evict without
// refetching hold position — reacting to those is what would oscillate.
func TestCapGovernorHysteresis(t *testing.T) {
	type round struct {
		refetch, evict int64
		wantCap        int
		wantChanged    bool
	}
	cases := []struct {
		name   string
		floor  int
		rounds []round
	}{
		{"grow on refetch pressure", 4, []round{
			{refetch: 1, evict: 3, wantCap: 6, wantChanged: true},
			{refetch: 5, evict: 9, wantCap: 9, wantChanged: true},
		}},
		{"growth saturates at the ceiling", 2, []round{
			{refetch: 1, wantCap: 3, wantChanged: true},
			{refetch: 1, wantCap: 4, wantChanged: true},
			{refetch: 1, wantCap: 6, wantChanged: true},
			{refetch: 1, wantCap: 9, wantChanged: true},
			{refetch: 1, wantCap: 13, wantChanged: true},
			{refetch: 1, wantCap: 16, wantChanged: true},
			{refetch: 1, wantCap: 16, wantChanged: false},
		}},
		{"shrink only after quiet hysteresis", 4, []round{
			{refetch: 1, wantCap: 6, wantChanged: true},
			{wantCap: 6, wantChanged: false}, // quiet 1
			{wantCap: 6, wantChanged: false}, // quiet 2
			{wantCap: 5, wantChanged: true},  // quiet 3: shrink, counter resets
			{wantCap: 5, wantChanged: false},
			{wantCap: 5, wantChanged: false},
			{wantCap: 4, wantChanged: true}, // floor reached
			{wantCap: 4, wantChanged: false},
			{wantCap: 4, wantChanged: false},
			{wantCap: 4, wantChanged: false}, // floor holds
		}},
		{"evictions without refetches hold position", 4, []round{
			{refetch: 1, wantCap: 6, wantChanged: true},
			{evict: 2, wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{evict: 1, wantCap: 6, wantChanged: false}, // quiet run broken
			{wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{wantCap: 5, wantChanged: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newCapGovernor(tc.floor)
			if !g.enabled() {
				t.Fatal("governor disabled for a positive floor")
			}
			for i, r := range tc.rounds {
				cap, changed := g.tick(r.refetch, r.evict)
				if cap != r.wantCap || changed != r.wantChanged {
					t.Fatalf("round %d: tick(%d,%d) = (%d,%v), want (%d,%v)",
						i, r.refetch, r.evict, cap, changed, r.wantCap, r.wantChanged)
				}
			}
		})
	}
	// An unbounded cache (cap 0) disables the governor entirely.
	g := newCapGovernor(0)
	if g.enabled() {
		t.Fatal("governor enabled for an unbounded cache")
	}
	if cap, changed := g.tick(100, 100); cap != 0 || changed {
		t.Fatalf("disabled governor moved: (%d,%v)", cap, changed)
	}
}

// arrayGranularPostStealFetches is the post-steal demand-fetch count the
// triread probe below paid under the array-granular steal summary (hot
// arrays instead of hot pages, no prefetch), recorded when page-granular
// locality landed; that policy has since been deleted. The page-granular
// default must stay below it.
const arrayGranularPostStealFetches = 58

// TestPageGranularStealReducesPostStealFetches runs triread on the
// deterministic pumped schedule with stealing on: the thieves' page-
// granular summaries and streaming prefetch must keep the post-steal
// demand fetches below what array-granular ranking paid on the same
// schedule, and some prefetched pages must serve demand reads.
func TestPageGranularStealReducesPostStealFetches(t *testing.T) {
	k, ok := kernels.ByName("triread")
	if !ok {
		t.Fatal("triread kernel missing")
	}
	prog := compile(t, k.File(), k.Source)
	const n, pes, cap = 26, 8, 8
	res, err := PumpedRun(prog, k.Args(n), Config{
		NumPEs: pes, PageElems: 8, DistThreshold: 16, Steal: true, CachePages: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	t.Logf("triread@%dPE: %+v", pes, st)
	if st.Steals == 0 {
		t.Fatal("vacuous probe: no steals")
	}
	if st.Prefetches == 0 || st.PrefetchHits == 0 {
		t.Fatalf("never prefetched usefully: %d issued, %d hit", st.Prefetches, st.PrefetchHits)
	}
	if st.CacheMisses >= arrayGranularPostStealFetches {
		t.Fatalf("page-granular steal paid %d demand fetches, array-granular paid %d — no locality win",
			st.CacheMisses, arrayGranularPostStealFetches)
	}
}

// TestStreamingPrefetchOnSequentialScan runs matmul — row-major scans
// over every operand — under a tight page cap and checks that pages
// stream ahead of the scan, that some of them serve demand reads, and
// that the adaptive cap never drops below its configured floor. An
// unbounded run leaves the cap governor off, so its summed cap stays 0.
func TestStreamingPrefetchOnSequentialScan(t *testing.T) {
	k, ok := kernels.ByName("matmul")
	if !ok {
		t.Fatal("matmul kernel missing")
	}
	prog := compile(t, k.File(), k.Source)
	ctx := testCtx(t)
	const n, pes = 16, 4
	res, err := Execute(ctx, prog, Config{NumPEs: pes, CachePages: 2}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	t.Logf("cap 2: prefetches=%d hits=%d cacheHits=%d cacheMisses=%d capEnd=%d",
		st.Prefetches, st.PrefetchHits, st.CacheHits, st.CacheMisses, st.CacheCapNow)
	if st.Prefetches == 0 {
		t.Fatal("sequential scans never triggered a prefetch")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("no prefetched page ever served a demand read")
	}
	if st.CacheCapNow < int64(2*pes) {
		t.Fatalf("summed final cache cap %d below the configured floor %d", st.CacheCapNow, 2*pes)
	}

	// The unbounded arm must stay unbounded on the CI leg that forces a
	// cap on every run that leaves CachePages zero.
	t.Setenv("PODS_FORCE_CACHE_PAGES", "")
	ures, err := Execute(ctx, prog, Config{NumPEs: pes}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := ures.Stats.CacheCapNow; got != 0 {
		t.Fatalf("unbounded run: summed cache cap %d, want 0 (governor off)", got)
	}
}
