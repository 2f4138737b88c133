// Determinacy (Church-Rosser) tests: a single-assignment dataflow program
// must produce identical results no matter how its operations are
// scheduled. We compile each example kernel once and assert that all three
// backends — the discrete-event simulator, the shared-memory goroutine
// runtime, and the message-passing cluster runtime (with work stealing,
// adaptive repartitioning, and page-cache eviction off and on, separately
// and combined) — produce bit-for-bit identical array contents at every PE
// count, including the mirror kernel, whose consumers race ahead of
// producers and exercise remote deferred reads, the triangular and triread
// kernels, whose skewed load makes the steal-on column actually migrate
// SPs, and the relax kernel, whose drifting skew makes the adapt-on column
// actually move Range Filter bounds mid-run. The eviction columns run with
// a two-page cap per shard, so CLOCK evictions and refetches really happen
// inside these runs. The trace column layers event recording and per-round
// metric snapshots over all of it and must change nothing.
package pods_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// kernelSizes keeps the agreement matrix fast: big enough to spread arrays
// over every PE count (n*n is at least 8 pages of 8 elements), small enough
// to run the whole matrix in seconds.
const (
	determinacyN    = 10
	determinacyPage = 8
)

var determinacyPEs = []int{1, 2, 4, 8}

// arraySet is one backend's observable result: name → values + mask.
type arraySet map[string]struct {
	vals []float64
	mask []bool
	dims []int
}

func gather(t *testing.T, k kernels.Kernel, label string,
	read func(name string) ([]float64, []bool, []int, error)) arraySet {
	t.Helper()
	out := make(arraySet)
	for _, name := range k.Arrays {
		vals, mask, dims, err := read(name)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		out[name] = struct {
			vals []float64
			mask []bool
			dims []int
		}{vals, mask, dims}
	}
	return out
}

func assertSame(t *testing.T, label string, got, want arraySet) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g.vals) != len(w.vals) || fmt.Sprint(g.dims) != fmt.Sprint(w.dims) {
			t.Fatalf("%s: %s: shape %v/%d elems, want %v/%d", label, name, g.dims, len(g.vals), w.dims, len(w.vals))
		}
		for i := range w.vals {
			if g.mask[i] != w.mask[i] {
				t.Fatalf("%s: %s[%d]: written=%v, want %v", label, name, i, g.mask[i], w.mask[i])
			}
			if g.vals[i] != w.vals[i] {
				t.Fatalf("%s: %s[%d] = %v, want %v (backends disagree — determinacy violated)",
					label, name, i, g.vals[i], w.vals[i])
			}
		}
	}
}

// assertCounters checks the counter invariants every quiescent cluster
// run must satisfy: each counter's per-PE sum equals its Stats total (and
// PEInstrs; replayed is bounded by it, see below), every data message sent
// in the final epoch was received, prefetch hits never outnumber
// prefetches, and no PE refetched more pages than it evicted.
func assertCounters(t *testing.T, label string, res *pods.ClusterResult) {
	t.Helper()
	st, pes := res.Stats(), res.PEStats()
	idx := make(map[string]int)
	for i, name := range pods.ClusterCounterNames() {
		idx[name] = i
	}
	get := func(pe pods.ClusterPEStat, name string) int64 {
		i, ok := idx[name]
		if !ok {
			t.Fatalf("%s: no counter named %q", label, name)
		}
		return pe.Counters[i]
	}
	sum := func(name string) (n int64) {
		for _, pe := range pes {
			n += get(pe, name)
		}
		return n
	}
	var instrs int64
	for _, v := range res.PEInstrs() {
		instrs += v
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"instrs", instrs}, {"sent", st.MsgsSent}, {"recv", st.MsgsSent},
		{"deferred", st.DeferredReads}, {"hits", st.CacheHits}, {"misses", st.CacheMisses},
		{"evicts", st.Evictions}, {"refetches", st.Refetches}, {"steals", st.Steals},
		{"forwards", st.Forwards}, {"prefetches", st.Prefetches},
		{"prefetch_hits", st.PrefetchHits}, {"cache_cap", st.CacheCapNow},
	} {
		if got := sum(c.name); got != c.want {
			t.Errorf("%s: per-PE %s sums to %d, want %d", label, c.name, got, c.want)
		}
	}
	// ReplayedSPs also counts the root assignments the driver itself
	// replays, which no worker sees; without a recovery both are zero.
	if got := sum("replayed"); got > st.ReplayedSPs || (st.Recoveries == 0 && got != 0) {
		t.Errorf("%s: per-PE replayed sums to %d; Stats has %d after %d recoveries",
			label, got, st.ReplayedSPs, st.Recoveries)
	}
	if st.PrefetchHits > st.Prefetches {
		t.Errorf("%s: %d prefetch hits from %d prefetches", label, st.PrefetchHits, st.Prefetches)
	}
	for _, pe := range pes {
		if r, e := get(pe, "refetches"), get(pe, "evicts"); r > e {
			t.Errorf("%s: pe %d refetched %d pages but evicted only %d", label, pe.PE, r, e)
		}
	}
}

func TestBackendAgreement(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, err := pods.Compile(k.File(), k.Source)
			if err != nil {
				t.Fatal(err)
			}
			args := k.Args(determinacyN)

			// Reference: the simulator at 1 PE (fully deterministic).
			ref, err := p.Simulate(pods.SimConfig{NumPEs: 1, PageElems: determinacyPage}, args...)
			if err != nil {
				t.Fatal(err)
			}
			want := gather(t, k, "sim@1", ref.Array)

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, pes := range determinacyPEs {
				sres, err := p.Simulate(pods.SimConfig{NumPEs: pes, PageElems: determinacyPage}, args...)
				if err != nil {
					t.Fatalf("sim@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("sim@%d", pes), gather(t, k, "sim", sres.Array), want)

				rres, err := p.Execute(ctx, pods.RunConfig{VirtualPEs: pes, PageElems: determinacyPage}, args...)
				if err != nil {
					t.Fatalf("podsrt@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("podsrt@%d", pes), gather(t, k, "podsrt", rres.Array), want)

				cres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: pes, PageElems: determinacyPage}, args...)
				if err != nil {
					t.Fatalf("cluster@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster@%d", pes), gather(t, k, "cluster", cres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster@%d", pes), cres)

				// The steal-on column: dynamic SP migration must not be
				// observable in the results either.
				sres2, err := p.ExecuteCluster(ctx,
					pods.ClusterConfig{NumPEs: pes, PageElems: determinacyPage, Steal: true}, args...)
				if err != nil {
					t.Fatalf("cluster+steal@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+steal@%d", pes), gather(t, k, "cluster+steal", sres2.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+steal@%d", pes), sres2)

				// The adapt-on column: Range Filter bounds moving between
				// sweeps must not be observable either — iterations only
				// change *where* they execute. The tight probe interval
				// makes rebinds actually land inside these tiny runs.
				ares, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, Adapt: true,
					ProbeInterval: 20 * time.Microsecond,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+adapt@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+adapt@%d", pes), gather(t, k, "cluster+adapt", ares.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+adapt@%d", pes), ares)

				// And both dynamic mechanisms at once: rebound bounds with
				// in-flight steals.
				bres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, Adapt: true, Steal: true,
					ProbeInterval: 20 * time.Microsecond,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+adapt+steal@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+adapt+steal@%d", pes), gather(t, k, "cluster+adapt+steal", bres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+adapt+steal@%d", pes), bres)

				// The eviction column: a page-cache cap of two pages per
				// shard forces CLOCK evictions and refetches mid-run, which
				// must not be observable either (single assignment — a
				// refetched page carries the same immutable data).
				eres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, CachePages: 2,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+evict@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+evict@%d", pes), gather(t, k, "cluster+evict", eres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+evict@%d", pes), eres)

				// Eviction combined with stealing and adaptation: migrated
				// SPs refetching evicted pages while bounds rebind.
				ceres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, CachePages: 2,
					Adapt: true, Steal: true, ProbeInterval: 20 * time.Microsecond,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+evict+adapt+steal@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+evict+adapt+steal@%d", pes), gather(t, k, "cluster+evict+adapt+steal", ceres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+evict+adapt+steal@%d", pes), ceres)

				// The heat column: the unified page-heat machinery —
				// streaming prefetch, page-granular steal grants, the
				// adaptive cache cap, and rebind migration — moves pages
				// and work around, never results. The two-page floor makes
				// the governor and the prefetcher actually fire here.
				hres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, CachePages: 2,
					Heat: true, Adapt: true, Steal: true,
					ProbeInterval: 20 * time.Microsecond,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+heat@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+heat@%d", pes), gather(t, k, "cluster+heat", hres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+heat@%d", pes), hres)

				// The trace-on column: recording event rings and per-round
				// metric snapshots on top of every dynamic mechanism must not
				// perturb the computation — the trace frames are control-plane
				// (they never move the four-counter sums), and a small ring
				// exercises the drop-oldest path inside these runs too.
				tres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{
					NumPEs: pes, PageElems: determinacyPage, CachePages: 2,
					Adapt: true, Steal: true, Recover: true,
					ProbeInterval: 20 * time.Microsecond,
					Trace:         true, TraceCap: 256,
				}, args...)
				if err != nil {
					t.Fatalf("cluster+trace@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("cluster+trace@%d", pes), gather(t, k, "cluster+trace", tres.Array), want)
				assertCounters(t, fmt.Sprintf("cluster+trace@%d", pes), tres)
				if tr := tres.Trace(); tr == nil || tr.Events() == 0 {
					t.Fatalf("cluster+trace@%d: no trace events gathered", pes)
				}
			}
		})
	}
}

// TestClusterDeferredRemoteReadsObserved pins down that the mirror kernel
// actually exercises the remote deferred-read machinery at 4 PEs (the
// agreement above would be vacuous for the message paths otherwise).
func TestClusterDeferredRemoteReadsObserved(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 4, PageElems: determinacyPage}, k.Args(16)...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	t.Logf("mirror@4PE: msgs=%d deferred=%d cacheHits=%d cacheMisses=%d",
		st.MsgsSent, st.DeferredReads, st.CacheHits, st.CacheMisses)
	if st.MsgsSent == 0 {
		t.Error("no inter-PE messages: the run was not distributed at all")
	}
	if st.CacheMisses == 0 {
		t.Error("no page fetches: remote reads never left the PE")
	}
	if st.DeferredReads == 0 {
		t.Error("no deferred reads: consumers never outran producers, so the remote deferred-read path is untested")
	}
}
