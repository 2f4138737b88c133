package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// The CACHE experiment measures what bounding the software page cache
// costs and buys: each (kernel, cap) cell runs the cluster runtime with
// Config.CachePages at the given cap (0 = unbounded, the control arm) and
// reports
//
//   - the hit rate: cache hits / (hits + misses) over all remote reads —
//     the curve that shows how small the cache can get before remote
//     traffic explodes,
//   - evictions and refetches: how hard the CLOCK bound worked and how
//     often it threw away a page that was needed again,
//   - the makespan (max per-PE executed instructions) and wall clock, so
//     the memory bound's performance price is visible next to its
//     footprint.
//
// Kernels: heat (the Jacobi step whose boundary reads exercise neighbour
// pages — the SIMPLE building block named in the ROADMAP item), relax
// (sweep-structured reads over a version-blocked array, so the working set
// rotates and a bounded cache must keep re-deciding what to hold), and
// matmul (every row task re-reads all of B, so its working set exceeds any
// small cap and the hit-rate curve actually bends — heat and relax touch
// remote pages in tight bursts and barely notice eviction).
//
// Every run has the page-heat machinery on: streaming prefetch, and on a
// bounded cell the adaptive cap with the configured budget as its floor.
// A separate triread probe counts post-steal remote fetches with stealing
// on, under page-granular grant ranking plus prefetch.

// CacheCell is one (kernel, cap) measurement.
type CacheCell struct {
	Wall         time.Duration
	Makespan     int64   // max per-PE executed instructions
	HitRate      float64 // hits / (hits + misses); 1.0 when there were no remote reads
	Hits         int64
	Misses       int64
	Evictions    int64
	Refetches    int64
	Prefetches   int64 // pages requested ahead of the miss
	PrefetchHits int64 // prefetched pages that later served a demand read
	CapEnd       int64 // final resident-page budget summed over PEs (adaptive cap)
}

// CacheResult is the CACHE experiment output.
type CacheResult struct {
	N       int
	PEs     int
	Caps    []int // page-cache caps; 0 = unbounded control arm
	Kernels []string
	// Cells[kernel][cap] is one run at that budget.
	Cells map[string]map[int]CacheCell

	// Steal is the triread post-steal probe: the deterministic hand-pumped
	// steal schedule (cluster.PumpedRun) at StealCap pages. Misses are the
	// post-steal demand fetches the page-granular grant ranking and
	// prefetch are meant to avoid.
	StealCap int
	Steal    cluster.Stats
}

// cacheKernels are the default workloads for the cap sweep.
var cacheKernels = []string{"heat", "relax", "matmul"}

// Cache runs the CACHE experiment at problem size n on pes PEs over the
// given cache caps. With no explicit kernels it covers the default trio; a
// caller interested in a single cell names one to avoid the rest.
func Cache(n, pes int, caps []int, kerns ...string) (*CacheResult, error) {
	if _, forced := cluster.ForceCachePagesFromEnv(); forced {
		// The override would silently cap the unbounded control arm,
		// reporting a ~1.0 hit-rate ratio as if the bound cost nothing.
		return nil, fmt.Errorf("bench: CACHE needs a genuine unbounded control arm; unset PODS_FORCE_CACHE_PAGES")
	}
	if len(kerns) == 0 {
		kerns = cacheKernels
	}
	r := &CacheResult{
		N:       n,
		PEs:     pes,
		Caps:    caps,
		Kernels: kerns,
		Cells:   make(map[string]map[int]CacheCell),
	}
	ctx := context.Background()
	run := func(prog *isa.Program, cfg cluster.Config, args []isa.Value) (CacheCell, error) {
		runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		start := time.Now()
		res, err := cluster.Execute(runCtx, prog, cfg, args...)
		if err != nil {
			return CacheCell{}, err
		}
		cell := CacheCell{
			Wall:         time.Since(start),
			Hits:         res.Stats.CacheHits,
			Misses:       res.Stats.CacheMisses,
			Evictions:    res.Stats.Evictions,
			Refetches:    res.Stats.Refetches,
			Prefetches:   res.Stats.Prefetches,
			PrefetchHits: res.Stats.PrefetchHits,
			CapEnd:       res.Stats.CacheCapNow,
		}
		if total := cell.Hits + cell.Misses; total > 0 {
			cell.HitRate = float64(cell.Hits) / float64(total)
		} else {
			cell.HitRate = 1
		}
		cell.Makespan = slices.Max(res.PEInstrs)
		return cell, nil
	}
	for _, kn := range r.Kernels {
		k, ok := kernels.ByName(kn)
		if !ok {
			return nil, fmt.Errorf("bench: unknown kernel %q", kn)
		}
		prog, err := Compile(k.File(), k.Source, true)
		if err != nil {
			return nil, err
		}
		r.Cells[kn] = make(map[int]CacheCell)
		for _, cap := range caps {
			cell, err := run(prog, cluster.Config{NumPEs: pes, CachePages: cap}, k.Args(n))
			if err != nil {
				return nil, fmt.Errorf("%s @cap=%d: %w", kn, cap, err)
			}
			r.Cells[kn][cap] = cell
		}
	}

	// The post-steal locality probe: triread reads one shared array, so
	// only page-granular ranking can tell its steal candidates apart, and
	// a thief granted rows it does not hold pays a demand fetch per stolen
	// row's page. The probe runs the deterministic pumped schedule so the
	// fetch counts are exact, and it is pinned to the configuration of the
	// original batched-locality acceptance test (triread, n=26 @8 PEs) so
	// the count stays comparable regardless of the sweep's own n.
	const stealN, stealPEs = 26, 8
	tk, ok := kernels.ByName("triread")
	if !ok {
		return nil, fmt.Errorf("bench: unknown kernel %q", "triread")
	}
	tprog, err := Compile(tk.File(), tk.Source, true)
	if err != nil {
		return nil, err
	}
	r.StealCap = 8
	res, err := cluster.PumpedRun(tprog, tk.Args(stealN), cluster.Config{
		NumPEs: stealPEs, PageElems: 8, DistThreshold: 16,
		Steal: true, CachePages: r.StealCap,
	})
	if err != nil {
		return nil, fmt.Errorf("triread steal probe: %w", err)
	}
	r.Steal = res.Stats
	return r, nil
}

// Format renders the experiment.
func (r *CacheResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CACHE — bounded page cache with CLOCK eviction, n=%d @%dPE (cap in pages per shard; 0 = unbounded)\n", r.N, r.PEs)
	fmt.Fprintf(&b, "hit-rate = hits÷(hits+misses) over remote reads; refetches = evicted pages fetched again\n")
	fmt.Fprintf(&b, "prefetch = pages streamed ahead of a scan; cap-end = final adaptive budget summed over PEs\n\n")
	fmt.Fprintf(&b, "%-8s %5s %12s %10s %8s %8s %8s %8s %9s %9s %7s %7s\n",
		"kernel", "cap", "wall-ms", "makespan", "hitrate", "hits", "misses", "evicts", "refetches", "prefetch", "pf-hit", "cap-end")
	for _, kn := range r.Kernels {
		for _, cap := range r.Caps {
			c := r.Cells[kn][cap]
			fmt.Fprintf(&b, "%-8s %5d %12.3f %10d %8.3f %8d %8d %8d %9d %9d %7d %7d\n",
				kn, cap, float64(c.Wall.Microseconds())/1000, c.Makespan, c.HitRate, c.Hits, c.Misses,
				c.Evictions, c.Refetches, c.Prefetches, c.PrefetchHits, c.CapEnd)
		}
	}
	st := r.Steal
	fmt.Fprintf(&b, "\ntriread post-steal probe (pumped schedule, steal on, cap %d):\n", r.StealCap)
	fmt.Fprintf(&b, "  %d steals, %d demand fetches, %d hits, %d prefetches (%d hit)\n",
		st.Steals, st.CacheMisses, st.CacheHits, st.Prefetches, st.PrefetchHits)
	return b.String()
}

// WriteCSV emits kernel,cap,wall_ms,makespan,hit_rate,hits,misses,
// evictions,refetches,prefetches,prefetch_hits,cap_end rows; the triread
// post-steal probe rides along as kernel "triread+steal".
func (r *CacheResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, kn := range r.Kernels {
		for _, cap := range r.Caps {
			c := r.Cells[kn][cap]
			rows = append(rows, []string{
				kn, strconv.Itoa(cap),
				fmtF(float64(c.Wall.Microseconds()) / 1000),
				strconv.FormatInt(c.Makespan, 10),
				fmtF(c.HitRate),
				strconv.FormatInt(c.Hits, 10),
				strconv.FormatInt(c.Misses, 10),
				strconv.FormatInt(c.Evictions, 10),
				strconv.FormatInt(c.Refetches, 10),
				strconv.FormatInt(c.Prefetches, 10),
				strconv.FormatInt(c.PrefetchHits, 10),
				strconv.FormatInt(c.CapEnd, 10),
			})
		}
	}
	st := r.Steal
	hr := 1.0
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		hr = float64(st.CacheHits) / float64(total)
	}
	rows = append(rows, []string{
		"triread+steal", strconv.Itoa(r.StealCap), "", "",
		fmtF(hr),
		strconv.FormatInt(st.CacheHits, 10),
		strconv.FormatInt(st.CacheMisses, 10),
		"", "",
		strconv.FormatInt(st.Prefetches, 10),
		strconv.FormatInt(st.PrefetchHits, 10),
		"",
	})
	return writeCSV(w, []string{"kernel", "cap", "wall_ms", "makespan", "hit_rate",
		"hits", "misses", "evictions", "refetches", "prefetches", "prefetch_hits", "cap_end"}, rows)
}

// WriteJSON emits the whole experiment as one machine-readable document
// (the BENCH_CACHE.json artifact). Map keys are stringified caps, so the
// document round-trips through ordinary JSON tooling.
func (r *CacheResult) WriteJSON(w io.Writer) error {
	type cell struct {
		WallMS       float64 `json:"wall_ms"`
		Makespan     int64   `json:"makespan"`
		HitRate      float64 `json:"hit_rate"`
		Hits         int64   `json:"hits"`
		Misses       int64   `json:"misses"`
		Evictions    int64   `json:"evictions"`
		Refetches    int64   `json:"refetches"`
		Prefetches   int64   `json:"prefetches"`
		PrefetchHits int64   `json:"prefetch_hits"`
		CapEnd       int64   `json:"cap_end"`
	}
	type probe struct {
		Steals       int64 `json:"steals"`
		Misses       int64 `json:"misses"`
		Hits         int64 `json:"hits"`
		Prefetches   int64 `json:"prefetches"`
		PrefetchHits int64 `json:"prefetch_hits"`
	}
	st := r.Steal
	doc := struct {
		N        int                        `json:"n"`
		PEs      int                        `json:"pes"`
		Caps     []int                      `json:"caps"`
		Kernels  []string                   `json:"kernels"`
		Cells    map[string]map[string]cell `json:"cells"`
		StealCap int                        `json:"steal_cap"`
		Steal    probe                      `json:"triread_steal"`
	}{
		N: r.N, PEs: r.PEs, Caps: r.Caps, Kernels: r.Kernels,
		Cells:    make(map[string]map[string]cell),
		StealCap: r.StealCap,
		Steal: probe{Steals: st.Steals, Misses: st.CacheMisses, Hits: st.CacheHits,
			Prefetches: st.Prefetches, PrefetchHits: st.PrefetchHits},
	}
	for kn, byCap := range r.Cells {
		doc.Cells[kn] = make(map[string]cell)
		for cap, c := range byCap {
			doc.Cells[kn][strconv.Itoa(cap)] = cell{
				WallMS:   float64(c.Wall.Microseconds()) / 1000,
				Makespan: c.Makespan, HitRate: c.HitRate,
				Hits: c.Hits, Misses: c.Misses,
				Evictions: c.Evictions, Refetches: c.Refetches,
				Prefetches: c.Prefetches, PrefetchHits: c.PrefetchHits,
				CapEnd: c.CapEnd,
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
