package cluster

import "expvar"

// counter indexes a worker's counter vector, the one registry every
// observability surface derives from: the worker increments its entries
// in place (single adds on the hot path), snapshot folds in the shard's
// counts and the gauges at each probe, and the ack ships the vector to the
// driver's Stats, PEStats, timeline, expvars and per-PE CSV. Adding a
// counter: an entry here and in counterInfo, plus its increment site (and
// a Stats field in counters.stats only if it is part of the public summary).
type counter int

const (
	cInstrs       counter = iota // instructions executed
	cSent                        // worker-to-worker data messages sent (epoch-scoped)
	cRecv                        // worker-to-worker data messages received (epoch-scoped)
	cDeferred                    // shard reads queued on absent elements
	cHits                        // remote reads served from the page cache
	cMisses                      // remote reads that fetched a page
	cEvicts                      // cached pages evicted by the cache bound
	cRefetches                   // previously evicted pages fetched again
	cSteals                      // SP instances stolen and installed here
	cForwards                    // tokens relayed through forwarding stubs
	cReplayed                    // SPs re-sent or re-instantiated for replacements
	cPrefetches                  // pages requested ahead of the miss
	cPrefetchHits                // prefetched pages that later served a demand read
	cCacheCap                    // gauge: current (possibly adapted) resident-page cap
	cQDepth                      // gauge: ready-queue depth at the probe
	cLive                        // gauge: live SP instances at the probe
	numCounters
)

// counterInfo names each counter (CounterNames, the CSV columns), marks the
// gauges (instantaneous, never delta-encoded), and names the process-wide
// expvar a cumulative counter feeds ("" = none; sent and recv share one).
var counterInfo = [numCounters]struct {
	name  string
	gauge bool
	pub   string
}{
	cInstrs:       {name: "instrs", pub: "pods_instrs_total"},
	cSent:         {name: "sent", pub: "pods_msgs_total"},
	cRecv:         {name: "recv", pub: "pods_msgs_total"},
	cDeferred:     {name: "deferred"},
	cHits:         {name: "hits", pub: "pods_cache_hits_total"},
	cMisses:       {name: "misses", pub: "pods_cache_misses_total"},
	cEvicts:       {name: "evicts", pub: "pods_evictions_total"},
	cRefetches:    {name: "refetches"},
	cSteals:       {name: "steals", pub: "pods_steals_total"},
	cForwards:     {name: "forwards"},
	cReplayed:     {name: "replayed", pub: "pods_replayed_total"},
	cPrefetches:   {name: "prefetches", pub: "pods_prefetches_total"},
	cPrefetchHits: {name: "prefetch_hits", pub: "pods_prefetch_hits_total"},
	cCacheCap:     {name: "cache_cap", gauge: true},
	cQDepth:       {name: "qdepth", gauge: true},
	cLive:         {name: "live", gauge: true},
}

// counters is one worker's counter vector.
type counters [numCounters]int64

// delta returns c's growth over prev: cumulative counters as differences
// clamped at zero (a recovery epoch zeroes sent/recv, and the reset must
// never read as negative traffic), gauges as their current reading.
func (c *counters) delta(prev *counters) counters {
	var d counters
	for i, v := range c {
		if counterInfo[i].gauge {
			d[i] = v
		} else {
			d[i] = max(v-prev[i], 0)
		}
	}
	return d
}

// stats maps a (summed) vector onto the public Stats fields. The driver
// adds the fields no worker counts (Rebounds, Recoveries, Checkpoints).
func (c *counters) stats() Stats {
	return Stats{
		DeferredReads: c[cDeferred],
		CacheHits:     c[cHits],
		CacheMisses:   c[cMisses],
		Evictions:     c[cEvicts],
		Refetches:     c[cRefetches],
		MsgsSent:      c[cSent],
		Steals:        c[cSteals],
		Forwards:      c[cForwards],
		ReplayedSPs:   c[cReplayed],
		Prefetches:    c[cPrefetches],
		PrefetchHits:  c[cPrefetchHits],
		// Summed across PEs: the cluster-wide resident-page budget.
		CacheCapNow: c[cCacheCap],
	}
}

// CounterNames lists the per-worker counter names in vector order — the
// index space of PEStat.Counters and the per-PE CSV columns.
func CounterNames() []string {
	out := make([]string, numCounters)
	for i, info := range counterInfo {
		out[i] = info.name
	}
	return out
}

// counterVars holds each published counter's expvar (nil if unpublished).
var counterVars = func() (vars [numCounters]*expvar.Int) {
	for i, info := range counterInfo {
		if v, ok := expvar.Get(info.pub).(*expvar.Int); ok {
			vars[i] = v
		} else if info.pub != "" {
			vars[i] = expvar.NewInt(info.pub)
		}
	}
	return vars
}()
