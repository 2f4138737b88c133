package cluster

import (
	"math"
	"slices"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file is the worker-side half of the unified page-heat machinery,
// which every worker runs. The shard's heat table (istructure/heat.go)
// records what happened to every page; this layer turns the record into
// decisions. None of them can change a result: single assignment makes a
// present cached element final, so a page fetched early is never stale.
//
//   - streaming prefetch: a detected sequential scan asks the owner for
//     the next page before the miss, via an SP-0 KReadReq answered on the
//     ordinary KPage path — recovery, replay, and the four-counter
//     termination sums need no new cases;
//   - page-granular steal locality: steal requests advertise hot pages,
//     and the victim ranks candidates by the rows their operand frames
//     would touch at the thief;
//   - the adaptive cache cap: a nonzero CachePages self-tunes between a
//     floor and a ceiling from per-probe-round refetch pressure;
//   - rebind migration: a KRebound's newly-gained iterations prefetch the
//     pages of their rows, so adapted copies start warm.

// heatKey identifies one (array, page) on the worker side.
type heatKey struct {
	arr  int64
	page int
}

// heatState is the worker's page-heat bookkeeping.
type heatState struct {
	// inflight dedups prefetch requests: one per page until its KPage
	// lands (or a demand fetch of the same page overtakes it).
	inflight map[heatKey]struct{}

	// arrived marks pages installed by a prefetch that have not yet
	// served a demand read; the first cache hit on such a page counts as
	// a PrefetchHit and clears the mark.
	arrived map[heatKey]struct{}

	// gov is the adaptive-cap governor, ticked at each probe.
	gov capGovernor
}

// newHeatState builds the worker-side heat machinery for a configured cap.
func newHeatState(cachePages int) heatState {
	return heatState{
		inflight: make(map[heatKey]struct{}),
		arrived:  make(map[heatKey]struct{}),
		gov:      newCapGovernor(cachePages),
	}
}

// prefetchRun is the sequential-run length that triggers a streaming
// prefetch: two consecutive pages touched in order is taken as a scan.
const prefetchRun = 2

// maybePrefetch issues a streaming prefetch for the page after the one
// holding off when the heat table shows a sequential scan ending there.
// Called on the remote-read path for both hits and misses: the scan's
// own misses start the chain, and the hits keep it one page ahead.
func (w *worker) maybePrefetch(h *istructure.Header, off int) {
	page := h.PageOf(off)
	if w.shard.ScanRun(h.ID, page) < prefetchRun {
		return
	}
	w.prefetchPage(h, page+1)
}

// prefetchPage asks the owner of (h, page) for the page with an SP-0
// KReadReq — SP 0 is never a live instance ID, so the owner ships the
// page without queuing a waiter and the arrival installs without a
// delivery. Reports whether a request actually went out (already-local,
// already-inflight, self-owned, and out-of-range pages are skipped).
func (w *worker) prefetchPage(h *istructure.Header, page int) bool {
	if page < 0 || page >= h.Pages() {
		return false
	}
	if w.shard.PageLocal(h.ID, page) {
		return false
	}
	k := heatKey{h.ID, page}
	if _, dup := w.heat.inflight[k]; dup {
		return false
	}
	off := page * h.PageElems
	owner := h.OwnerOf(off)
	if owner == w.pe {
		return false
	}
	w.heat.inflight[k] = struct{}{}
	w.ctr[cPrefetches]++
	w.rec(trace.EvPrefetch, h.ID, int64(page))
	w.send(owner, &Msg{
		Kind:  KReadReq,
		Arr:   h.ID,
		Off:   int32(off),
		ReqPE: int32(w.pe),
	})
	return true
}

// notePrefetchHit credits a demand cache hit to the prefetch that staged
// the page, once per prefetched page.
func (w *worker) notePrefetchHit(arr int64, page int) {
	k := heatKey{arr, page}
	if _, ok := w.heat.arrived[k]; ok {
		delete(w.heat.arrived, k)
		w.ctr[cPrefetchHits]++
	}
}

// hotPagePairs flattens the shard's page-granular locality summary into
// the wire encoding: (array, page) pairs in one int64 slice. Array IDs
// use the high bits of their 64-bit space, so the pair encoding — not a
// packed single word — is what keeps the page index intact.
func (w *worker) hotPagePairs(limit int) []int64 {
	hps := w.shard.HotPages(limit)
	if len(hps) == 0 {
		return nil
	}
	out := make([]int64, 0, 2*len(hps))
	for _, hp := range hps {
		out = append(out, hp.Arr, int64(hp.Page))
	}
	return out
}

// rowOff maps a 1-based row index, the convention every distributed sweep
// in the ISA uses, to the offset of the row's first element.
func rowOff(h *istructure.Header, row int64) (int, bool) {
	if row < 1 || row > int64(h.Dims[0]) {
		return 0, false
	}
	if len(h.Dims) == 2 {
		return (int(row) - 1) * h.RowLen(), true
	}
	return int(row) - 1, true
}

// readRowPages calls fn with the page each of sp's array reads starts on:
// for every AREAD whose array and leading index are already in the frame,
// the page holding the first element of that row. For an unstarted SP —
// the only kind a steal grants — these are the pages its first reads
// touch.
func (w *worker) readRowPages(sp *spInst, fn func(h *istructure.Header, page int)) {
	for i := range sp.tmpl.Code {
		ins := &sp.tmpl.Code[i]
		if ins.Op != isa.AREAD || len(ins.Args) == 0 {
			continue
		}
		a, r := ins.A, ins.Args[0]
		if !sp.present[a] || sp.frame[a].Kind != isa.KindArray ||
			!sp.present[r] || sp.frame[r].Kind != isa.KindInt {
			continue
		}
		h := w.shard.Header(sp.frame[a].I)
		if h == nil {
			continue
		}
		if off, ok := rowOff(h, sp.frame[r].I); ok {
			fn(h, h.PageOf(off))
		}
	}
}

// pageScore counts how many of the thief's resident pages this SP's reads
// start on. Array-granular scoring cannot separate two iterations of a
// sweep over one shared array — every candidate scores 1 — but iteration
// i scores here on the page holding row i, which is exactly what the
// thief has or hasn't.
func (w *worker) pageScore(sp *spInst, pages map[heatKey]struct{}) int {
	n := 0
	w.readRowPages(sp, func(h *istructure.Header, page int) {
		if _, ok := pages[heatKey{h.ID, page}]; ok {
			n++
		}
	})
	return n
}

// grantPushMax bounds the pages one steal grant pushes ahead of itself.
const grantPushMax = 16

// pushGrantPages ships to the thief, ahead of a grant, the pages this
// worker owns that the batch's reads start on and the thief did not
// advertise as hot. A stolen iteration's first read of a row is the miss
// streaming prefetch cannot hide — no scan has started at the thief yet —
// and its owner is often the victim itself, which then saves the thief a
// request round trip. The pages go out as SP-0 KPages, the prefetch
// reply form, before the grant on the same link, so they install ahead of
// the SPs that read them; they count as prefetches here and as prefetch
// hits where they serve a read. With a cache cap the push is also bounded
// by the cap, so it cannot sweep the thief's cache.
func (w *worker) pushGrantPages(thief int, batch []*spInst, hot map[heatKey]struct{}) {
	budget := grantPushMax
	if c := w.shard.CacheCap; c > 0 && c < budget {
		budget = c
	}
	sent := make(map[heatKey]struct{})
	for _, sp := range batch {
		w.readRowPages(sp, func(h *istructure.Header, page int) {
			k := heatKey{h.ID, page}
			if _, ok := hot[k]; ok || budget == 0 {
				return
			}
			if _, ok := sent[k]; ok || h.OwnerOf(page*h.PageElems) != w.pe {
				return
			}
			_, pg, _, err := w.shard.ExtractPage(h.ID, page*h.PageElems)
			if err != nil || !slices.Contains(pg.Set, true) {
				return
			}
			sent[k] = struct{}{}
			budget--
			w.ctr[cPrefetches]++
			w.rec(trace.EvPrefetch, h.ID, int64(page))
			w.send(thief, &Msg{
				Kind: KPage,
				Arr:  h.ID,
				Page: int32(page),
				Off:  int32(page * h.PageElems),
				Vals: pg.Vals,
				Set:  pg.Set,
			})
		})
	}
}

// migrate bounds for one rebind: how many arrays are considered and how
// many pages one KRebound may prefetch in total.
const (
	migrateArrs = 4
	migrateMax  = 32
)

// migrateHotPages warms the cache for iterations a rebind newly assigned
// to this PE: for the hottest arrays, the pages holding the rows of the
// gained iteration range are prefetched, so the adapted copies start
// with residency instead of paying a cold remote fetch per row. Storage
// ownership never moves — only the computation rebinds — so the pages
// arrive through the ordinary prefetch path and the page budget bounds
// the burst. Iterations are taken as 1-based row indices, the convention
// every distributed sweep in the ISA uses.
func (w *worker) migrateHotPages(oldCuts, newCuts []int64) {
	newLo, newHi := cutBounds(newCuts, w.pe, w.n)
	oldLo, oldHi := int64(math.MaxInt64), int64(math.MinInt64) // empty before the first rebind
	if oldCuts != nil {
		oldLo, oldHi = cutBounds(oldCuts, w.pe, w.n)
	}
	budget := migrateMax
	for _, id := range w.shard.HotArrays(migrateArrs) {
		h := w.shard.Header(id)
		if h == nil || budget <= 0 {
			continue
		}
		lo, hi := newLo, newHi
		if lo < 1 {
			lo = 1
		}
		if rows := int64(h.Dims[0]); hi > rows {
			hi = rows
		}
		for row := lo; row <= hi && budget > 0; row++ {
			if row >= oldLo && row <= oldHi {
				continue // was already this PE's share
			}
			if off, ok := rowOff(h, row); ok && w.prefetchPage(h, h.PageOf(off)) {
				budget--
			}
		}
	}
}

// capGovernor self-tunes the shard's CachePages bound between a floor
// (the configured cap) and a ceiling (capCeilFactor times it) from
// observed refetch pressure. Refetches mean the bound is actively
// throwing away pages the run still needs — grow. Quiet rounds with no
// evictions at all mean the working set fits with room to spare — after
// capQuietRounds of them, shrink back toward the floor. Rounds that
// evict without refetching hold position: the bound is working at no
// cost, and reacting to them is what would oscillate.
type capGovernor struct {
	floor, ceil int
	cap         int
	quiet       int
}

const (
	capCeilFactor  = 8
	capQuietRounds = 3
)

// newCapGovernor builds a governor for a configured cap; a zero cap
// (unbounded cache) disables it.
func newCapGovernor(configured int) capGovernor {
	if configured <= 0 {
		return capGovernor{}
	}
	return capGovernor{floor: configured, ceil: configured * capCeilFactor, cap: configured}
}

// enabled reports whether the governor is active.
func (g *capGovernor) enabled() bool { return g.floor > 0 }

// tick observes one probe round's refetch and eviction deltas and moves
// the cap: growth is immediate and multiplicative (pressure is paid in
// remote fetches every round it persists), shrinking needs
// capQuietRounds eviction-free rounds (hysteresis). Returns the cap and
// whether it changed.
func (g *capGovernor) tick(refetchDelta, evictDelta int64) (int, bool) {
	if !g.enabled() {
		return 0, false
	}
	old := g.cap
	switch {
	case refetchDelta > 0:
		g.quiet = 0
		g.cap = min(g.ceil, g.cap+max(1, g.cap/2))
	case evictDelta == 0:
		g.quiet++
		if g.quiet >= capQuietRounds && g.cap > g.floor {
			g.cap = max(g.floor, g.cap-max(1, g.cap/4))
			g.quiet = 0
		}
	default:
		g.quiet = 0
	}
	return g.cap, g.cap != old
}
