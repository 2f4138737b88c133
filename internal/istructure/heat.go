package istructure

import "sort"

// The page-heat table is the shard's single source of truth about page
// residency and use. Every access path feeds it — cache probes
// (CacheLookup), page arrivals (InstallPage), evictions (evictAt), and
// owned-segment reads (ReadLocal) — and every consumer reads it back out:
// the CLOCK sweep's reference bits are heat deltas, refetch detection is
// the eviction-generation stamp, the locality summaries (HotPages for
// steal requests, HotArrays for rebind migration) rank by heat, and the
// streaming-prefetch scan detector is the per-page sequential-run length.
// Before this table the same facts lived in four places (per-slot ref
// bits, two generational eviction maps, an on-demand cache walk, and
// nothing at all for scans); now there is one record per (array, page)
// and four views of it.

// pageStat is one (array, page) entry of the heat table.
type pageStat struct {
	// slot is non-nil while the page is resident in the remote-page
	// cache; it is the same frame the CLOCK ring holds.
	slot *cacheSlot

	// owned marks a page that intersects this PE's owned segment (reads
	// of it never leave the shard). Owned pages are never cached, so
	// owned and slot are mutually exclusive in practice.
	owned bool

	// heat counts every touch of the page. The CLOCK reference bit is
	// derived, not stored: the page is "referenced" iff heat > sweep,
	// and clearing the bit is sweep = heat. A freshly installed page
	// starts with sweep == heat (unreferenced), exactly like the old
	// ring's ref=false entry.
	heat  int64
	sweep int64

	// touch is the instruction stamp (Shard.Now) of the latest access.
	touch int64

	// run is the sequential-run length ending at this page: touching
	// page p sets run to heat[p-1].run+1 when the preceding page has
	// been touched, else 1. A forward scan therefore carries a growing
	// run with it, which is the streaming-prefetch trigger.
	run int32

	// evicted/gen implement the refetch window: a page evicted in
	// generation g counts as a refetch if it is re-installed while the
	// shard is still in generation g or g+1 — the same two-generation
	// window (evictedGen evictions each) the old paired maps gave.
	evicted bool
	gen     int64
}

// maxRun caps the recorded run length (the detector only ever compares
// against small thresholds; the cap just keeps long scans from counting
// forever).
const maxRun = 1 << 20

// touchPage records one access to (id, page): bumps heat, stamps the
// touch time, and updates the sequential-run length. It returns the
// entry so callers can read residency or run state without a second
// lookup.
func (s *Shard) touchPage(id int64, page int) *pageStat {
	k := pageKey{id, page}
	e := s.heat[k]
	if e == nil {
		e = &pageStat{}
		s.heat[k] = e
	}
	e.heat++
	e.touch = s.Now
	run := int32(1)
	if page > 0 {
		if p := s.heat[pageKey{id, page - 1}]; p != nil && p.run > 0 && p.run < maxRun {
			run = p.run + 1
		}
	}
	e.run = run
	return e
}

// ScanRun reports the sequential-run length currently recorded at
// (id, page): how many consecutive pages, ending here, have been touched
// in ascending order. Zero when the page has never been touched.
func (s *Shard) ScanRun(id int64, page int) int32 {
	if e := s.heat[pageKey{id, page}]; e != nil {
		return e.run
	}
	return 0
}

// PageResident reports whether (id, page) is resident in the remote-page
// cache right now.
func (s *Shard) PageResident(id int64, page int) bool {
	e := s.heat[pageKey{id, page}]
	return e != nil && e.slot != nil
}

// PageLocal reports whether a read of (id, page) costs nothing remote:
// the page is cache-resident, or it lies in this PE's owned segment.
func (s *Shard) PageLocal(id int64, page int) bool {
	if s.PageResident(id, page) {
		return true
	}
	a := s.arrays[id]
	if a == nil {
		return false
	}
	h := a.h
	plo := page * h.PageElems
	phi := plo + h.PageElems
	if n := h.Elems(); phi > n {
		phi = n
	}
	return plo < a.base+len(a.vals) && phi > a.base
}

// HotPage is one entry of a page-granular locality summary: the page and
// its cumulative heat.
type HotPage struct {
	Arr  int64
	Page int
	Heat int64
}

// HotPages summarizes this shard's locality at page granularity for a
// steal request: the pages whose data is local here — cache-resident
// remote pages and touched owned pages — hottest first, at most limit
// entries. Unlike HotArrays, this carries signal even on a single shared
// array: each PE's summary names the *rows* it holds. Ties break on
// (array ID, page) so the summary is deterministic for a given state.
func (s *Shard) HotPages(limit int) []HotPage {
	if limit <= 0 {
		return nil
	}
	out := make([]HotPage, 0, len(s.heat))
	for k, e := range s.heat {
		if e.slot == nil && !e.owned {
			continue
		}
		out = append(out, HotPage{Arr: k.arr, Page: k.page, Heat: e.heat})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		if out[i].Arr != out[j].Arr {
			return out[i].Arr < out[j].Arr
		}
		return out[i].Page < out[j].Page
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
