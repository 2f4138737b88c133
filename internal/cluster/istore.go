package cluster

import (
	"fmt"
	"slices"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file holds the worker's distributed Array-Manager role: the message
// half of the I-structure memory. Local accesses go straight to the owned
// shard; remote accesses become KReadReq / KWrite messages to the owner,
// and the owner answers reads with whole-page shipments (KPage) or queues
// them as remote deferred reads released by the eventual write (§4, §5.1).

// allocMsg builds one KAlloc frame describing h — the single definition of
// the alloc broadcast's wire shape, shared by the original broadcast and
// both replay paths (worker and driver). Each call returns a fresh message
// with its own slices: a sent Msg is receiver-owned.
func allocMsg(h *istructure.Header) *Msg {
	dims := make([]int32, len(h.Dims))
	for i, d := range h.Dims {
		dims[i] = int32(d)
	}
	return &Msg{Kind: KAlloc, Arr: h.ID, Name: h.Name, Dims: dims,
		Origin: int32(h.Origin), Dist: h.Dist}
}

// execAlloc implements ALLOC/ALLOCD: build the header, install the local
// segment, broadcast the header to every other PE and the driver, and hand
// the array ID to the allocating SP.
func (w *worker) execAlloc(sp *spInst, ins *isa.Instr) {
	dims := make([]int, len(ins.Args))
	elems := 1
	for i, s := range ins.Args {
		dims[i] = int(sp.frame[s].AsInt())
		elems *= dims[i]
	}
	w.nextArr++
	id := packJobID(w.job, w.pe, w.inc, w.nextArr)
	name := ins.Comment
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	dist := ins.Op == isa.ALLOCD && elems >= w.geo.DistThreshold && w.n > 1
	h, err := istructure.NewHeader(id, name, dims, w.geo.PageElems, w.n, w.pe, dist)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return
	}
	w.installArray(h)
	if w.recover {
		w.allocLog = append(w.allocLog, h)
	}
	for pe := 0; pe <= w.n; pe++ { // every other worker, plus the driver
		if pe == w.pe {
			continue
		}
		w.send(pe, allocMsg(h))
	}
	sp.set(ins.Dst, isa.Array(id))
}

// installArray installs a header, wakes SPs suspended on it, and replays
// remote messages that arrived before the broadcast.
func (w *worker) installArray(h *istructure.Header) {
	fresh := w.shard.Header(h.ID) == nil
	if err := w.shard.Install(h); err != nil {
		w.fail(err)
		return
	}
	if fresh {
		// The install order is the checkpoint-dump iteration order; a
		// replayed duplicate broadcast must not enter the list twice.
		w.arrays = append(w.arrays, h.ID)
	}
	if sps := w.waitArray[h.ID]; len(sps) > 0 {
		for _, sp := range sps {
			w.enqueue(sp)
		}
		delete(w.waitArray, h.ID)
	}
	if msgs := w.pending[h.ID]; len(msgs) > 0 {
		delete(w.pending, h.ID)
		for _, m := range msgs {
			switch m.Kind {
			case KReadReq:
				w.handleReadReq(m)
			case KWrite:
				w.handleWrite(m)
			case KDumpReq:
				w.handleDumpReq(m)
			case KRestore:
				w.handleRestore(m)
			}
		}
	}
}

// offset resolves an access's index slots against the header.
func (w *worker) offset(sp *spInst, h *istructure.Header, idxSlots []int) (int, bool) {
	idx := make([]int64, len(idxSlots))
	for i, s := range idxSlots {
		idx[i] = sp.frame[s].AsInt()
	}
	off, err := h.Offset(idx)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return 0, false
	}
	return off, true
}

// execRead implements AREAD. Local present elements are immediate hits;
// local absent elements become deferred reads (the SP blocks when a later
// instruction consumes the slot); remote elements probe the page cache and
// otherwise ask the owner. Returns true when the SP suspended on a missing
// header (pc not advanced).
func (w *worker) execRead(sp *spInst, ins *isa.Instr) (suspended bool) {
	h := w.header(sp, ins.A)
	if h == nil {
		return true
	}
	off, ok := w.offset(sp, h, ins.Args)
	if !ok {
		return false
	}
	sp.present[ins.Dst] = false

	owner := h.OwnerOf(off)
	if owner == w.pe {
		v, res, err := w.shard.ReadLocal(h.ID, off, istructure.Waiter{PE: w.pe, SP: sp.id, Slot: ins.Dst})
		if err != nil {
			w.fail(err)
			return false
		}
		if res == istructure.ReadHit {
			sp.set(ins.Dst, v)
		}
		// ReadDeferred: the waiter is queued; the releasing write delivers.
		return false
	}

	if v, _, hit := w.shard.CacheLookup(h.ID, h, off); hit {
		w.ctr[cHits]++
		w.notePrefetchHit(h.ID, h.PageOf(off))
		sp.set(ins.Dst, v)
		w.maybePrefetch(h, off)
		return false
	}
	w.ctr[cMisses]++
	w.rec(trace.EvPageFetch, h.ID, int64(h.PageOf(off)))
	w.maybePrefetch(h, off)
	if w.recover {
		// Track the in-flight read so it can be re-issued if the owner is
		// respawned before answering (the entry clears on delivery).
		w.outReads[outReadKey{sp: sp.id, slot: int32(ins.Dst)}] =
			outRead{arr: h.ID, off: int32(off), owner: owner}
	}
	w.send(owner, &Msg{
		Kind:  KReadReq,
		Arr:   h.ID,
		Off:   int32(off),
		ReqPE: int32(w.pe),
		SP:    sp.id,
		Slot:  int32(ins.Dst),
	})
	return false
}

// execWrite implements AWRITE: owned elements are written in place (and
// release queued readers); remote elements travel to the owner as a KWrite.
// Returns true when the SP suspended on a missing header.
func (w *worker) execWrite(sp *spInst, ins *isa.Instr) (suspended bool) {
	h := w.header(sp, ins.A)
	if h == nil {
		return true
	}
	off, ok := w.offset(sp, h, ins.Args)
	if !ok {
		return false
	}
	val := sp.frame[ins.B]
	owner := h.OwnerOf(off)
	if owner == w.pe {
		w.ownerWrite(h.ID, off, val)
		return false
	}
	if w.recover {
		// Log the remote write: if the owner is respawned with an empty
		// shard, the log replays and the single-assignment store absorbs
		// any overlap with re-executed work idempotently.
		w.writeLog[owner] = append(w.writeLog[owner], writeRec{arr: h.ID, off: int32(off), val: val})
	}
	w.send(owner, &Msg{Kind: KWrite, Arr: h.ID, Off: int32(off), Val: val})
	return false
}

// ownerWrite stores an owned element and releases deferred readers: local
// waiters get a direct frame delivery, remote waiters a KToken ("Array
// Write: ... number_queued_reads * message_time", §5.1).
func (w *worker) ownerWrite(arr int64, off int, val isa.Value) {
	local, remote, err := w.shard.Write(arr, off, val)
	if err != nil {
		w.fail(err)
		return
	}
	for _, wt := range local {
		w.deliver(wt.SP, wt.Slot, val)
	}
	for _, rw := range remote {
		w.send(rw.PE, &Msg{Kind: KToken, SP: rw.SP, Slot: int32(rw.Slot), Val: val})
	}
}

// handleReadReq serves a remote read at the owner: present elements ship
// the whole containing page; absent elements queue a remote deferred read.
// A prefetch hint (SP 0 — never a live instance ID) ships the page
// snapshot as-is and never queues a waiter: nothing blocks on a prefetch,
// so an unproductive hint must cost at most the request frame.
func (w *worker) handleReadReq(m *Msg) {
	if w.shard.Header(m.Arr) == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	off := int(m.Off)
	if m.SP == 0 {
		pageIdx, pg, _, err := w.shard.ExtractPage(m.Arr, off)
		if err != nil {
			return // page not owned here (stale hint): drop silently
		}
		if !slices.Contains(pg.Set, true) {
			// An all-absent snapshot would occupy a cache frame at the
			// requester for nothing; the scan will re-ask via a demand
			// read when it actually arrives at the page.
			return
		}
		w.send(int(m.ReqPE), &Msg{
			Kind: KPage,
			Arr:  m.Arr,
			Page: int32(pageIdx),
			Off:  m.Off,
			Vals: pg.Vals,
			Set:  pg.Set,
		})
		return
	}
	if _, present := w.shard.Peek(m.Arr, off); present {
		pageIdx, pg, _, err := w.shard.ExtractPage(m.Arr, off)
		if err != nil {
			w.fail(err)
			return
		}
		w.send(int(m.ReqPE), &Msg{
			Kind: KPage,
			Arr:  m.Arr,
			Page: int32(pageIdx),
			Off:  m.Off,
			SP:   m.SP,
			Slot: m.Slot,
			Vals: pg.Vals,
			Set:  pg.Set,
		})
		return
	}
	if err := w.shard.QueueRemote(m.Arr, off, istructure.RemoteWaiter{PE: int(m.ReqPE), SP: m.SP, Slot: int(m.Slot)}); err != nil {
		w.fail(err)
	}
}

// handlePage installs a shipped page in the software cache and delivers the
// requested element to the waiting SP. With Config.CachePages set the
// install may evict a colder page (CLOCK, inside the shard) — and counts as
// a refetch if this page was itself evicted earlier; the element is
// delivered from the shipped snapshot either way, so even a page that is
// evicted again immediately cannot lose the read that fetched it.
func (w *worker) handlePage(m *Msg) {
	h := w.shard.Header(m.Arr)
	if h == nil {
		if m.SP == 0 {
			// A page pushed with a steal grant can overtake the header
			// broadcast (the victim sent it, not the allocating PE); it
			// is only a hint.
			return
		}
		// The requester had the header when it sent the request; a page
		// for an unknown array means protocol corruption.
		w.fail(fmt.Errorf("page for unknown array %d", m.Arr))
		return
	}
	k := heatKey{m.Arr, int(m.Page)}
	fresh := !w.shard.PageResident(m.Arr, int(m.Page))
	pg := &istructure.CachedPage{Vals: m.Vals, Set: m.Set}
	w.shard.InstallPage(m.Arr, int(m.Page), pg)
	delete(w.heat.inflight, k)
	if m.SP == 0 {
		// A prefetched or pushed page: the install is the whole job. No
		// element was requested, so neither the presence check nor a
		// delivery applies; the first demand hit on the page credits the
		// prefetch, unless the page was already resident.
		if fresh {
			w.heat.arrived[k] = struct{}{}
		}
		return
	}
	i := int(m.Off) - int(m.Page)*h.PageElems
	if i < 0 || i >= len(pg.Vals) || !pg.Set[i] {
		w.fail(fmt.Errorf("page %d of array %d shipped without requested element", m.Page, m.Arr))
		return
	}
	w.deliver(m.SP, int(m.Slot), pg.Vals[i])
}

// handleWrite performs a remote write at the owner.
func (w *worker) handleWrite(m *Msg) {
	if w.shard.Header(m.Arr) == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	w.ownerWrite(m.Arr, int(m.Off), m.Val)
}

// handleRestore applies one checkpoint-snapshot chunk to a respawned
// owner's segment: each present element becomes an idempotent owner write,
// releasing any deferred readers already queued against the empty shard.
// Kind information survives the round trip — the driver snapshots raw
// values, not a rendered form.
func (w *worker) handleRestore(m *Msg) {
	if w.shard.Header(m.Arr) == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	for i, set := range m.Set {
		if set {
			w.ownerWrite(m.Arr, int(m.Off)+i, m.Vals[i])
		}
	}
}

// handleDumpReq ships this PE's owned segment of an array to the driver
// (result gathering after termination).
func (w *worker) handleDumpReq(m *Msg) {
	h := w.shard.Header(m.Arr)
	if h == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	lo, hi := h.SegmentElems(w.pe)
	vals := make([]isa.Value, hi-lo)
	set := make([]bool, hi-lo)
	for off := lo; off < hi; off++ {
		if v, present := w.shard.Peek(m.Arr, off); present {
			vals[off-lo] = v
			set[off-lo] = true
		}
	}
	w.send(w.driverID(), &Msg{Kind: KDump, Arr: m.Arr, Off: int32(lo), Vals: vals, Set: set})
}
