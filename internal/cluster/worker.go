package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/rtcfg"
)

// spInst is one live SP instance on a worker: template, operand frame with
// presence bits, program counter, and the slot it is blocked on (isa.None
// while runnable). An instance normally belongs to the worker it was
// spawned on for life, matching the paper's model where an SP executes on
// the PE it was spawned on — with one exception: a not-yet-started
// instance (pc == 0) may be stolen by an idle peer, in which case the home
// worker keeps a forwarding stub so tokens addressed to the home ID still
// reach it.
type spInst struct {
	id      int64
	tmpl    *isa.Template
	frame   []isa.Value
	present []bool
	pc      int
	blocked int

	// stolen marks an instance installed here by a steal grant. Only such
	// instances can legally see tokens arrive after their HALT (the extra
	// relay hop through the home PE's forwarding stub is what lets a
	// token trail completion), so only they enter the halted set.
	// grantedFrom is the PE the grant came from (-1 for home-spawned
	// instances) and grantedInc that PE's incarnation when it granted: the
	// completion notice that lets grantors drop their stubs and grant
	// records travels back along grantedFrom, and a not-yet-started stolen
	// instance is discarded when its grantor's incarnation dies (the
	// grantor re-instantiates it, so keeping the copy would run the work
	// twice).
	stolen      bool
	grantedFrom int
	grantedInc  int32

	// Adaptive repartitioning (Config.Adapt). costLoop/costSweep/costIter
	// name the (Range-Filtered loop template, SPAWND fan-out, iteration)
	// this instance's executed instructions are charged to; costLoop is
	// -1 for untagged instances. A distributed loop copy carries its own
	// template as costLoop and charges dynamically to the current value of
	// its loop variable; every SP it spawns inherits the (loop, sweep) tag
	// with the iteration frozen at spawn time, so a whole iteration's
	// subtree — wherever stealing moves it — bills the iteration that
	// caused it.
	costLoop  int32
	costSweep int64
	costIter  int64

	// traced is the tracing decision for this instance's dispatch/complete
	// events: 0 undecided (made at first dispatch by the recorder's
	// deterministic sampler), 1 record, -1 skip. Deciding once per instance
	// keeps dispatch/complete pairs exact under sampling.
	traced int8

	// rbOn/rbLo/rbHi are explicit adaptive Range-Filter bounds stamped on
	// a distributed copy at fan-out: when set, the copy's RF instructions
	// yield these instead of consulting array ownership or the uniform
	// split, clamped against the loop's real index range. The ends of the
	// cut vector stamp ±inf, so the per-PE ranges partition any actual
	// range exactly even if it shifted since the costs were observed.
	rbOn       bool
	rbLo, rbHi int64
}

// worker is one PE: its own I-structure shard, its own SP instances and run
// queue, and an endpoint. Everything here is confined to the worker's
// goroutine (or process); the only communication is Endpoint.Send/Recv.
type worker struct {
	pe   int
	n    int
	geo  rtcfg.Geometry
	prog *isa.Program
	ep   Endpoint

	shard *istructure.Shard
	insts map[int64]*spInst

	// ready is a double-ended run queue in classic work-stealing
	// arrangement: the worker itself pushes and pops at the top (LIFO,
	// depth-first — it digs into the most recently spawned SP and its
	// children), while steal requests are served from the bottom, where
	// the oldest not-yet-started SPs sit. Depth-first local execution is
	// what keeps the bottom stealable: a breadth-first worker touches
	// every queued SP once during ramp-up, leaving only in-flight
	// instances that cannot migrate. Removal anywhere is O(1): bottom
	// removals advance readyHead over a dead prefix, mid-deque grants
	// leave nil tombstones (readyNil counts them) that the top pop skips,
	// and compactReady squeezes the dead entries out once they outnumber
	// the live ones — so neither the prefix nor the tombstones can grow
	// without bound on a long run whose queue never fully drains.
	ready     []*spInst
	readyHead int
	readyNil  int

	// waitArray holds SPs suspended mid-instruction on an array whose
	// header has not arrived yet (an alloc broadcast from another PE can
	// lose the race against a handle forwarded through a third PE).
	waitArray map[int64][]*spInst
	// pending holds remote messages (reads, writes) for such arrays.
	pending map[int64][]*Msg

	nextSP  int64
	nextArr int64

	// ctr is the worker's counter vector (counters.go); its sent/recv
	// entries are the termination detector's halves (worker-to-worker
	// data only). pub is the vector the previous probe published.
	ctr counters
	pub counters

	// Work stealing (enabled by Config.Steal). forwards maps the home ID
	// of a stolen SP to the endpoint it was granted to: any token that
	// arrives for the home ID is relayed there, and the relay itself
	// counts in sent/recv so four-counter termination stays sound. halted
	// records stolen-in SPs that ran here to completion — the forwarding
	// relay is the one path that can legally deliver a token after its
	// target's last consumed slot, so late tokens for those IDs are
	// dropped instead of failing the run. A home-spawned SP that never
	// migrated keeps the old invariant: a token after its HALT is a
	// protocol bug and fails loudly. Both maps are bounded by the number
	// of migrations, not total SPs.
	steal            bool
	stealOne         bool // legacy single-grant, locality-blind mode (the tests' reference policy)
	forwards         map[int64]int
	halted           map[int64]struct{}
	stealVictim      int   // round-robin cursor over peers
	stealFails       int   // consecutive KStealNone answers since last work
	stealWait        int   // idle wake-ups to skip before the next attempt
	dormantProbes    int   // probe rounds observed while dormant
	stealOutstanding bool  // one request in flight at a time
	lateTokens       int64 // tokens dropped for halted SPs

	// Steal-grant replay protection. A victim numbers the grants it sends
	// each thief (grantSeq); a thief remembers the highest grant sequence
	// applied per (victim, incarnation) (seenGrant) and drops a whole
	// grant at or below that mark, so a re-delivered completed grant can
	// never double-apply its SPs. Incarnation-keyed: a respawned victim's
	// counters legitimately restart from 1.
	grantSeq  map[int]int64
	seenGrant map[grantKey]int64
	dupGrants int64 // grants dropped by the sequence fence

	// job is the owning job's ID on a fleet (0 in direct single-run
	// harnesses); packed into every minted SP/array/sweep ID so two jobs'
	// object namespaces can never collide.
	job int32

	// Failure recovery (enabled by Config.Recover). inc is this worker's
	// own incarnation (0 for an original, >0 for a replacement); incs is
	// the known incarnation of every PE, updated by KRecover — frames from
	// an older incarnation of their sender are dropped at the handle
	// boundary. epoch is the termination-counting epoch: each recovery
	// bumps it and zeroes sent/recv everywhere, so the four-counter sums
	// never chase message counts that died with a worker. The logs hold
	// this worker's share of a dead peer's replayable state: writeLog the
	// remote writes it sent each PE, outReads its in-flight remote reads
	// (re-issued when the owner is respawned with an empty shard), and
	// grantLog deep copies of steal grants (re-instantiated when the thief
	// dies holding them; dropped when KStealDone reports completion).
	recover   bool
	inc       int32
	epoch     int32
	minEpoch  int32 // epoch this incarnation was born into (birth fence)
	incs      []int32
	recovered bool  // some recovery has happened: tolerate duplicate-execution tokens
	staleMsgs int64 // frames and tokens dropped by incarnation fencing
	deadSends int64 // peer sends dropped on transport failure (replay covers them)
	writeLog  map[int][]writeRec
	outReads  map[outReadKey]outRead
	grantLog  map[int64]grantRec
	allocLog  []*istructure.Header // arrays this worker allocated (broadcasts replayed)
	fanoutLog []fanoutRec          // SPAWND fan-outs this worker performed

	// Replay-log GC (driver-coordinated checkpoints; see KCkpt). arrays
	// lists every installed array ID, the iteration order for checkpoint
	// dumps of owned segments. ckpt* is the in-flight checkpoint: its ID,
	// the per-destination write-log cut recorded when it started, and the
	// sweeps it proposes to GC. ckptMark records peer marks keyed by
	// checkpoint ID — a peer's mark can overtake this worker's own KCkpt
	// (different FIFO streams), so early marks are held until the KCkpt
	// names them. Stale entries are pruned when the next checkpoint starts.
	arrays     []int64
	ckptID     int64
	ckptDumped bool
	ckptCuts   map[int]int
	ckptSweeps []int64
	ckptMark   map[int64]map[int]bool

	// Epoch flushing. A frame sent in an older epoch is invisible to the
	// new epoch's counters on both ends, so the sums alone cannot prove
	// it has landed. Each worker therefore sends a KFlush marker to every
	// peer when it adopts a new epoch (after repointing — the marker
	// trails every pre-epoch frame on each FIFO stream), and reports
	// Flushed in its acks once it holds markers from all peers: only then
	// can no uncounted frame still be in flight toward it. flushFrom
	// tracks the current epoch's markers.
	flushFrom []bool
	flushed   int

	// Adaptive repartitioning (enabled by Config.Adapt). cuts holds the
	// latest KRebound cut vector per distributed loop template; a SPAWND
	// fan-out of such a loop stamps each copy with its PE's explicit
	// bounds, so one spawner fixes one consistent partition per sweep.
	// costAcc accumulates executed-instruction counts per (loop, sweep,
	// iteration) between probe flushes; nextSweep numbers this worker's
	// fan-outs (packed with the PE index into a globally unique sweep ID).
	adapt     bool
	cuts      map[int][]int64
	costAcc   map[costKey]int64
	nextSweep int64

	// heat is the worker-side page-heat machinery: the prefetch dedup and
	// credit tables and the adaptive-cap governor. See heat.go.
	heat heatState

	// sliceSteps counts step() calls since the last cooperative yield.
	sliceSteps int

	// tr is the observability event recorder (Config.Trace); nil when
	// tracing is off, so every hook is a single nil check.
	tr *trace.Recorder

	failed  bool
	stopped bool
}

// rec records one trace event when tracing is on. The worker's instruction
// counter is the event's deterministic timestamp.
func (w *worker) rec(k trace.Kind, arg0, arg1 int64) {
	if w.tr != nil {
		w.tr.Record(k, w.ctr[cInstrs], arg0, arg1)
	}
}

// qdepth reports the live ready-queue depth (tombstones excluded).
func (w *worker) qdepth() int64 {
	return int64(len(w.ready) - w.readyHead - w.readyNil)
}

// snapshot reads the worker's counter vector at a probe: its own counts
// plus the shard-internal ones and the gauges.
func (w *worker) snapshot() counters {
	c := w.ctr
	c[cDeferred] = w.shard.DeferredReads
	c[cEvicts] = w.shard.Evictions
	c[cRefetches] = w.shard.Refetches
	c[cCacheCap] = int64(w.shard.CacheCap)
	c[cQDepth] = w.qdepth()
	c[cLive] = int64(len(w.insts))
	return c
}

// costKey identifies one cost-accounting bucket: the Range-Filtered loop
// template, the SPAWND fan-out (sweep), and the iteration index.
type costKey struct {
	loop  int32
	sweep int64
	iter  int64
}

// writeRec is one logged remote write (replayed to a respawned owner).
type writeRec struct {
	arr int64
	off int32
	val isa.Value
}

// outReadKey identifies one in-flight remote read by its delivery target.
type outReadKey struct {
	sp   int64
	slot int32
}

// outRead is the request half of an in-flight remote read, kept so it can
// be re-issued against a respawned owner whose deferred-read queues died
// with its shard.
type outRead struct {
	arr   int64
	off   int32
	owner int
}

// grantRec is a deep copy of one steal grant: enough to re-instantiate the
// SP if the thief dies holding it. from is where this worker itself got
// the SP (-1 if home-spawned here) — the hop a KStealDone is relayed to.
type grantRec struct {
	item  StealItem
	thief int
	from  int
}

// grantKey identifies one victim incarnation in a thief's seenGrant table.
type grantKey struct {
	pe  int
	inc int32
}

// fanoutRec is one SPAWND fan-out this worker performed: the spawner is
// the one authority on what each PE was assigned, so a respawned peer's
// copy is replayed from here — no wire race can lose it. cuts aliases the
// cut vector stamped at fan-out time (replaced wholesale by rebinds, never
// mutated), so the replayed copy carries bit-identical bounds.
type fanoutRec struct {
	tmpl  int32
	args  []isa.Value
	sweep int64
	cuts  []int64
}

func newWorker(pe, n int, geo rtcfg.Geometry, prog *isa.Program, ep Endpoint, opts workerOpts) *worker {
	w := &worker{
		pe:          pe,
		n:           n,
		geo:         geo,
		prog:        prog,
		ep:          ep,
		steal:       opts.steal && n > 1,
		adapt:       opts.adapt && n > 1,
		shard:       istructure.NewShard(pe),
		insts:       make(map[int64]*spInst),
		waitArray:   make(map[int64][]*spInst),
		pending:     make(map[int64][]*Msg),
		forwards:    make(map[int64]int),
		halted:      make(map[int64]struct{}),
		costAcc:     make(map[costKey]int64),
		stealVictim: pe, // first attempt targets (pe+1) mod n
	}
	w.shard.CacheCap = opts.cachePages
	w.heat = newHeatState(opts.cachePages)
	if opts.trace {
		w.tr = trace.New(opts.traceCap, opts.traceSample)
		// The shard's eviction point is the one place a cached page dies;
		// hooking it there catches both InstallPage paths.
		w.shard.OnEvict = func(arr int64, page int) {
			w.tr.Record(trace.EvPageEvict, w.ctr[cInstrs], arr, int64(page))
		}
	}
	return w
}

// enableRecovery arms the worker-side recovery machinery: incarnation
// fencing, epoch-reset termination counting, write/grant logging,
// outstanding-read tracking, and idempotent absorption of replayed writes.
// inc is this worker's own incarnation (>0 for a replacement), epoch the
// counting epoch it joins, incs the known incarnation of every PE.
func (w *worker) enableRecovery(inc, epoch int32, incs []int32) {
	w.recover = true
	w.inc = inc
	w.epoch = epoch
	w.minEpoch = epoch
	if incs == nil {
		incs = make([]int32, w.n)
	}
	w.incs = incs
	w.recovered = inc > 0 || epoch > 0
	w.writeLog = make(map[int][]writeRec)
	w.outReads = make(map[outReadKey]outRead)
	w.grantLog = make(map[int64]grantRec)
	w.flushFrom = make([]bool, w.n)
	w.shard.Idempotent = true
	if epoch > 0 {
		// A replacement joins mid-run: its streams carry no pre-epoch
		// frames, so its markers can go out immediately.
		w.sendFlush()
	}
}

// bumpEpoch adopts a newer counting epoch: zero the four-counter halves
// and invalidate the previous epoch's flush markers. The worker's own
// markers go out via sendFlush once the transport is repointed (KRecover),
// or immediately for a freshly-joined replacement.
func (w *worker) bumpEpoch(epoch int32) {
	w.epoch = epoch
	w.ctr[cSent], w.ctr[cRecv] = 0, 0
	w.recovered = true
	w.rec(trace.EvEpoch, int64(epoch), 0)
	if w.flushFrom != nil {
		clear(w.flushFrom)
		w.flushed = 0
	}
	// An in-flight checkpoint dies with the old epoch: the driver aborts it
	// on its side (the proposed sweeps return to pending) and a stale mark
	// or OK must not resurrect it here. Aborted checkpoint IDs are never
	// reused, so clearing the mark table cannot lose marks of a live one.
	w.ckptID = 0
	w.ckptDumped = false
	w.ckptCuts = nil
	w.ckptSweeps = nil
	w.ckptMark = nil
}

// sendFlush announces this worker's current epoch to every peer. Sent
// after a bump's repointing, so each per-pair FIFO stream delivers the
// marker behind every frame this worker emitted in older epochs.
func (w *worker) sendFlush() {
	for pe := 0; pe < w.n; pe++ {
		if pe == w.pe {
			continue
		}
		w.send(pe, &Msg{Kind: KFlush})
	}
}

// epochFlushed reports whether this worker has proof that no frame from an
// older counting epoch can still be in flight toward it.
func (w *worker) epochFlushed() bool {
	return w.epoch == 0 || w.flushed == w.n-1
}

// driverID is the endpoint index of the driver for this worker's cluster.
func (w *worker) driverID() int { return w.n }

// send transmits m to endpoint `to`, counting worker-to-worker data traffic.
// Every frame is stamped with the sender's epoch and incarnation so
// receivers can fence a dead predecessor's traffic and keep the counting
// epochs coherent.
func (w *worker) send(to int, m *Msg) {
	m.Epoch, m.Inc = w.epoch, w.inc
	if to != w.driverID() && m.Kind.isData() {
		w.ctr[cSent]++
	}
	if err := w.ep.Send(to, m); err != nil {
		if errors.Is(err, ErrClosed) {
			// This worker's own endpoint is gone — the fault injector fired
			// or the run is shutting down. The "machine" is off: go silent.
			w.stopped = true
			return
		}
		if w.recover && to != w.driverID() {
			// The peer is unreachable — dead, dying, or being replaced.
			// Dropping the frame is recoverable: every durable effect a
			// worker sends a peer is covered by a replay log (writes,
			// headers, fan-outs, grants, outstanding reads), and tokens
			// addressed to the dead incarnation are moot once its work is
			// re-executed under fresh IDs. If no recovery comes, the probe
			// round stalls and fails the run with diagnostics. The sent
			// count stays in place, keeping the sums unequal until the
			// recovery epoch resets them — a lost frame can never fake
			// termination.
			w.deadSends++
			return
		}
		w.fail(err)
	}
}

// fail reports the first fatal error to the driver and stops executing SPs.
// The worker keeps serving control messages until the driver says stop.
// The frame is stamped like every other send — a replacement's unstamped
// KFail would be dropped by the driver's incarnation fence and turn a
// loud failure into a hang.
func (w *worker) fail(err error) {
	if w.failed {
		return
	}
	w.failed = true
	_ = w.ep.Send(w.driverID(), &Msg{Kind: KFail, Epoch: w.epoch, Inc: w.inc,
		Name: fmt.Sprintf("pe %d: %v", w.pe, err)})
}

// enqueue appends an SP to the ready queue. Arriving work also resets the
// steal backoff: the worker is demonstrably not starving, so the next idle
// spell starts probing victims from scratch.
func (w *worker) enqueue(sp *spInst) {
	w.compactReady()
	w.ready = append(w.ready, sp)
	w.stealFails = 0
	w.stealWait = 0
}

// compactReady reclaims the deque's dead entries — the nil prefix left by
// bottom (steal) removals plus the mid-deque tombstones — once they
// outnumber the live entries. The old code only reset on a full drain, so
// a long run whose queue never emptied grew the slice without bound.
// Amortized O(1): each compaction moves at most as many live entries as
// dead ones were reclaimed.
func (w *worker) compactReady() {
	dead := w.readyHead + w.readyNil
	if dead == 0 || dead*2 <= len(w.ready) {
		return
	}
	live := w.ready[:0]
	for _, sp := range w.ready[w.readyHead:] {
		if sp != nil {
			live = append(live, sp)
		}
	}
	for i := len(live); i < len(w.ready); i++ {
		w.ready[i] = nil
	}
	w.ready = live
	w.readyHead, w.readyNil = 0, 0
}

// debugDump prints this worker's live state to stderr when
// PODS_CLUSTER_DEBUG is set (deadlock diagnosis in tests).
func (w *worker) debugDump(why string) {
	if os.Getenv("PODS_CLUSTER_DEBUG") == "" {
		return
	}
	for id, sp := range w.insts {
		fmt.Fprintf(os.Stderr, "DEBUG(%s) pe %d inc %d live SP %d (job %d pe %d inc %d) tmpl %q pc %d blocked %d stolen %v\n",
			why, w.pe, w.inc, id, jobOf(id), peOf(id), incOf(id), sp.tmpl.Name, sp.pc, sp.blocked, sp.stolen)
	}
	fmt.Fprintf(os.Stderr, "DEBUG(%s) pe %d inc %d pendingReads %d waitArray %d outReads %d ready %d epoch %d sent %d recv %d\n",
		why, w.pe, w.inc, w.shard.PendingReads(), len(w.waitArray), len(w.outReads), len(w.ready)-w.readyHead-w.readyNil, w.epoch, w.ctr[cSent], w.ctr[cRecv])
}

// run is the worker main loop: drain the mailbox, then execute ready SPs;
// block on the endpoint when there is nothing to do — after first trying
// to steal work from a peer if stealing is enabled.
func (w *worker) run(ctx context.Context) {
	for !w.stopped {
		for {
			m, ok := w.ep.TryRecv()
			if !ok {
				break
			}
			w.handle(m)
			if w.stopped {
				return
			}
		}
		if w.failed || w.readyHead == len(w.ready) {
			w.maybeSteal()
			m, err := w.ep.Recv(ctx)
			if err != nil {
				w.debugDump("recv-exit")
				return
			}
			w.handle(m)
			continue
		}
		w.step()
		// Yield to the Go scheduler periodically. On a host with fewer
		// cores than PEs a compute-bound worker would otherwise hold its
		// core for a whole preemption quantum (~10ms), serializing the
		// "parallel" PEs into long bursts and stretching a steal
		// request/grant round trip to multiple quanta. A cooperative
		// yield every few steps keeps the PEs finely interleaved — much
		// closer to the paper's independent-processor model — for ~100ns
		// every couple thousand instructions. With idle cores available
		// the yield is a no-op.
		w.sliceSteps++
		if w.sliceSteps >= yieldEvery {
			w.sliceSteps = 0
			runtime.Gosched()
		}
	}
}

// yieldEvery is the number of step() calls between cooperative yields.
const yieldEvery = 64

// stealReviveProbes is the number of probe rounds a dormant worker waits
// before retrying a full steal sweep.
const stealReviveProbes = 8

// stealDormantAfter returns the consecutive-failure count after which an
// idle worker stops asking: two full sweeps of its peers. Termination
// detection does not need the bound (request/none traffic is not counted
// by the four counters), but an endgame where every idle worker polls
// every busy worker each probe round is pure overhead; going dormant until
// new work arrives caps it. Any newly enqueued work resets the counter.
func (w *worker) stealDormantAfter() int { return 2 * (w.n - 1) }

// maybeSteal sends one KStealReq when this worker is idle and allowed to:
// stealing enabled, nothing in flight, backoff elapsed, not dormant. The
// victim is chosen round-robin over the other PEs; each KStealNone grows
// the wait linearly (idle wake-ups are paced by incoming traffic — in the
// steady state, the driver's probe rounds).
func (w *worker) maybeSteal() {
	if !w.steal || w.failed || w.stopped || w.stealOutstanding {
		return
	}
	if w.stealFails >= w.stealDormantAfter() {
		return
	}
	if w.stealWait > 0 {
		w.stealWait--
		return
	}
	w.stealVictim = (w.stealVictim + 1) % w.n
	if w.stealVictim == w.pe {
		w.stealVictim = (w.stealVictim + 1) % w.n
	}
	w.stealOutstanding = true
	w.rec(trace.EvStealReq, int64(w.stealVictim), 0)
	// The request advertises the pages that are hot here, so the victim
	// can prefer granting SPs whose operand rows this worker already holds
	// — a stolen iteration that reads a hot page pays cache hits instead
	// of fresh page fetches. The summary is page-granular, so it tells
	// apart iterations of a single shared array.
	w.send(w.stealVictim, &Msg{Kind: KStealReq, HotPages: w.hotPagePairs(stealHotMax)})
}

// stealHotMax caps the hot-page summary a steal request carries.
const stealHotMax = 16

// stealBatch selects and removes up to half of the stealable backlog for a
// thief whose resident pages include hot: nil
// when the victim is unloaded (fewer than two live entries — it must stay
// loaded after granting) or holds only in-flight SPs. Selection prefers
// SPs whose operand rows are resident at the thief (more hot pages first)
// and is stable within equal locality, so with no locality signal the
// grant is the oldest not-yet-started SPs in age order — for a loop nest,
// whole outer iterations rather than inner fragments. Removal never shifts the
// deque: the bottom entry advances readyHead, mid-deque entries become nil
// tombstones (amortized O(1) per grant, reclaimed by compactReady).
//
// Distributed (Range-Filtered) templates are pinned: their ROWLO/UNIFLO/…
// instructions clamp the index range to the executing PE's area of
// responsibility, so running one on a different PE would recompute that
// PE's share — a double write, not a migration. Everything else is
// location-independent: its inputs travel in the operand frame.
func (w *worker) stealBatch(hot map[heatKey]struct{}) []*spInst {
	live := len(w.ready) - w.readyHead - w.readyNil
	if live < 2 {
		return nil
	}
	var cand []int // deque indices of stealable SPs, oldest first
	for i := w.readyHead; i < len(w.ready); i++ {
		sp := w.ready[i]
		if sp == nil || sp.pc != 0 || sp.tmpl.Distributed {
			continue
		}
		if w.recover && sp.stolen {
			// With recovery armed, a stolen-in SP is pinned: re-granting it
			// would chain grant records across PEs, and a middle hop dying
			// after the SP started at the final thief would make its
			// grantor re-instantiate a second live copy under the same home
			// ID — the two copies would race for each other's tokens. A
			// one-hop migration keeps exactly one re-instantiation
			// authority per grant.
			continue
		}
		cand = append(cand, i)
	}
	if len(cand) == 0 {
		return nil
	}
	limit := (len(cand) + 1) / 2 // steal-half, rounded up so one SP still moves
	if limit > live-1 {
		limit = live - 1
	}
	if w.stealOne {
		// Legacy PR 2 policy, the reference the batched policy is tested
		// against: one SP, oldest first, locality-blind.
		limit, hot = 1, nil
	}
	if len(hot) > 0 && len(cand) > 1 {
		// Rank by the rows the thief actually holds. Score each candidate
		// once (the comparator would otherwise rescan every template
		// O(log k) times per candidate).
		scores := make(map[int]int, len(cand))
		for _, idx := range cand {
			scores[idx] = w.pageScore(w.ready[idx], hot)
		}
		sort.SliceStable(cand, func(i, j int) bool {
			return scores[cand[i]] > scores[cand[j]]
		})
	}
	if len(cand) > limit {
		cand = cand[:limit]
	}
	batch := make([]*spInst, len(cand))
	for i, idx := range cand {
		batch[i] = w.ready[idx]
		w.ready[idx] = nil
		w.readyNil++
	}
	// Normalize: tombstones at the bottom become dead prefix.
	for w.readyHead < len(w.ready) && w.ready[w.readyHead] == nil {
		w.readyHead++
		w.readyNil--
	}
	w.compactReady()
	return batch
}

// handleStealReq answers a peer's steal request: grant up to half of the
// stealable backlog in one batch (leaving a forwarding stub per home ID),
// preceded by the owned pages its reads start on, or decline.
func (w *worker) handleStealReq(m *Msg) {
	thief := int(m.From)
	if thief < 0 || thief >= w.n || thief == w.pe {
		w.fail(fmt.Errorf("steal request from invalid PE %d", thief))
		return
	}
	var batch []*spInst
	hot := make(map[heatKey]struct{}, len(m.HotPages)/2)
	for i := 0; i+1 < len(m.HotPages); i += 2 {
		hot[heatKey{m.HotPages[i], int(m.HotPages[i+1])}] = struct{}{}
	}
	if !w.failed {
		batch = w.stealBatch(hot)
	}
	if len(batch) == 0 {
		w.send(thief, &Msg{Kind: KStealNone})
		return
	}
	if !w.stealOne {
		w.pushGrantPages(thief, batch, hot)
	}
	items := make([]StealItem, len(batch))
	for i, sp := range batch {
		// The SP leaves this worker's live set the moment it is granted;
		// the grant in flight keeps the four counters unequal, so a probe
		// round cannot terminate around the migrating batch. One stub per
		// item relays tokens addressed to the home IDs.
		delete(w.insts, sp.id)
		w.forwards[sp.id] = thief
		// The frame slices travel with the grant; the receiver owns them
		// now. The cost-attribution tag travels too, so a migrated
		// iteration keeps billing the iteration (on the loop that spawned
		// it) that caused it.
		items[i] = StealItem{
			SP:       sp.id,
			Tmpl:     int32(sp.tmpl.ID),
			CostLoop: sp.costLoop,
			Sweep:    sp.costSweep,
			CostIter: sp.costIter,
			Args:     sp.frame,
			Set:      sp.present,
		}
		if w.recover {
			// A deep copy stays behind: if the thief's incarnation dies
			// holding the SP, this worker re-instantiates it from the copy.
			// The record is dropped when KStealDone reports completion.
			it := items[i]
			it.Args = append([]isa.Value(nil), sp.frame...)
			it.Set = append([]bool(nil), sp.present...)
			w.grantLog[sp.id] = grantRec{item: it, thief: thief, from: sp.grantedFrom}
		}
	}
	w.rec(trace.EvStealGrant, int64(thief), int64(len(items)))
	// Grants to each thief are numbered from 1 so the thief can fence a
	// re-delivered (replayed) grant it has already applied.
	if w.grantSeq == nil {
		w.grantSeq = make(map[int]int64)
	}
	w.grantSeq[thief]++
	w.send(thief, &Msg{Kind: KStealGrant, Seq: w.grantSeq[thief], Batch: items})
}

// handleStealDone retires one completed steal grant: the stub becomes a
// halted tombstone (late tokens drop here instead of relaying to a thief
// that would drop them anyway), the grant record is freed, and the notice
// is relayed one hop toward the SP's home so the whole chain cleans up.
func (w *worker) handleStealDone(m *Msg) {
	e, ok := w.grantLog[m.SP]
	if !ok {
		return
	}
	delete(w.grantLog, m.SP)
	delete(w.forwards, m.SP)
	w.halted[m.SP] = struct{}{}
	if e.from >= 0 {
		w.send(e.from, &Msg{Kind: KStealDone, SP: m.SP})
	}
}

// applyRecover handles a KRecover announcement on a surviving worker:
// adopt the new counting epoch, fence the dead incarnations, repoint the
// transport at the replacement addresses, and replay this worker's share
// of the lost state toward each respawned PE.
func (w *worker) applyRecover(m *Msg) {
	if m.Epoch > w.epoch {
		w.bumpEpoch(m.Epoch)
	}
	w.recovered = true
	if w.incs == nil {
		w.incs = make([]int32, w.n)
	}
	var dead []int
	for pe, inc := range m.Incs {
		if pe < len(w.incs) && pe != w.pe && inc > w.incs[pe] {
			w.incs[pe] = inc
			dead = append(dead, pe)
		}
	}
	if len(m.Peers) > 0 {
		if rp, ok := w.ep.(interface{ Repoint([]string) }); ok {
			rp.Repoint(m.Peers)
		}
	}
	for _, k := range dead {
		w.replayFor(k)
	}
	// Markers last: the transport now points at the replacements, and on
	// every stream the marker trails all of this worker's older-epoch
	// frames (and the replays above, which is fine — they are counted in
	// the current epoch).
	w.sendFlush()
}

// replayFor re-creates this worker's share of a respawned PE k's lost
// state. Single assignment is what makes each piece replayable without
// coordination: re-sent writes are absorbed idempotently, re-issued reads
// fetch immutable data, and re-instantiated SPs regenerate exactly the
// values their first execution produced.
func (w *worker) replayFor(k int) {
	// Headers this worker allocated: the original broadcast to k may have
	// died with the old incarnation (or been dropped while its address was
	// dark), and nothing re-executes a completed ALLOC — so the broadcast
	// itself is replayed, and duplicate installs are absorbed.
	for _, h := range w.allocLog {
		w.send(k, allocMsg(h))
	}
	// The dead shard's owned segments lost every remote write this worker
	// ever sent it; play the log back so the replacement's store converges
	// with what the survivors have already read.
	for _, wr := range w.writeLog[k] {
		w.send(k, &Msg{Kind: KWrite, Arr: wr.arr, Off: wr.off, Val: wr.val})
	}
	// Every fan-out this worker performed is re-sent: k's copy of each one
	// died with its shard (or on the wire), and re-execution regenerates
	// exactly the writes the first execution produced, absorbed
	// idempotently where they overlap surviving state.
	for i := range w.fanoutLog {
		f := &w.fanoutLog[i]
		m := &Msg{Kind: KSpawn, Tmpl: f.tmpl, Sweep: f.sweep,
			Args: append([]isa.Value(nil), f.args...)}
		if f.cuts != nil {
			m.RngOn = true
			m.RngLo, m.RngHi = cutBounds(f.cuts, k, w.n)
		}
		w.send(k, m)
		w.ctr[cReplayed]++
	}
	// In-flight reads owned by k — requested, queued as deferred reads in
	// the dead shard, or answered by a page that died on the wire — are
	// re-issued against the replacement; the blocked SPs wake when the
	// replayed writes land.
	for key, rd := range w.outReads {
		if rd.owner != k {
			continue
		}
		w.send(k, &Msg{Kind: KReadReq, Arr: rd.arr, Off: rd.off,
			ReqPE: int32(w.pe), SP: key.sp, Slot: key.slot})
	}
	// SPs granted to the dead incarnation are re-instantiated from the
	// grant-time copies and run here as if the steal never happened.
	for id, e := range w.grantLog {
		if e.thief != k {
			continue
		}
		delete(w.grantLog, id)
		delete(w.forwards, id)
		tmpl := w.prog.Template(int(e.item.Tmpl))
		if tmpl == nil {
			w.fail(fmt.Errorf("grant log for %d names unknown template %d", id, e.item.Tmpl))
			return
		}
		sp := &spInst{
			id:          id,
			tmpl:        tmpl,
			frame:       e.item.Args,
			present:     e.item.Set,
			blocked:     isa.None,
			stolen:      e.from >= 0,
			grantedFrom: e.from,
			costLoop:    e.item.CostLoop,
			costSweep:   e.item.Sweep,
			costIter:    e.item.CostIter,
		}
		w.insts[id] = sp
		w.enqueue(sp)
		w.ctr[cReplayed]++
	}
	// Conversely, not-yet-started SPs the dead incarnation granted *to*
	// this worker are discarded: their grantor (or the replacement's
	// replay) re-creates them, and an untouched queue entry has produced
	// no observable effect, so dropping it is always safe and prevents
	// double execution.
	for i := w.readyHead; i < len(w.ready); i++ {
		sp := w.ready[i]
		if sp == nil || !sp.stolen || sp.pc != 0 ||
			sp.grantedFrom != k || sp.grantedInc >= w.incs[k] {
			continue
		}
		delete(w.insts, sp.id)
		w.ready[i] = nil
		w.readyNil++
	}
	for w.readyHead < len(w.ready) && w.ready[w.readyHead] == nil {
		w.readyHead++
		w.readyNil--
	}
	w.compactReady()
	// A steal request addressed to the dead incarnation will never be
	// answered; clear the in-flight latch so this worker can ask again.
	if w.stealOutstanding && w.stealVictim == k {
		w.stealOutstanding = false
	}
}

// installStolen installs each granted SP under its home ID and runs it as
// if it had been spawned here.
func (w *worker) installStolen(m *Msg) {
	w.stealOutstanding = false
	if len(m.Batch) == 0 {
		w.fail(errors.New("empty steal grant"))
		return
	}
	// Grant-sequence fence: a victim numbers its grants per thief, and a
	// re-delivered grant at or below the highest sequence already applied
	// from this (victim, incarnation) is dropped whole — its SPs were
	// installed (and may have run to completion) the first time, so
	// re-applying would fail the duplicate-live-SP check at best and run the
	// work twice at worst. Keyed by incarnation: a respawned victim's
	// numbering legitimately restarts from 1.
	key := grantKey{pe: int(m.From), inc: m.Inc}
	if m.Seq != 0 {
		if w.seenGrant == nil {
			w.seenGrant = make(map[grantKey]int64)
		}
		if m.Seq <= w.seenGrant[key] {
			w.dupGrants++
			return
		}
		w.seenGrant[key] = m.Seq
	}
	w.rec(trace.EvStealIn, int64(m.From), int64(len(m.Batch)))
	for i := range m.Batch {
		it := &m.Batch[i]
		tmpl := w.prog.Template(int(it.Tmpl))
		if tmpl == nil {
			w.fail(fmt.Errorf("steal grant with unknown template %d", it.Tmpl))
			return
		}
		if len(it.Args) != tmpl.NSlots || len(it.Set) != tmpl.NSlots {
			w.fail(fmt.Errorf("steal grant for %q with %d/%d slots, want %d",
				tmpl.Name, len(it.Args), len(it.Set), tmpl.NSlots))
			return
		}
		if w.insts[it.SP] != nil {
			w.fail(fmt.Errorf("steal grant duplicates live SP %d", it.SP))
			return
		}
		// Re-acquiring an SP this worker once granted away must clear its
		// own stale stub, or the stub chain forms a relay cycle once the
		// SP halts here (deliver prefers forwards over halted).
		delete(w.forwards, it.SP)
		delete(w.grantLog, it.SP)
		sp := &spInst{
			id:          it.SP,
			tmpl:        tmpl,
			frame:       it.Args,
			present:     it.Set,
			blocked:     isa.None,
			stolen:      true,
			grantedFrom: int(m.From),
			grantedInc:  m.Inc,
			costLoop:    it.CostLoop,
			costSweep:   it.Sweep,
			costIter:    it.CostIter,
		}
		w.insts[sp.id] = sp
		w.ctr[cSteals]++
		w.enqueue(sp)
	}
}

// handle dispatches one incoming message.
func (w *worker) handle(m *Msg) {
	// Incarnation fence: a frame from a dead incarnation of its sender is
	// dropped whole, whatever its kind. Every effect the old incarnation
	// produced is regenerated by the replay protocol, so processing the
	// stale frame could only duplicate or corrupt — and a zombie (a worker
	// presumed dead that is still limping) is silenced the same way.
	if f := int(m.From); f >= 0 && f < w.n && w.incs != nil && m.Inc < w.incs[f] {
		w.staleMsgs++
		return
	}
	// Birth-epoch fence: a replacement joins at its recovery's new epoch,
	// and any peer frame stamped with an older one was in flight toward
	// its dead predecessor (on a fleet, the re-homed host faithfully
	// stashes and delivers traffic a severed mailbox used to drop). The
	// predecessor's requests died with it and everything durable is
	// replayed under the new epoch, so a pre-birth frame can only
	// duplicate or corrupt. Driver frames are exempt: the driver's stream
	// is repointed at respawn, so nothing pre-birth survives on it.
	if int(m.From) != w.driverID() && m.Epoch < w.minEpoch {
		w.staleMsgs++
		return
	}
	// Epoch piggyback: a frame from a newer counting epoch proves a
	// recovery happened; adopt it before counting so the four-counter sums
	// only ever mix messages of one epoch. (The KRecover that explains the
	// epoch follows on the driver stream; the counters cannot wait for it.)
	if m.Epoch > w.epoch {
		w.bumpEpoch(m.Epoch)
	}
	if m.Kind.isData() && int(m.From) != w.driverID() && m.Epoch == w.epoch {
		w.ctr[cRecv]++
	}
	switch m.Kind {
	case KSpawn:
		tmpl := w.prog.Template(int(m.Tmpl))
		if tmpl == nil {
			w.fail(fmt.Errorf("spawn of unknown template %d", m.Tmpl))
			return
		}
		sp := w.instantiate(tmpl, m.Args)
		if sp != nil && m.Sweep != 0 {
			// A distributed fan-out copy: it charges its subtree to this
			// sweep and, when stamped, overrides its Range Filter with the
			// explicit bounds the spawner computed for this PE.
			sp.costLoop, sp.costSweep = m.Tmpl, m.Sweep
			if m.RngOn {
				sp.rbOn, sp.rbLo, sp.rbHi = true, m.RngLo, m.RngHi
			}
		}

	case KToken:
		w.deliver(m.SP, int(m.Slot), m.Val)

	case KAlloc:
		dims := make([]int, len(m.Dims))
		for i, d := range m.Dims {
			dims[i] = int(d)
		}
		h, err := istructure.NewHeader(m.Arr, m.Name, dims, w.geo.PageElems, w.n, int(m.Origin), m.Dist)
		if err != nil {
			w.fail(err)
			return
		}
		w.installArray(h)

	case KReadReq:
		w.handleReadReq(m)

	case KPage:
		w.handlePage(m)

	case KWrite:
		w.handleWrite(m)

	case KProbe:
		// A dormant worker revives after a few probe rounds: skew that
		// arrives late (a victim whose queue grows only after the thieves
		// gave up) would otherwise never be stolen for the rest of the
		// run. The endgame cost is bounded — at most one fruitless sweep
		// of the peers every stealReviveProbes rounds, none of it counted
		// by the four-counter detector.
		if w.stealFails >= w.stealDormantAfter() {
			w.dormantProbes++
			if w.dormantProbes >= stealReviveProbes {
				w.dormantProbes = 0
				w.stealFails = 0
				w.stealWait = 0
			}
		}
		// Flush cost observations before the ack: per-sender FIFO then
		// guarantees the driver has merged this worker's reports by the
		// time it evaluates the round, so a rebind decision made at a
		// round boundary never misses costs the round's acks imply.
		w.flushCosts()
		// The adaptive cache cap ticks on the probe cadence: the round's
		// refetch and eviction deltas (against the previous probe's
		// published vector) are the pressure signal, and a cap move takes
		// effect immediately (growth) or at the next install (shrink, via
		// InstallPage's shrink loop).
		ctr := w.snapshot()
		if w.heat.gov.enabled() {
			rd := ctr[cRefetches] - w.pub[cRefetches]
			if cap, changed := w.heat.gov.tick(rd, ctr[cEvicts]-w.pub[cEvicts]); changed {
				w.shard.CacheCap = cap
				ctr[cCacheCap] = int64(cap)
				w.rec(trace.EvCacheResize, int64(cap), rd)
			}
		}
		w.rec(trace.EvProbe, int64(m.Round), ctr[cQDepth])
		w.publishMetrics(&ctr)
		w.send(w.driverID(), &Msg{Kind: KAck, Round: m.Round, Flushed: w.epochFlushed(), Ctrs: ctr[:]})

	case KStealReq:
		w.handleStealReq(m)

	case KStealGrant:
		w.installStolen(m)

	case KStealNone:
		w.stealOutstanding = false
		w.stealFails++
		w.stealWait = w.stealFails
		w.rec(trace.EvStealNone, int64(m.From), 0)

	case KRebound:
		if len(m.Cuts) != w.n-1 {
			w.fail(fmt.Errorf("rebound for template %d with %d cuts, want %d", m.Tmpl, len(m.Cuts), w.n-1))
			return
		}
		if w.cuts == nil {
			w.cuts = make(map[int][]int64)
		}
		old := w.cuts[int(m.Tmpl)]
		w.cuts[int(m.Tmpl)] = m.Cuts
		w.rec(trace.EvRebound, int64(m.Tmpl), 0)
		// Iterations gained by the new cut prefetch their rows' pages
		// now, so the adapted copies start warm instead of paying a cold
		// remote fetch each.
		w.migrateHotPages(old, m.Cuts)

	case KRecover:
		w.applyRecover(m)

	case KFlush:
		// An epoch marker from a peer: everything it sent in older epochs
		// has arrived (same FIFO stream). Markers are epoch-scoped.
		if f := int(m.From); m.Epoch == w.epoch && f >= 0 && f < w.n &&
			w.flushFrom != nil && !w.flushFrom[f] {
			w.flushFrom[f] = true
			w.flushed++
		}

	case KStealDone:
		w.handleStealDone(m)

	case KTraceReq:
		// Flush the trace ring to the driver. A worker without a recorder
		// answers with an empty frame so the driver's gather never waits on
		// a PE that has nothing to say.
		ans := &Msg{Kind: KTrace}
		if w.tr != nil {
			ans.TraceEvs = w.tr.Flatten()
			ans.TraceDrops = w.tr.Drops()
		}
		w.send(w.driverID(), ans)

	case KDumpReq:
		w.handleDumpReq(m)

	case KCkpt:
		w.startCkpt(m)

	case KCkptMark:
		w.handleCkptMark(m)

	case KCkptOK:
		w.finishCkpt(m)

	case KRestore:
		w.handleRestore(m)

	case KFail:
		// A peer's transport pump reported a decode/socket error.
		w.fail(errors.New(m.Name))

	case KStop:
		w.debugDump("stop")
		w.stopped = true

	default:
		w.fail(fmt.Errorf("unexpected %s message", m.Kind))
	}
}

// instantiate creates a live SP instance on this worker and returns it so
// the caller can tag it (cost attribution, stamped bounds) before it first
// runs; nil on failure.
func (w *worker) instantiate(tmpl *isa.Template, args []isa.Value) *spInst {
	if len(args) != tmpl.NParams {
		w.fail(fmt.Errorf("%q spawned with %d args, want %d", tmpl.Name, len(args), tmpl.NParams))
		return nil
	}
	w.nextSP++
	sp := &spInst{
		id:          packJobID(w.job, w.pe, w.inc, w.nextSP),
		tmpl:        tmpl,
		frame:       make([]isa.Value, tmpl.NSlots),
		present:     make([]bool, tmpl.NSlots),
		blocked:     isa.None,
		grantedFrom: -1,
		costLoop:    -1,
	}
	copy(sp.frame, args)
	for i := range args {
		sp.present[i] = true
	}
	w.insts[sp.id] = sp
	w.enqueue(sp)
	return sp
}

// charge adds n executed instructions to a cost-accounting bucket.
func (w *worker) charge(loop int32, sweep, iter, n int64) {
	w.costAcc[costKey{loop: loop, sweep: sweep, iter: iter}] += n
}

// flushCosts sends the accumulated cost buckets to the driver as one
// KCostReport per (loop, sweep) pair and clears them. Buckets are flushed
// in sorted order so the report stream is deterministic for a given
// accumulation state.
func (w *worker) flushCosts() {
	if len(w.costAcc) == 0 {
		return
	}
	keys := make([]costKey, 0, len(w.costAcc))
	for k := range w.costAcc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.loop != b.loop {
			return a.loop < b.loop
		}
		if a.sweep != b.sweep {
			return a.sweep < b.sweep
		}
		return a.iter < b.iter
	})
	var cur *Msg
	for _, k := range keys {
		if cur == nil || cur.Tmpl != k.loop || cur.Sweep != k.sweep {
			if cur != nil {
				w.send(w.driverID(), cur)
			}
			cur = &Msg{Kind: KCostReport, Tmpl: k.loop, Sweep: k.sweep}
		}
		cur.Iters = append(cur.Iters, k.iter)
		cur.Costs = append(cur.Costs, w.costAcc[k])
	}
	w.send(w.driverID(), cur)
	clear(w.costAcc)
}

// cutBounds returns PE pe's index range under a rebound cut vector:
// (cuts[pe-1], cuts[pe]], with ∓inf at the two ends. Because the ranges
// tile all of ℤ, clamping them against the loop's real bounds partitions
// any iteration range exactly — a range that shifted or shrank since the
// costs were observed degrades balance, never correctness.
func cutBounds(cuts []int64, pe, n int) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if pe > 0 {
		lo = cuts[pe-1] + 1
	}
	if pe < n-1 {
		hi = cuts[pe]
	}
	return lo, hi
}

// deliver places a token into a local SP's frame, waking it if it was
// blocked on that slot. For an SP that was stolen away, the token is
// relayed to the thief through the forwarding stub (the relay counts as a
// data message, balancing the extra receive). A token for an SP that ran
// here and halted is legal with stealing in play — result tokens an SP
// never consumes can trail its HALT — and is dropped. A token for a local
// ID minted by an earlier incarnation of this PE is a release for work
// that died and is being re-executed under fresh IDs: dropped and counted.
// After a recovery, a token for any unknown ID is tolerated the same way —
// replay re-executes subtrees whose first execution's tokens may still be
// in flight. In an unrecovered run, a token for an ID this worker has
// never seen still fails the run.
func (w *worker) deliver(id int64, slot int, v isa.Value) {
	sp := w.insts[id]
	if sp == nil {
		if thief, ok := w.forwards[id]; ok {
			w.ctr[cForwards]++
			w.send(thief, &Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v})
			return
		}
		if _, ok := w.halted[id]; ok {
			w.lateTokens++
			return
		}
		if peOf(id) == w.pe && incOf(id) < w.inc {
			w.staleMsgs++
			return
		}
		if w.recovered {
			w.lateTokens++
			return
		}
		w.fail(fmt.Errorf("token for dead SP %d", id))
		return
	}
	if slot < 0 || slot >= len(sp.frame) {
		w.fail(fmt.Errorf("token slot %d out of range for SP %q", slot, sp.tmpl.Name))
		return
	}
	if w.outReads != nil {
		delete(w.outReads, outReadKey{sp: id, slot: int32(slot)})
	}
	sp.frame[slot] = v
	sp.present[slot] = true
	if sp.blocked == slot {
		sp.blocked = isa.None
		w.enqueue(sp)
	}
}

// route delivers a token to an SP instance anywhere in the cluster:
// locally (including SPs stolen from another PE's queue, which keep their
// home ID), to the owning worker, or to the driver environment (ID 0).
func (w *worker) route(id int64, slot int, v isa.Value) {
	if w.insts[id] != nil {
		// Local fast path: the instance lives here, whether home-spawned
		// or stolen in.
		w.deliver(id, slot, v)
		return
	}
	pe := peOf(id)
	switch {
	case pe == w.pe:
		w.deliver(id, slot, v) // forwarding stub / late-token handling
	case pe < 0: // driver environment
		w.send(w.driverID(), &Msg{Kind: KToken, SP: 0, Slot: int32(slot), Val: v})
	case pe < w.n:
		if _, ok := w.halted[id]; ok {
			// The SP was stolen in and already halted here; skip the
			// round trip through its home PE's stub.
			w.lateTokens++
			return
		}
		if thief, ok := w.forwards[id]; ok {
			// Stolen in and then stolen away again: relay directly.
			w.ctr[cForwards]++
			w.send(thief, &Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v})
			return
		}
		w.send(pe, &Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v})
	default:
		w.fail(fmt.Errorf("token for SP %d on unknown PE %d", id, pe))
	}
}

// firstAbsent returns the first absent input slot of in, or isa.None.
func firstAbsent(sp *spInst, in *isa.Instr) int {
	if in.A != isa.None && !sp.present[in.A] {
		return in.A
	}
	if in.B != isa.None && !sp.present[in.B] {
		return in.B
	}
	for _, a := range in.Args {
		if !sp.present[a] {
			return a
		}
	}
	return isa.None
}

func (sp *spInst) set(slot int, v isa.Value) {
	sp.frame[slot] = v
	sp.present[slot] = true
}

// suspendOnArray parks the SP until the header for array id arrives. The
// program counter has not advanced, so the instruction re-executes on wake.
func (w *worker) suspendOnArray(id int64, sp *spInst) {
	w.waitArray[id] = append(w.waitArray[id], sp)
}

// header returns the installed header for an array handle value, or parks
// the SP and returns nil when the alloc broadcast has not arrived yet.
func (w *worker) header(sp *spInst, slot int) *istructure.Header {
	hv := sp.frame[slot]
	if hv.Kind != isa.KindArray {
		w.fail(fmt.Errorf("%q: %s is not an array handle", sp.tmpl.Name, hv))
		return nil
	}
	h := w.shard.Header(hv.I)
	if h == nil {
		w.suspendOnArray(hv.I, sp)
	}
	return h
}

// step interprets one ready SP until it halts, blocks on an absent operand,
// or suspends on a missing array header. It pops from the top of the deque
// (the most recently pushed SP): depth-first execution follows each spawn
// chain down before touching older siblings, which both bounds the live
// frontier and keeps untouched SPs at the bottom for thieves.
func (w *worker) step() {
	// The shard's heat table stamps last-touch times with this worker's
	// instruction counter — deterministic per PE, monotone per step.
	w.shard.Now = w.ctr[cInstrs]
	var sp *spInst
	for sp == nil {
		if w.readyHead == len(w.ready) {
			// Only tombstones were left; the deque is now truly empty.
			w.ready = w.ready[:0]
			w.readyHead, w.readyNil = 0, 0
			return
		}
		sp = w.ready[len(w.ready)-1]
		w.ready[len(w.ready)-1] = nil
		w.ready = w.ready[:len(w.ready)-1]
		if sp == nil {
			w.readyNil--
		}
	}
	if w.readyHead == len(w.ready) {
		w.ready = w.ready[:0]
		w.readyHead, w.readyNil = 0, 0
	}

	// Tracing: the sampling decision is made once per instance at its first
	// dispatch, so a sampled instance contributes every dispatch/complete
	// pair and an unsampled one contributes nothing — exact pairing at any
	// sampling rate. A resumed instance records a fresh dispatch; the
	// exporter pairs the completion with the last one (the final run
	// segment) and keeps earlier segments as instants.
	if w.tr != nil {
		if sp.traced == 0 {
			if w.tr.SampleSP() {
				sp.traced = 1
			} else {
				sp.traced = -1
			}
		}
		if sp.traced == 1 {
			w.tr.Record(trace.EvSPDispatch, w.ctr[cInstrs], sp.id, int64(sp.tmpl.ID))
		}
	}

	// Cost attribution: a tagged instance charges every completed
	// instruction to its (loop, sweep, iteration) bucket. A distributed
	// loop copy charges dynamically to the current value of its loop
	// variable (so the copy's own control overhead lands on the iteration
	// being driven); everything else carries a frozen iteration from spawn
	// time. Charges are batched per run segment and flushed on exit or
	// when the dynamic iteration advances.
	track := sp.costLoop >= 0
	dynSlot := isa.None
	if track && sp.tmpl.Distributed && sp.tmpl.Loop != nil {
		dynSlot = sp.tmpl.Loop.VarSlot
	}
	costIter := sp.costIter
	var costN int64
	defer func() {
		if costN > 0 {
			w.charge(sp.costLoop, sp.costSweep, costIter, costN)
		}
	}()
	chargeStep := func() {
		if !track {
			return
		}
		if dynSlot != isa.None {
			if !sp.present[dynSlot] || sp.frame[dynSlot].Kind != isa.KindInt {
				return // before the loop variable exists there is no iteration to bill
			}
			if cur := sp.frame[dynSlot].I; cur != costIter {
				if costN > 0 {
					w.charge(sp.costLoop, sp.costSweep, costIter, costN)
					costN = 0
				}
				costIter = cur
			}
		}
		costN++
	}

	for {
		if w.failed || w.stopped {
			return
		}
		if sp.pc < 0 || sp.pc >= len(sp.tmpl.Code) {
			w.fail(fmt.Errorf("%q pc %d out of range", sp.tmpl.Name, sp.pc))
			return
		}
		ins := &sp.tmpl.Code[sp.pc]
		if missing := firstAbsent(sp, ins); missing != isa.None {
			sp.blocked = missing
			return
		}
		next := sp.pc + 1
		f := sp.frame
		if isa.IsScalar(ins.Op) {
			var bv isa.Value
			if ins.B != isa.None {
				bv = f[ins.B]
			}
			v, err := isa.EvalScalar(ins.Op, f[ins.A], bv)
			if err != nil {
				w.fail(fmt.Errorf("%q pc %d: %v", sp.tmpl.Name, sp.pc, err))
				return
			}
			sp.set(ins.Dst, v)
			w.ctr[cInstrs]++
			chargeStep()
			sp.pc = next
			continue
		}
		switch ins.Op {
		case isa.NOP:
		case isa.CONST:
			sp.set(ins.Dst, ins.Imm)
		case isa.MOVE:
			sp.set(ins.Dst, f[ins.A])
		case isa.CLEAR:
			sp.present[ins.Dst] = false
		case isa.SELF:
			sp.set(ins.Dst, isa.SPRef(sp.id))

		case isa.JUMP:
			next = ins.Target
		case isa.BRFALSE:
			if !f[ins.A].AsBool() {
				next = ins.Target
			}
		case isa.BRTRUE:
			if f[ins.A].AsBool() {
				next = ins.Target
			}

		case isa.ALLOC, isa.ALLOCD:
			w.execAlloc(sp, ins)

		case isa.AREAD:
			if suspended := w.execRead(sp, ins); suspended {
				return
			}
		case isa.AWRITE:
			if suspended := w.execWrite(sp, ins); suspended {
				return
			}

		case isa.ROWLO, isa.ROWHI:
			// Stamped adaptive bounds override the ownership rule: the
			// filter's MAX/MIN clamps against the loop's real init/limit
			// still apply, so a ±inf end stamp degenerates to "no bound".
			if sp.rbOn {
				v := sp.rbLo
				if ins.Op == isa.ROWHI {
					v = sp.rbHi
				}
				sp.set(ins.Dst, isa.Int(v))
				break
			}
			h := w.header(sp, ins.A)
			if h == nil {
				return
			}
			lo, hi, ok := h.OwnedRows(w.pe)
			if !ok {
				lo, hi = 1, 0
			}
			v := lo
			if ins.Op == isa.ROWHI {
				v = hi
			}
			sp.set(ins.Dst, isa.Int(v))
		case isa.COLLO, isa.COLHI:
			if sp.rbOn {
				v := sp.rbLo
				if ins.Op == isa.COLHI {
					v = sp.rbHi
				}
				sp.set(ins.Dst, isa.Int(v))
				break
			}
			h := w.header(sp, ins.A)
			if h == nil {
				return
			}
			lo, hi, ok := h.OwnedCols(w.pe, f[ins.B].AsInt())
			if !ok {
				lo, hi = 1, 0
			}
			v := lo
			if ins.Op == isa.COLHI {
				v = hi
			}
			sp.set(ins.Dst, isa.Int(v))
		case isa.UNIFLO, isa.UNIFHI:
			lo := f[ins.A].AsInt()
			hi := f[ins.B].AsInt()
			if sp.rbOn {
				// The uniform filter replaces the loop bounds outright, so
				// clamp the stamped range against the real one here.
				v := max(lo, sp.rbLo)
				if ins.Op == isa.UNIFHI {
					v = min(hi, sp.rbHi)
				}
				sp.set(ins.Dst, isa.Int(v))
				break
			}
			n := hi - lo + 1
			if n < 0 {
				n = 0
			}
			pes := int64(w.n)
			id := int64(w.pe)
			v := lo + n*id/pes
			if ins.Op == isa.UNIFHI {
				v = lo + n*(id+1)/pes - 1
			}
			sp.set(ins.Dst, isa.Int(v))

		case isa.SPAWN, isa.SPAWND:
			child := w.prog.Template(int(ins.Imm.I))
			if child == nil {
				w.fail(fmt.Errorf("%q pc %d: spawn of unknown template %d", sp.tmpl.Name, sp.pc, ins.Imm.I))
				return
			}
			cargs := make([]isa.Value, len(ins.Args))
			for i, s := range ins.Args {
				cargs[i] = f[s]
			}
			if ins.Op == isa.SPAWND {
				// The distributing L operator: one copy per PE. Remote
				// copies each get their own argument slice — messages are
				// receiver-owned. Under adaptive repartitioning the fan-out
				// of a Range-Filtered loop is also a sweep boundary: this
				// spawner mints the sweep ID the copies charge their costs
				// to, and stamps each copy with its PE's bounds from the
				// latest rebound — one spawner, one consistent partition,
				// no install race with a rebound broadcast in flight.
				var sweep int64
				var cuts []int64
				if w.adapt && child.Distributed {
					w.nextSweep++
					sweep = packJobID(w.job, w.pe, w.inc, w.nextSweep)
					cuts = w.cuts[child.ID]
				}
				if w.recover {
					// Log the fan-out locally — the spawner is the one
					// authority on what each PE was assigned, and replays a
					// respawned peer's copy itself — and with the driver
					// *before* performing it, so that if this worker dies
					// mid-broadcast the driver can replay every PE's
					// assignment, including copies whose spawn frames never
					// left this machine. The cuts travel too, so a replayed
					// copy is stamped with bit-identical bounds.
					w.fanoutLog = append(w.fanoutLog, fanoutRec{
						tmpl: int32(child.ID), args: append([]isa.Value(nil), cargs...),
						sweep: sweep, cuts: cuts})
					lg := &Msg{Kind: KSpawnLog, Tmpl: int32(child.ID),
						Args: append([]isa.Value(nil), cargs...), Sweep: sweep}
					if cuts != nil {
						lg.Cuts = append([]int64(nil), cuts...)
					}
					w.send(w.driverID(), lg)
				}
				for pe := 0; pe < w.n; pe++ {
					var rlo, rhi int64
					if cuts != nil {
						rlo, rhi = cutBounds(cuts, pe, w.n)
					}
					if pe == w.pe {
						csp := w.instantiate(child, cargs)
						if csp != nil && sweep != 0 {
							csp.costLoop, csp.costSweep = int32(child.ID), sweep
							if cuts != nil {
								csp.rbOn, csp.rbLo, csp.rbHi = true, rlo, rhi
							}
						}
						continue
					}
					m := &Msg{Kind: KSpawn, Tmpl: int32(child.ID), Args: append([]isa.Value(nil), cargs...), Sweep: sweep}
					if cuts != nil {
						m.RngOn, m.RngLo, m.RngHi = true, rlo, rhi
					}
					w.send(pe, m)
				}
			} else {
				// A plain spawn stays local and joins the spawner's cost
				// subtree: the child bills the iteration the spawner was
				// executing when it was created.
				csp := w.instantiate(child, cargs)
				if csp != nil && track {
					csp.costLoop, csp.costSweep, csp.costIter = sp.costLoop, sp.costSweep, costIter
				}
			}

		case isa.SEND:
			ref := f[ins.A]
			if ref.Kind != isa.KindSP {
				w.fail(fmt.Errorf("%q pc %d: SEND target is %s, not an SP reference", sp.tmpl.Name, sp.pc, ref))
				return
			}
			base := int64(0)
			if len(ins.Args) > 0 {
				base = f[ins.Args[0]].AsInt()
			}
			w.route(ref.I, int(base+ins.Imm.I), f[ins.B])

		case isa.HALT:
			if sp.traced == 1 {
				w.tr.Record(trace.EvSPComplete, w.ctr[cInstrs], sp.id, int64(sp.tmpl.ID))
			}
			delete(w.insts, sp.id)
			if sp.stolen {
				w.halted[sp.id] = struct{}{}
				if w.recover && sp.grantedFrom >= 0 {
					// Tell the grantor the migrated SP completed, so its
					// grant record (and stub chain) can retire instead of
					// being re-instantiated by a later recovery.
					w.send(sp.grantedFrom, &Msg{Kind: KStealDone, SP: sp.id})
				}
			}
			return

		default:
			w.fail(fmt.Errorf("%q pc %d: unimplemented opcode %s", sp.tmpl.Name, sp.pc, ins.Op))
			return
		}
		if w.failed || w.stopped {
			return
		}
		// Count the instruction only once it completes: a suspension on a
		// missing array header returns above with pc unchanged, and the
		// re-execution on wake would otherwise count twice (skewing the
		// per-PE load numbers the SKEW experiment reports).
		w.ctr[cInstrs]++
		chargeStep()
		sp.pc = next
	}
}
