package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// Stats aggregates cluster-wide dynamic counts gathered from the workers'
// final probe answers.
type Stats struct {
	DeferredReads int64 // I-structure reads queued on absent elements
	CacheHits     int64 // remote reads satisfied from the page cache
	CacheMisses   int64 // remote reads that fetched a page
	Evictions     int64 // cached pages evicted by the cache bound (Config.CachePages)
	Refetches     int64 // previously evicted pages fetched again
	MsgsSent      int64 // worker-to-worker data messages
	Steals        int64 // SP instances migrated by work stealing
	Forwards      int64 // tokens relayed through forwarding stubs
	Rebounds      int64 // adaptive Range-Filter cut broadcasts (Config.Adapt)
	Recoveries    int64 // worker deaths survived by respawn + replay (Config.Recover)
	ReplayedSPs   int64 // root assignments replayed against replacement workers
	Checkpoints   int64 // completed replay-log GC checkpoints (Recover+Adapt)
	Prefetches    int64 // pages requested ahead of the miss (streaming prefetch, rebind migration)
	PrefetchHits  int64 // prefetched pages that later served a demand read
	CacheCapNow   int64 // final resident-page budget, summed over PEs (adaptive cap)
}

// PEStat is one worker's counter vector from its final probe answer — the
// per-PE decomposition of the cluster-wide Stats sums. Counters is indexed
// like CounterNames.
type PEStat struct {
	PE       int
	Counters []int64
}

// gathered is one assembled array after a run. raw keeps the wire values
// alongside the float view: a checkpoint restore (KRestore) must replay
// the exact Value a worker wrote — single-assignment idempotence compares
// full values, not float projections.
type gathered struct {
	h    *istructure.Header
	vals []float64
	raw  []isa.Value
	mask []bool
}

// merge folds one worker's KDump segment into the assembled array. The
// offsets come off the wire, so they are validated against the assembled
// size — a corrupt or duplicated dump must fail the run, not panic the
// driver.
func (g *gathered) merge(m *Msg) error {
	base := int(m.Off)
	if base < 0 || len(m.Vals) != len(m.Set) || base > len(g.vals)-len(m.Vals) {
		return fmt.Errorf("cluster: dump segment [%d,%d) with %d presence bits does not fit array %q (%d elements)",
			base, base+len(m.Vals), len(m.Set), g.h.Name, len(g.vals))
	}
	if g.raw == nil {
		g.raw = make([]isa.Value, len(g.vals))
	}
	for i, v := range m.Vals {
		if m.Set[i] {
			g.vals[base+i] = v.AsFloat()
			g.raw[base+i] = v
			g.mask[base+i] = true
		}
	}
	return nil
}

// Result is a completed cluster run: the program's returned value (if any),
// aggregate statistics, and the gathered I-structure contents.
type Result struct {
	// Value is the entry block's returned value (nil for void main).
	Value *isa.Value

	// Stats holds cluster-wide dynamic counts.
	Stats Stats

	// NumPEs is the effective worker count after defaults were applied
	// (cfg.NumPEs may be zero on entry).
	NumPEs int

	// PEInstrs is each worker's executed-instruction count — the per-PE
	// load distribution (the SKEW experiment derives its balance metric
	// from it).
	PEInstrs []int64

	// PEStats is each worker's full counter breakdown (the per-PE
	// decomposition of Stats).
	PEStats []PEStat

	// Trace holds the run's observability data when Config.Trace was set:
	// every PE's gathered event ring plus the per-probe-round metrics
	// timeline. Nil when tracing was off.
	Trace *trace.Trace

	arrays  map[int64]*gathered
	byName  map[string]int64
	nameSeq []string
}

// ReadArray gathers a named array's contents: values, a written-mask, and
// the array dimensions.
func (r *Result) ReadArray(name string) (vals []float64, mask []bool, dims []int, err error) {
	id, ok := r.byName[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("cluster: unknown array %q", name)
	}
	g := r.arrays[id]
	return g.vals, g.mask, append([]int(nil), g.h.Dims...), nil
}

// ArrayNames lists allocated source-level array names in arrival order.
func (r *Result) ArrayNames() []string { return append([]string(nil), r.nameSeq...) }

// Execute runs a validated program on the cluster runtime. With
// cfg.Workers empty it spins up cfg.NumPEs in-process workers over the
// channel transport; otherwise it drives the listed TCP workers. The
// context bounds the run; a blocked dataflow program (deadlock) is reported
// when it expires.
func Execute(ctx context.Context, prog *isa.Program, cfg Config, args ...isa.Value) (*Result, error) {
	f, err := OpenFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Submit(ctx, prog, cfg, args...)
}

// drive is the driver loop: spawn the entry SP on PE 0, then alternate
// between handling worker messages and termination probes; on termination,
// gather every array and stop the workers. rsp, when non-nil and
// cfg.Recover is set, lets the driver survive worker deaths by respawning
// and replaying them instead of failing the run.
func drive(ctx context.Context, ep Endpoint, cfg Config, entry *isa.Template, args []isa.Value, rsp respawner) (*Result, error) {
	n := cfg.NumPEs
	res := &Result{
		NumPEs: n,
		arrays: make(map[int64]*gathered),
		byName: make(map[string]int64),
	}
	det := newDetector(n)
	ad := newAdaptCoord(n)
	rec := newRecovery(n, cfg.Recover, rsp)
	rec.peers = append([]string(nil), cfg.Workers...)

	// Per-job budgets (admission control): MaxElems is enforced exactly at
	// each KAlloc broadcast (the driver sees every allocation before any
	// element is written); MaxInstrs is enforced at each completed probe
	// round from the workers' acked instruction counters — round-lagged,
	// but a job can only overshoot by one round's worth of work.
	var allocElems int64

	// Replay-log GC rides the adapt coordinator's sweep retirement: when a
	// sweep is provably complete the driver checkpoints — every worker
	// marks its write-log cut, dumps its owned segments once all peers'
	// marks arrived, and on the driver's all-acked confirmation drops the
	// logged writes now covered by the driver's snapshot plus the retired
	// sweeps' fan-out entries (minus any a worker vetoed as still live).
	var (
		ckptSeq     int64   // monotone checkpoint IDs (Msg.Seq, nonzero)
		ckptOpen    bool    // one checkpoint in flight at a time
		ckptID      int64   // the open checkpoint's ID
		ckptAcks    int     // workers that finished dumping
		ckptSweeps  []int64 // sweeps the open checkpoint proposes to GC
		ckptVetoed  []int64 // sweeps some worker reported still running
		ckptPending []int64 // retired sweeps awaiting the next checkpoint
		checkpoints int64
	)
	// An array can be checkpoint-dumped by its owner before the
	// allocator's KAlloc broadcast reaches the driver (different FIFO
	// streams); such dumps wait here for their header.
	var pendingDumps map[int64][]*Msg

	// Observability (Config.Trace): the timeline builder turns each
	// completed probe round's acks into one delta-encoded sample per PE;
	// prev holds the previous completed round's counters the deltas are
	// taken against.
	var tb *trace.TimelineBuilder
	var prev []counters
	driverStart := time.Now()
	if cfg.Trace {
		tb = trace.NewTimelineBuilder(timelineCap)
		prev = make([]counters, n)
	}
	sampleTimeline := func(round int32) {
		if tb == nil {
			return
		}
		wall := int64(time.Since(driverStart))
		for pe := 0; pe < n; pe++ {
			cur := &det.acks[pe].ctr
			d := cur.delta(&prev[pe])
			tb.Add(trace.Sample{
				Round: int(round), Wall: wall, PE: pe,
				Instrs: d[cInstrs], QDepth: d[cQDepth], Live: d[cLive],
				Sent: d[cSent], Hits: d[cHits], Misses: d[cMisses],
				Evicts: d[cEvicts], Steals: d[cSteals],
			})
			prev[pe] = *cur
		}
	}
	stopAll := func() {
		for pe := 0; pe < n; pe++ {
			_ = ep.Send(pe, &Msg{Kind: KStop})
		}
	}

	rec.logEntry(int32(entry.ID), args)
	if err := ep.Send(0, &Msg{Kind: KSpawn, Tmpl: int32(entry.ID), Args: args}); err != nil {
		return nil, err
	}

	// handle processes one driver-bound message; it returns an error for
	// KFail and flags round completion for KAck. A frame from a dead
	// incarnation is dropped whole, and a KDown notice queues its PE for
	// recovery (or fails the run when recovery is off).
	round := int32(0)
	roundComplete := false
	probeReset := false
	var down []int
	handle := func(m *Msg) error {
		if rec.fenced(m) {
			return nil
		}
		switch m.Kind {
		case KToken:
			val := m.Val
			res.Value = &val
		case KAlloc:
			dims := make([]int, len(m.Dims))
			for i, d := range m.Dims {
				dims[i] = int(d)
			}
			if res.arrays[m.Arr] != nil {
				// Duplicate broadcast (a recovery replay re-ran the
				// allocating SP): array IDs are deterministic, so keep the
				// assembled state — it may already hold checkpoint dumps.
				return nil
			}
			h, err := istructure.NewHeader(m.Arr, m.Name, dims, cfg.PageElems, n, int(m.Origin), m.Dist)
			if err != nil {
				return err
			}
			allocElems += int64(h.Elems())
			if cfg.MaxElems > 0 && allocElems > cfg.MaxElems {
				return fmt.Errorf("cluster: job exceeded its element budget: %d elements allocated, budget %d (Config.MaxElems)",
					allocElems, cfg.MaxElems)
			}
			g := &gathered{h: h, vals: make([]float64, h.Elems()), raw: make([]isa.Value, h.Elems()), mask: make([]bool, h.Elems())}
			res.arrays[m.Arr] = g
			if _, seen := res.byName[h.Name]; !seen {
				res.nameSeq = append(res.nameSeq, h.Name)
			}
			res.byName[h.Name] = m.Arr
			for _, d := range pendingDumps[m.Arr] {
				if err := g.merge(d); err != nil {
					return err
				}
			}
			delete(pendingDumps, m.Arr)
		case KFail:
			return fmt.Errorf("cluster: %s", m.Name)
		case KAck:
			// The detector ignores stale-round and duplicate acks itself.
			if det.record(int(m.From), m) {
				roundComplete = true
			}
		case KCostReport:
			if ad.merge(m, round) {
				probeReset = true
			}
		case KSpawnLog:
			rec.logFanout(m)
		case KDown:
			if !rec.enabled {
				return fmt.Errorf("cluster: worker %d died mid-run (transport closed); set Config.Recover (and Spares, on TCP) to survive worker failures", m.PE)
			}
			down = append(down, int(m.PE))
		case KDump:
			g := res.arrays[m.Arr]
			if g == nil {
				if m.Seq != 0 {
					// Checkpoint dump racing the allocator's KAlloc
					// broadcast on another stream: hold it for the header.
					if pendingDumps == nil {
						pendingDumps = make(map[int64][]*Msg)
					}
					pendingDumps[m.Arr] = append(pendingDumps[m.Arr], m)
					return nil
				}
				return fmt.Errorf("cluster: dump for unknown array %d", m.Arr)
			}
			if err := g.merge(m); err != nil {
				return err
			}
		case KCkptAck:
			if !ckptOpen || m.Seq != ckptID {
				return nil // stale ack from an aborted checkpoint
			}
			ckptAcks++
			ckptVetoed = append(ckptVetoed, m.Iters...)
			if ckptAcks < n {
				return nil
			}
			// Every worker dumped: the driver's snapshot now covers all
			// pre-cut logged writes. Confirm, GC the driver's own fan-out
			// log, and release the workers' logs — minus sweeps some
			// worker reported still live (those retry next checkpoint).
			vetoed := make(map[int64]bool, len(ckptVetoed))
			for _, s := range ckptVetoed {
				vetoed[s] = true
			}
			var effective []int64
			for _, s := range ckptSweeps {
				if vetoed[s] {
					ckptPending = append(ckptPending, s)
				} else {
					effective = append(effective, s)
				}
			}
			for pe := 0; pe < n; pe++ {
				ok := &Msg{Kind: KCkptOK, Seq: ckptID, Iters: append([]int64(nil), effective...)}
				if err := ep.Send(pe, ok); err != nil {
					if rec.enabled {
						down = append(down, pe)
						continue
					}
					return err
				}
			}
			rec.dropSweeps(effective)
			checkpoints++
			ckptOpen = false
			ckptSweeps, ckptVetoed = nil, nil
		default:
			return fmt.Errorf("cluster: driver got unexpected %s message", m.Kind)
		}
		return nil
	}

	// Probe rounds with geometric back-off: tight while the run is short,
	// cheap while it is long. Adaptive repartitioning rides the probe
	// cadence (cost flushes and rebind decisions happen at round
	// boundaries), so the back-off additionally resets whenever a new
	// sweep starts reporting: a sweep in flight means a rebind decision
	// is imminent and must not wait tens of sweep-lengths for the next
	// round, while a run whose sweeps have stopped arriving (or that
	// never rebinds at all) pays no lasting probe overhead.
	// recoverNow survives the deaths collected in `down`: respawn, announce,
	// replay, then restart the detector and adapt coordinator in the new
	// epoch (their accumulated state mixes incarnations and counting
	// epochs, and replay regenerates the observations that still matter).
	recoverNow := func() error {
		dead := down
		down = nil
		// Abort any checkpoint in flight: its marks and acks mix
		// incarnations. The sweeps return to the pending pool — nothing
		// was GC'd (logs only drop on KCkptOK), so nothing is lost.
		if ckptOpen {
			ckptOpen = false
			ckptPending = append(ckptPending, ckptSweeps...)
			ckptSweeps, ckptVetoed = nil, nil
		}
		if err := rec.perform(ep, dead, res); err != nil {
			return err
		}
		det.reset(rec.epoch)
		ad = newAdaptCoord(n)
		return nil
	}

	interval := cfg.ProbeInterval
	maxInterval := 50 * cfg.ProbeInterval
	for {
		round++
		roundComplete = false
		det.begin(round)
		for pe := 0; pe < n; pe++ {
			if err := ep.Send(pe, &Msg{Kind: KProbe, Round: round}); err != nil {
				// A probe bouncing off a dead connection is a death notice
				// in its own right; recover it like one when possible.
				if rec.enabled {
					down = append(down, pe)
					continue
				}
				stopAll()
				return nil, err
			}
		}
		// The round deadline turns a dead or wedged worker into a
		// diagnosable failure — or, with recovery enabled, into a recovery:
		// the PEs that never acked the round are respawned and replayed.
		// The deadline re-arms on every received message, so it measures
		// genuine silence — no driver-bound traffic at all for the whole
		// timeout while the round stays open, meaning some PE will never
		// answer — and can never trip a slow-but-progressing phase. Without
		// recovery, expiry fails the run with each PE's last-ack state
		// instead of hanging until the run context expires.
		for !roundComplete && len(down) == 0 {
			m, stalled, err := recvStallGuarded(ctx, ep, cfg.RoundTimeout)
			if err != nil {
				if stalled && rec.enabled {
					down = det.unacked()
					break
				}
				if stalled {
					// With tracing on, pull each PE's last trace events
					// before tearing the cluster down: a wedged-but-alive
					// worker still answers KTraceReq from its message loop,
					// and the event tail says what it was doing when the
					// round stalled — far more than last-ack counters can.
					diag := ""
					if cfg.Trace {
						diag = stallTraceDump(ctx, ep, n, rec)
					}
					stopAll()
					return nil, fmt.Errorf("cluster: probe round %d stalled for %v (worker dead or wedged?): %s%s",
						round, cfg.RoundTimeout, det.stallReport(), diag)
				}
				stopAll()
				return nil, fmt.Errorf("cluster: run cancelled (deadlocked dataflow program? %d live SPs): %w", det.liveSPs(), err)
			}
			if herr := handle(m); herr != nil {
				stopAll()
				return nil, herr
			}
		}
		if len(down) > 0 {
			if err := recoverNow(); err != nil {
				stopAll()
				return nil, err
			}
			// The disturbed round proves nothing; probe tightly again while
			// the replacements replay.
			interval = cfg.ProbeInterval
			continue
		}
		sampleTimeline(round)
		if cfg.MaxInstrs > 0 {
			var instrs int64
			for pe := 0; pe < n; pe++ {
				instrs += det.acks[pe].ctr[cInstrs]
			}
			if instrs > cfg.MaxInstrs {
				stopAll()
				return nil, fmt.Errorf("cluster: job exceeded its instruction budget: %d instructions executed, budget %d (Config.MaxInstrs)",
					instrs, cfg.MaxInstrs)
			}
		}
		if det.roundDone() {
			break
		}
		// Rebind check at the round boundary: every worker has flushed its
		// cost observations at least once this round (the flush precedes
		// the ack on the same FIFO stream), so the coordinator's view is as
		// fresh as the round itself. A broadcast bouncing off a dead
		// connection is a death notice like a failed probe: recover it when
		// possible (losing the rebind itself is harmless — the coordinator
		// restarts and replans).
		for _, rb := range ad.tick(round) {
			for pe := 0; pe < n; pe++ {
				m := &Msg{Kind: KRebound, Tmpl: rb.tmpl, Cuts: append([]int64(nil), rb.cuts...)}
				if err := ep.Send(pe, m); err != nil {
					if rec.enabled {
						down = append(down, pe)
						continue
					}
					stopAll()
					return nil, err
				}
			}
		}
		if len(down) > 0 {
			if err := recoverNow(); err != nil {
				stopAll()
				return nil, err
			}
			interval = cfg.ProbeInterval
			continue
		}
		// Checkpoint kickoff rides the same round boundary as rebinds:
		// sweeps the adapt coordinator has retired since the last
		// checkpoint are proposed for replay-log GC (one checkpoint in
		// flight at a time; new retirements queue for the next one).
		if rec.enabled && cfg.Adapt {
			ckptPending = append(ckptPending, ad.drainRetired()...)
			if !ckptOpen && len(ckptPending) > 0 {
				ckptSeq++
				ckptID = ckptSeq
				ckptSweeps = ckptPending
				ckptPending = nil
				ckptAcks = 0
				ckptVetoed = nil
				ckptOpen = true
				for pe := 0; pe < n; pe++ {
					m := &Msg{Kind: KCkpt, Seq: ckptID, Iters: append([]int64(nil), ckptSweeps...)}
					if err := ep.Send(pe, m); err != nil {
						down = append(down, pe)
					}
				}
				if len(down) > 0 {
					if err := recoverNow(); err != nil {
						stopAll()
						return nil, err
					}
					interval = cfg.ProbeInterval
					continue
				}
			}
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			stopAll()
			return nil, fmt.Errorf("cluster: run cancelled (deadlocked dataflow program? %d live SPs): %w", det.liveSPs(), ctx.Err())
		}
		if probeReset {
			interval = cfg.ProbeInterval
			probeReset = false
		} else if interval < maxInterval {
			interval *= 2
		}
	}
	res.Stats = det.stats()
	res.Stats.Rebounds = ad.rebounds
	res.Stats.Recoveries = rec.recoveries
	res.Stats.ReplayedSPs += rec.replayed
	res.Stats.Checkpoints = checkpoints
	res.PEInstrs = det.perPEInstrs()
	res.PEStats = det.perPEStats()

	// Gather: ask each owning PE for its segment of every array.
	expect := 0
	for id, g := range res.arrays {
		for pe := 0; pe < n; pe++ {
			lo, hi := g.h.SegmentElems(pe)
			if lo >= hi {
				continue
			}
			if err := ep.Send(pe, &Msg{Kind: KDumpReq, Arr: id}); err != nil {
				stopAll()
				return nil, err
			}
			expect++
		}
	}
	// The gather phase gets the same re-arming stall guard as a probe
	// round: a worker dying between the final quiet round and its
	// KDumpReq would otherwise hang the driver here just as silently as a
	// mid-round death would above, while a large gather that keeps making
	// progress can take as long as it needs. Recovery does not extend past
	// termination: a worker dying *here* lost finished results, not
	// re-runnable work, so the run fails with diagnostics instead.
	for expect > 0 {
		m, stalled, err := recvStallGuarded(ctx, ep, cfg.RoundTimeout)
		if err != nil {
			stopAll()
			if stalled {
				return nil, fmt.Errorf("cluster: result gather stalled for %v with %d dump segments outstanding (worker dead or wedged?)",
					cfg.RoundTimeout, expect)
			}
			return nil, fmt.Errorf("cluster: gathering results: %w", err)
		}
		if rec.fenced(m) {
			continue
		}
		if m.Kind == KDump && m.Seq == 0 {
			// Seq != 0 marks a straggling checkpoint dump — merged below
			// like any other, but not one of the requested segments.
			expect--
		}
		if herr := handle(m); herr != nil {
			stopAll()
			return nil, herr
		}
		if len(down) > 0 {
			stopAll()
			return nil, fmt.Errorf("cluster: worker %d died during result gather (its finished segments are lost)", down[0])
		}
	}
	// Trace gather rides behind the array gather (same FIFO streams, so
	// every PE's ring is final by the time its answer arrives). Collection
	// is best-effort: the run's results are already in hand, and a PE that
	// cannot answer any more costs an empty trace, never the run.
	if cfg.Trace {
		pts := gatherTraces(ctx, ep, n, traceGatherWait(cfg.RoundTimeout), rec)
		res.Trace = &trace.Trace{NumPEs: n, PEs: pts, Timeline: tb.Done()}
	}
	stopAll()
	return res, nil
}

// timelineCap bounds the driver-side metrics timeline in samples (one per
// PE per completed probe round); the oldest rounds drop (and are counted)
// beyond it.
const timelineCap = 1 << 16

// stallTailEvents is how many trailing trace events per PE a stalled
// round's diagnostic dump includes.
const stallTailEvents = 8

// traceGatherWait bounds each receive of the post-termination trace
// gather. The run is already complete, so the wait only covers a flush of
// an in-memory ring: far shorter than a full round deadline.
func traceGatherWait(roundTimeout time.Duration) time.Duration {
	w := 2 * time.Second
	if roundTimeout > 0 && roundTimeout < w {
		w = roundTimeout
	}
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// gatherTraces asks every worker for its trace ring and collects the
// answers best-effort: a PE that cannot answer (dead, or wedged below its
// message loop) contributes an empty PETrace instead of failing the
// gather. Driver-bound frames of any other kind arriving in the window are
// stale post-termination traffic and are dropped.
func gatherTraces(ctx context.Context, ep Endpoint, n int, wait time.Duration, rec *recovery) []trace.PETrace {
	out := make([]trace.PETrace, n)
	got := make([]bool, n)
	need := 0
	for pe := 0; pe < n; pe++ {
		if err := ep.Send(pe, &Msg{Kind: KTraceReq}); err == nil {
			need++
		}
	}
	for need > 0 {
		m, _, err := recvStallGuarded(ctx, ep, wait)
		if err != nil {
			break
		}
		if rec != nil && rec.fenced(m) {
			continue
		}
		if m.Kind != KTrace {
			continue
		}
		pe := int(m.From)
		if pe < 0 || pe >= n || got[pe] {
			continue
		}
		got[pe] = true
		need--
		out[pe] = trace.PETrace{Events: trace.Unflatten(m.TraceEvs), Drops: m.TraceDrops}
	}
	return out
}

// stallTraceDump formats each PE's trailing trace events for a stalled
// round's error message. The wait per receive is short: the PEs that can
// still talk answer immediately, and the one the round is stalled on
// probably never will.
func stallTraceDump(ctx context.Context, ep Endpoint, n int, rec *recovery) string {
	pts := gatherTraces(ctx, ep, n, 500*time.Millisecond, rec)
	var b strings.Builder
	for pe := range pts {
		fmt.Fprintf(&b, "\n  pe %d trace tail (%d events, %d dropped):\n%s",
			pe, len(pts[pe].Events), pts[pe].Drops, trace.FormatTail(pts[pe].Events, stallTailEvents))
	}
	return b.String()
}

// recvStallGuarded receives one driver-bound message, bounding the wait to
// stallAfter (0 or negative disables the guard). The deadline covers a
// single receive, so it re-arms with every message: it fires only on
// genuine silence, never on a phase that is slow but progressing. stalled
// distinguishes the guard firing from the caller's context ending.
func recvStallGuarded(ctx context.Context, ep Endpoint, stallAfter time.Duration) (m *Msg, stalled bool, err error) {
	if stallAfter <= 0 {
		m, err = ep.Recv(ctx)
		return m, false, err
	}
	rctx, rcancel := context.WithTimeout(ctx, stallAfter)
	m, err = ep.Recv(rctx)
	rcancel()
	return m, err != nil && ctx.Err() == nil && rctx.Err() != nil, err
}
