package cluster

// Driver-side half of adaptive repartitioning: the driver is the rebind
// coordinator. Workers flush per-(loop, sweep, iteration) instruction
// costs with every probe ack (KCostReport); the coordinator merges them
// and, once a sweep's observations are complete enough to trust, asks the
// split planner for new cuts and broadcasts them (KRebound). All of this
// traffic is driver control-plane, so it is invisible to the four-counter
// termination sums, and the cuts themselves reach the program only by
// being stamped onto a later SPAWND fan-out — there is no stop-the-world
// barrier to compose with stealing or termination probing.
//
// A sweep is considered finished when a newer sweep of the same loop has
// reported costs and one further complete probe round has passed. The
// first half is the real signal — an iterative kernel whose sweeps are
// serialized by a data dependence cannot start sweep k+1 until sweep k is
// done — and the extra round closes the straggler window: a worker that
// answered the round's probe before executing its last iterations flushes
// the remainder with its next ack, which the driver has merged by the time
// the following round completes (flushes precede acks on the same FIFO
// stream). Nothing cheaper is trustworthy: iteration *coverage* completes
// almost immediately after a fan-out (the loop copies charge every
// iteration while spawning its body SPs, long before the bodies run), so
// planning on coverage would balance spawn overhead, not work.
//
// The heuristic only gates *when* a rebind happens, never what it may
// break: stamped cut vectors tile all of ℤ, so any fan-out — before,
// after, or concurrent with a rebind — partitions its real index range
// exactly, and single-assignment semantics make the results identical no
// matter how the bounds moved.

import (
	"cmp"
	"slices"
)

// sweepCosts accumulates one (loop, sweep)'s observations.
type sweepCosts struct {
	iters      map[int64]int64
	min, max   int64
	firstRound int32 // probe round in which the sweep first reported
}

// loopCosts is the coordinator's per-loop state.
type loopCosts struct {
	sweeps map[int64]*sweepCosts
	order  []int64            // sweep IDs in first-report order
	done   map[int64]struct{} // planned sweeps; late reports are ignored
	cuts   []int64            // currently installed cuts (nil = static)
}

// rebind is one planned cut-vector broadcast.
type rebind struct {
	tmpl int32
	cuts []int64
}

// adaptCoord is the driver's rebind coordinator.
type adaptCoord struct {
	n        int
	loops    map[int32]*loopCosts
	rebounds int64
	retired  []int64 // sweeps retired since the last drainRetired
}

// adaptHysteresis is the minimum fractional predicted-makespan improvement
// a new cut vector must deliver before it is broadcast; smaller gains are
// churn, not balance.
const adaptHysteresis = 0.05

func newAdaptCoord(n int) *adaptCoord {
	return &adaptCoord{n: n, loops: make(map[int32]*loopCosts)}
}

// merge folds one KCostReport into the tables. round is the probe round
// currently being collected. It reports whether the message opened a new
// sweep — the driver's cue to re-tighten its probe cadence, since a sweep
// in flight means a rebind decision is coming up.
func (a *adaptCoord) merge(m *Msg, round int32) (newSweep bool) {
	if len(m.Iters) != len(m.Costs) {
		return false // malformed report; ignore rather than fail a healthy run
	}
	lc := a.loops[m.Tmpl]
	if lc == nil {
		lc = &loopCosts{sweeps: make(map[int64]*sweepCosts), done: make(map[int64]struct{})}
		a.loops[m.Tmpl] = lc
	}
	if _, planned := lc.done[m.Sweep]; planned {
		return false // straggler for a sweep already consumed by the planner
	}
	sc := lc.sweeps[m.Sweep]
	if sc == nil {
		sc = &sweepCosts{iters: make(map[int64]int64), firstRound: round}
		lc.sweeps[m.Sweep] = sc
		lc.order = append(lc.order, m.Sweep)
		newSweep = true
	}
	for i, iter := range m.Iters {
		if len(sc.iters) == 0 || iter < sc.min {
			sc.min = iter
		}
		if len(sc.iters) == 0 || iter > sc.max {
			sc.max = iter
		}
		sc.iters[iter] += m.Costs[i]
	}
	return newSweep
}

// tick runs the rebind policy at the end of complete probe round `round`
// and returns the cut broadcasts to send, in template order so the
// broadcast sequence does not depend on map iteration.
func (a *adaptCoord) tick(round int32) []rebind {
	var out []rebind
	for tmpl, lc := range a.loops {
		idx := -1 // newest finished sweep, as an index into lc.order
		for i := range lc.order {
			if i == len(lc.order)-1 {
				break // the newest sweep has no successor yet
			}
			// A newer sweep has reported: this one is done. Wait one
			// further complete round so workers that were still finishing
			// it when the newer sweep appeared have flushed the remainder.
			if round > lc.sweeps[lc.order[i+1]].firstRound {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		sc := lc.sweeps[lc.order[idx]]
		span := sc.max - sc.min + 1
		if span > maxPlanSpan {
			// A loop with an astronomically wide observed index range
			// would need an equally wide dense profile; leave it on its
			// static split rather than allocating one.
			a.retire(lc, idx)
			continue
		}
		costs := make([]int64, span)
		for iter, c := range sc.iters {
			costs[iter-sc.min] = c
		}
		cuts, changed := planCuts(sc.min, costs, a.n, lc.cuts, adaptHysteresis)
		if changed {
			lc.cuts = cuts
			a.rebounds++
			out = append(out, rebind{tmpl: tmpl, cuts: cuts})
		}
		// The planned sweep and everything older is consumed.
		a.retire(lc, idx)
	}
	slices.SortFunc(out, func(x, y rebind) int { return cmp.Compare(x.tmpl, y.tmpl) })
	return out
}

// maxPlanSpan bounds the dense cost profile the planner materializes.
const maxPlanSpan = 1 << 22

// retire drops sweeps order[0..idx] from the tables, remembering their IDs
// so stragglers cannot revive them. Retired IDs also accumulate for the
// driver's replay-log GC: a retired sweep is one whose successor has
// reported (plus a straggler round), the coordinator's strongest
// completion signal.
func (a *adaptCoord) retire(lc *loopCosts, idx int) {
	for _, id := range lc.order[:idx+1] {
		delete(lc.sweeps, id)
		lc.done[id] = struct{}{}
		a.retired = append(a.retired, id)
	}
	lc.order = append(lc.order[:0], lc.order[idx+1:]...)
}

// drainRetired hands the sweeps retired since the last call to the caller
// (the driver's checkpoint kickoff).
func (a *adaptCoord) drainRetired() []int64 {
	out := a.retired
	a.retired = nil
	return out
}
