package cluster

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rtcfg"
)

// PumpedRun runs a kernel on hand-pumped workers — the deterministic,
// adversarially fair round-robin schedule of pumpRound, with no driver
// probes — and returns the quiescent counters (Stats, PEInstrs, PEStats)
// summed as a probed run's final acks are. It honours cfg's geometry and
// worker options (Steal, CachePages, Trace) and nothing else: no
// environment overrides, rebinds (there are no probe rounds) or recovery,
// so equal inputs always give equal counts. Unlike free-running schedules, where a steal-heavy
// kernel's reads mostly resolve as deferred tokens and timing moves every
// count, it makes post-steal page fetches (the CACHE probe) and traced vs
// untraced makespans (the TRACE gate) exact and reproducible.
func PumpedRun(prog *isa.Program, args []isa.Value, cfg Config) (*Result, error) {
	geo := rtcfg.Geometry{PEs: cfg.NumPEs, PageElems: cfg.PageElems, DistThreshold: cfg.DistThreshold}
	if err := geo.Fill(rtcfg.DefaultPEs); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	pes := geo.PEs
	opts := cfg.workerOpts()
	if opts.trace && opts.traceCap == 0 {
		opts.traceCap = defaultTraceCap
	}
	eps := newChanTransport(pes, 0)
	ws := make([]*worker, pes)
	for pe := range ws {
		ws[pe] = newWorker(pe, pes, geo, prog, eps[pe], opts)
	}
	driver := eps[pes]
	if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: int32(prog.EntryID), Args: args}); err != nil {
		return nil, err
	}
	for rounds := 0; ; rounds++ {
		if rounds > 50_000_000 {
			return nil, fmt.Errorf("cluster: pumped run did not quiesce")
		}
		progress := pumpRound(ws, eps)
		for {
			m, ok := driver.TryRecv()
			if !ok {
				break
			}
			if m.Kind == KFail {
				return nil, fmt.Errorf("cluster: pumped worker failed: %s", m.Name)
			}
		}
		if !progress {
			break
		}
	}
	det := newDetector(pes)
	for pe, w := range ws {
		if len(w.insts) != 0 {
			return nil, fmt.Errorf("cluster: pumped run deadlocked with %d live SPs on pe %d", len(w.insts), pe)
		}
		det.acks[pe].ctr = w.snapshot()
	}
	return &Result{NumPEs: pes, Stats: det.stats(), PEInstrs: det.perPEInstrs(), PEStats: det.perPEStats()}, nil
}

// pumpRound gives every worker one mailbox drain plus at most one step
// (or one steal attempt when idle) — a deterministic stand-in for N PEs
// progressing in parallel. It reports whether anything happened.
func pumpRound(ws []*worker, eps []Endpoint) bool {
	progress := false
	for i, w := range ws {
		for {
			m, ok := eps[i].TryRecv()
			if !ok {
				break
			}
			w.handle(m)
			progress = true
		}
		if w.readyHead != len(w.ready) {
			w.step()
			progress = true
		} else {
			before := w.stealOutstanding
			w.maybeSteal()
			progress = progress || (w.stealOutstanding && !before)
		}
	}
	return progress
}
