// Package sim is the PODS simulator: a deterministic discrete-event model of
// a distributed-memory MIMD machine (an iPSC/2-like hypercube) executing
// translated dataflow programs as Subcompact Processes. Each PE has five
// concurrently operating functional units — Execution Unit, Matching Unit,
// Memory Manager, Array Manager, Routing Unit (paper Figure 7) — and the
// network is modeled as pure propagation delay. All service times come from
// internal/timing, i.e. from §5.1 of the paper.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// unit is one functional unit with FIFO service: a job scheduled at time t
// starts at max(t, free) and occupies the unit for its duration.
type unit struct {
	free int64
	busy int64
}

// serve schedules dur of work on u no earlier than `earliest` and runs fn
// when the work completes.
func (m *Machine) serve(u *unit, earliest, dur int64, fn func(t int64)) {
	start := earliest
	if u.free > start {
		start = u.free
	}
	end := start + dur
	u.free = end
	u.busy += dur
	if fn != nil {
		m.at(end, fn)
	} else if end > m.horizon {
		m.horizon = end
	}
}

// extend adds extra occupancy to a unit from within its own completion
// handler (used when a job's true length is only known at execution time,
// e.g. releasing queued I-structure reads on a write).
func (m *Machine) extend(u *unit, now, extra int64) int64 {
	if u.free < now {
		u.free = now
	}
	u.free += extra
	u.busy += extra
	return u.free
}

type spState uint8

const (
	spReady spState = iota + 1
	spRunning
	spBlocked
	spStalled // baseline (Stall) mode: EU waiting in place
)

// spInst is one live SP instance: a template plus an operand frame with
// presence bits and a program counter — the paper's PCB ("the starting
// address of the SP, a program counter, and a status field").
type spInst struct {
	id      int64
	tmpl    *isa.Template
	frame   []isa.Value
	present []bool
	pc      int
	state   spState
	blocked int // slot index the SP is blocked on
	pe      int
}

type pe struct {
	id    int
	m     *Machine
	shard *istructure.Shard

	eu unit // execution unit (managed by exec.go, but busy time lives here)
	mu unit // matching unit
	mm unit // memory manager
	am unit // array manager
	ru unit // routing unit

	ready    []*spInst
	cur      *spInst
	euActive bool

	// stallOn is set by a remote read in the control-driven baseline
	// (Config.Stall): the EU waits on this slot instead of switching SPs.
	stallOn int

	sps map[int64]*spInst
}

// Machine simulates a PODS multiprocessor executing one program.
type Machine struct {
	cfg  Config
	prog *isa.Program
	pes  []*pe

	events  eventHeap
	seq     int64
	now     int64
	horizon int64 // latest unit-completion time with no callback

	nextSP    int64
	nextArray int64

	spLoc   map[int64]int // SP instance id → PE
	arrays  map[int64]*istructure.Header
	byName  map[string]int64 // last allocated array per source name
	nameSeq []string

	counts Counts
	failed error

	mainResult *isa.Value
}

// New builds a machine for a validated program.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, errors.New("sim: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		spLoc:  make(map[int64]int),
		arrays: make(map[int64]*istructure.Header),
		byName: make(map[string]int64),
	}
	m.pes = make([]*pe, cfg.NumPEs)
	for i := range m.pes {
		m.pes[i] = &pe{id: i, m: m, shard: istructure.NewShard(i), stallOn: isa.None, sps: make(map[int64]*spInst)}
	}
	return m, nil
}

// fail records the first fatal simulation error and halts event processing.
func (m *Machine) fail(err error) {
	if m.failed == nil {
		m.failed = err
	}
}

// trace emits one lifecycle line when tracing is enabled.
func (m *Machine) trace(t int64, pe int, format string, args ...interface{}) {
	if m.cfg.Trace == nil {
		return
	}
	fmt.Fprintf(m.cfg.Trace, "[%10.3fµs] PE%-2d %s\n", float64(t)/1000, pe, fmt.Sprintf(format, args...))
}

// DeadlockError reports SPs still alive when the event queue drained.
type DeadlockError struct {
	Report string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock — live SPs remain with no pending events:\n" + e.Report
}

// Run instantiates the entry template with the given arguments on PE 0 and
// processes events until the machine drains. It can be called once.
func (m *Machine) Run(args ...isa.Value) (*Result, error) {
	entry := m.prog.Entry()
	want := entry.NParams
	if entry.HasResult {
		want -= 2
	}
	if len(args) != want {
		return nil, fmt.Errorf("sim: entry %q wants %d args, got %d", entry.Name, want, len(args))
	}
	if entry.HasResult {
		args = append(append([]isa.Value{}, args...), isa.SPRef(0), isa.Int(0))
	}
	m.instantiate(m.pes[0], entry, m.newSPID(), args, 0)
	m.pes[0].wakeEU(0)

	var nEvents int64
	for len(m.events) > 0 && m.failed == nil {
		ev := m.events[0]
		m.events[0] = m.events[len(m.events)-1]
		m.events = m.events[:len(m.events)-1]
		down(m.events, 0)
		if ev.t < m.now {
			return nil, fmt.Errorf("sim: time went backwards (%d < %d)", ev.t, m.now)
		}
		m.now = ev.t
		ev.fn(ev.t)
		nEvents++
		if nEvents > m.cfg.MaxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events (livelock?)", m.cfg.MaxEvents)
		}
	}
	if m.failed != nil {
		return nil, m.failed
	}
	if rep := m.liveReport(); rep != "" {
		return nil, &DeadlockError{Report: rep}
	}
	end := m.now
	if m.horizon > end {
		end = m.horizon
	}
	res := &Result{Time: end, Counts: m.counts}
	res.PEs = make([]UnitStats, len(m.pes))
	for i, p := range m.pes {
		res.PEs[i] = UnitStats{EU: p.eu.busy, MU: p.mu.busy, MM: p.mm.busy, AM: p.am.busy, RU: p.ru.busy}
	}
	if m.mainResult != nil {
		res.MainValue = &ReturnedValue{Kind: m.mainResult.Kind.String(), I: m.mainResult.I, F: m.mainResult.F}
	}
	for _, p := range m.pes {
		res.Counts.DeferredReads += p.shard.DeferredReads
	}
	return res, nil
}

// down restores the heap property after replacing the root (inlined sift-down
// to avoid re-wrapping container/heap on the hot path).
func down(h eventHeap, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.Less(r, l) {
			j = r
		}
		if !h.Less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (m *Machine) newSPID() int64 {
	m.nextSP++
	return m.nextSP
}

// instantiate creates a live SP instance on p (state change only; the MM/MU
// service costs are charged by the spawn path).
func (m *Machine) instantiate(p *pe, tmpl *isa.Template, id int64, args []isa.Value, t int64) *spInst {
	sp := &spInst{
		id:      id,
		tmpl:    tmpl,
		frame:   make([]isa.Value, tmpl.NSlots),
		present: make([]bool, tmpl.NSlots),
		pc:      0,
		state:   spReady,
		blocked: isa.None,
		pe:      p.id,
	}
	if len(args) != tmpl.NParams {
		m.fail(fmt.Errorf("sim: template %q spawned with %d args, wants %d", tmpl.Name, len(args), tmpl.NParams))
		return sp
	}
	copy(sp.frame, args)
	for i := range args {
		sp.present[i] = true
	}
	p.sps[id] = sp
	m.spLoc[id] = p.id
	p.ready = append(p.ready, sp)
	m.counts.SPsCreated++
	m.trace(t, p.id, "spawn SP#%d %q (ready)", id, tmpl.Name)
	return sp
}

// destroy removes a halted SP.
func (m *Machine) destroy(sp *spInst) {
	p := m.pes[sp.pe]
	delete(p.sps, sp.id)
	delete(m.spLoc, sp.id)
}

// deliver places a token value into slot of SP instance id, waking the
// instance if it was blocked (or stalled) on that slot. Instance 0 is the
// environment: its tokens become the program result.
func (m *Machine) deliver(t int64, id int64, slot int, v isa.Value) {
	if id == 0 {
		val := v
		m.mainResult = &val
		return
	}
	loc, ok := m.spLoc[id]
	if !ok {
		m.fail(fmt.Errorf("sim: token for dead/unknown SP %d (slot %d)", id, slot))
		return
	}
	p := m.pes[loc]
	sp := p.sps[id]
	if slot < 0 || slot >= len(sp.frame) {
		m.fail(fmt.Errorf("sim: token slot %d out of range for SP %d (%q)", slot, id, sp.tmpl.Name))
		return
	}
	sp.frame[slot] = v
	sp.present[slot] = true
	switch sp.state {
	case spBlocked:
		if sp.blocked == slot {
			sp.state = spReady
			sp.blocked = isa.None
			p.ready = append(p.ready, sp)
			m.trace(t, p.id, "unblock SP#%d %q (slot %d arrived)", sp.id, sp.tmpl.Name, slot)
			p.wakeEU(t)
		}
	case spStalled:
		if sp.blocked == slot {
			sp.state = spRunning
			sp.blocked = isa.None
			m.trace(t, p.id, "resume SP#%d %q (stall satisfied)", sp.id, sp.tmpl.Name)
			p.wakeEU(t)
		}
	}
}

// liveReport describes all live SPs (empty when none) for deadlock errors.
func (m *Machine) liveReport() string {
	var lines []string
	for _, p := range m.pes {
		for _, sp := range p.sps {
			state := "ready"
			switch sp.state {
			case spRunning:
				state = "running"
			case spBlocked:
				state = fmt.Sprintf("blocked on slot %d", sp.blocked)
			case spStalled:
				state = fmt.Sprintf("stalled on slot %d", sp.blocked)
			}
			pend := p.shard.PendingReads()
			lines = append(lines, fmt.Sprintf("  PE%d SP#%d %q pc=%d %s (pe pending reads: %d)",
				p.id, sp.id, sp.tmpl.Name, sp.pc, state, pend))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// header returns the installed header for an array handle.
func (m *Machine) header(id int64) *istructure.Header { return m.arrays[id] }

// ReadArray gathers a named array's contents from all shards after a run.
// Values never written are returned as NaN-free zeros with ok=false in mask.
func (m *Machine) ReadArray(name string) (vals []float64, mask []bool, dims []int, err error) {
	id, ok := m.byName[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("sim: unknown array %q", name)
	}
	h := m.arrays[id]
	n := h.Elems()
	vals = make([]float64, n)
	mask = make([]bool, n)
	for off := 0; off < n; off++ {
		owner := h.OwnerOf(off)
		if v, present := m.pes[owner].shard.Peek(id, off); present {
			vals[off] = v.AsFloat()
			mask[off] = true
		}
	}
	return vals, mask, append([]int(nil), h.Dims...), nil
}

// ArrayNames lists allocated source-level array names in allocation order.
func (m *Machine) ArrayNames() []string { return append([]string(nil), m.nameSeq...) }
