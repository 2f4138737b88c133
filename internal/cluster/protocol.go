// Package cluster is a message-passing distributed-memory runtime for
// translated PODS programs: N PE workers, each owning its own shard of
// I-structure memory and its own run queue, communicate exclusively through
// a typed message protocol — token delivery, SPAWND broadcast, remote
// I-structure read with deferred-read queueing, page request/ship with
// invalidation-free single-assignment caching, and distributed termination
// detection — over a pluggable Transport. Two transports exist: an
// in-process channel transport (one goroutine + mailbox per PE, zero shared
// state) and a TCP transport (length-prefixed frames over net.Conn, so PEs
// can run as separate OS processes; see cmd/podsd).
//
// Unlike internal/podsrt, which models a shared-memory multiprocessor with
// a single mutex-protected I-structure store, this runtime is faithful to
// the paper's iPSC/2 setting: no worker ever touches another worker's
// memory, and every remote array access costs a real message round-trip.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
)

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Protocol message kinds. Data-plane kinds (spawn, token, alloc, readReq,
// page, write) are counted by the termination detector; control-plane kinds
// are not.
const (
	// KInit configures a TCP worker: its PE index, the cluster geometry,
	// the peer address list, and the serialized program. Channel-transport
	// workers are configured in-process and never see it.
	KInit MsgKind = iota + 1

	// KSpawn instantiates template Tmpl with Args on the receiving PE
	// (the remote half of the L / distributing-LD operators).
	KSpawn

	// KToken delivers Val to slot Slot of SP instance SP. SP 0 is the
	// driver environment: such tokens become the program result.
	KToken

	// KAlloc is the distributing-allocate broadcast (§4.1): every PE (and
	// the driver) installs the array header described by Arr/Name/Dims/
	// Origin/Dist.
	KAlloc

	// KReadReq asks the owning PE for element Off of array Arr on behalf
	// of SP/Slot on PE ReqPE. If the element is present the owner ships
	// the whole page (KPage); if absent it queues the request and later
	// answers with a KToken when the write lands (§5.1 Array Manager).
	KReadReq

	// KPage ships a snapshot of page Page of array Arr (Vals/Set), plus
	// the originally requested element Off for SP/Slot delivery. Single
	// assignment makes the cache invalidation-free: present entries are
	// final, absent entries may only be filled by a later refetch.
	KPage

	// KWrite stores Val at element Off of array Arr on the owning PE.
	KWrite

	// KFail reports a fatal worker error (Name holds the message).
	KFail

	// KProbe is a termination-detection probe for round Round.
	KProbe

	// KAck answers a probe with the worker's counter vector: cumulative
	// worker-to-worker sent/recv message counts, the live SP count, and
	// the load, cache and steal statistics (counters.go).
	KAck

	// KDumpReq asks a worker for its owned segment of array Arr.
	KDumpReq

	// KDump returns a segment: values and presence bits starting at linear
	// offset Off.
	KDump

	// KStop shuts a worker down.
	KStop

	// KStealReq asks a peer for not-yet-started SP instances. Sent by an
	// idle worker (empty ready queue) to a victim chosen round-robin with
	// backoff. HotPages carries the thief's hot-page summary — the
	// (array, page) pairs whose data is local to it — so the victim can
	// prefer granting SPs whose operand rows the thief already holds.
	KStealReq

	// KStealGrant answers a steal request with a batch of stolen SPs
	// (Batch): up to half of the victim's stealable backlog in one
	// message, locality-preferred (SPs whose operand rows lie on pages in
	// the thief's HotPages summary first, oldest first within equal
	// locality). Each item ships the SP's home ID, template, operand
	// frame, and cost tag; the victim leaves one forwarding stub per item
	// behind so tokens addressed to the home IDs are relayed to the thief.
	KStealGrant

	// KStealNone answers a steal request when the victim has nothing to
	// give (unloaded, failed, or only in-flight SPs); the thief's backoff
	// grows.
	KStealNone

	// KCostReport flushes a worker's per-iteration instruction costs for
	// one (Range-Filtered loop, sweep) pair to the driver: Tmpl names the
	// loop template, Sweep the fan-out the costs belong to, and Iters/Costs
	// are parallel slices of iteration indices and instruction counts
	// accumulated since the worker's previous flush. Sent alongside each
	// probe ack, so the reports ride the termination-detection cadence and
	// stay off the four-counter sums (driver traffic is control-plane).
	KCostReport

	// KRebound installs new adaptive index bounds for loop template Tmpl on
	// every worker: Cuts[p] is the last iteration assigned to PE p (the
	// final PE's upper bound is implied +inf). Workers apply the cuts to
	// future SPAWND fan-outs of that loop by stamping explicit per-PE
	// bounds onto the spawn messages, so every copy of one sweep sees one
	// consistent partition no matter when the rebound arrived.
	KRebound

	// KSpawnLog records one SPAWND fan-out with the driver (Tmpl, Args,
	// Sweep, and the Cuts that stamped it). Sent by the spawner before the
	// fan-out itself when recovery is enabled, so the driver can replay a
	// dead PE's root assignments against a replacement worker. Driver
	// control-plane: invisible to the four-counter sums.
	KSpawnLog

	// KRecover announces a completed recovery to the surviving workers:
	// Epoch is the new counting epoch, Incs the full per-PE incarnation
	// vector (a PE whose incarnation grew was respawned), and Peers the
	// updated worker address list (TCP — the dead PE's slot now names its
	// spare). Survivors zero their termination counters, fence the dead
	// incarnations, repoint the transport, and replay their share of the
	// lost state: logged remote writes, outstanding remote reads, and
	// steal grants made to the dead incarnation.
	KRecover

	// KDown reports a dead worker to the driver: PE names it, Inc the
	// incarnation that died. It is synthesized locally — by the channel
	// transport's fault injector and by the TCP driver's connection pumps —
	// and never crosses a wire, so a worker death is detected at
	// connection-loss speed instead of waiting out a probe-round deadline.
	KDown

	// KStealDone tells the grantor of a stolen SP that it ran to completion
	// on the thief (SP names the home ID). Each hop of a steal chain drops
	// its forwarding stub and grant record and relays the notice toward the
	// home PE, so a later recovery does not re-instantiate work that
	// already finished. Sent only when recovery is enabled; control-plane.
	KStealDone

	// KFlush is an epoch flush marker: a worker that adopts a new counting
	// epoch sends one to every peer (after repointing at the replacement
	// addresses). Per-pair FIFO puts the marker behind every frame the
	// sender emitted in older epochs, so once a worker holds markers from
	// all peers, no pre-epoch frame — invisible to the new epoch's
	// four-counter sums — can still be in flight toward it; the detector
	// requires exactly that (the ack's Flushed bit) before it will declare
	// termination. Control-plane.
	KFlush

	// KTraceReq asks a worker to flush its trace ring to the driver. Sent
	// after termination (the gather phase) or when a stalled probe round
	// needs diagnostics. Control-plane: trace traffic must never move the
	// four-counter sums, or tracing would perturb the runs it observes.
	KTraceReq

	// KTrace answers a trace request: TraceEvs is the worker's event ring
	// flattened oldest-first (five int64 words per event), TraceDrops the
	// count of events the ring's capacity bound discarded. Control-plane.
	KTrace

	// KJobStart creates a per-job worker instance on a fleet host: Job
	// names the job, Prog carries the serialized program, the flat config
	// fields and the init/recover blocks carry the job's scheduling knobs,
	// budgets, counting epoch, and incarnation vector. Fleet hosts route
	// every subsequent frame stamped with this Job to that instance.
	KJobStart

	// KJobEnd tears a job down on a fleet host: the host stops the job's
	// worker instance, frees its shard and logs, and drops any straggler
	// frames still addressed to the job. Control-plane.
	KJobEnd

	// KSubmit asks a job server (podsd -serve) to run a program: Prog is
	// the serialized .pods program, Args the main arguments, Name a label,
	// Seq a client-chosen correlation tag. The per-job budget fields ride
	// the init block.
	KSubmit

	// KResult answers a KSubmit once the job finished: Val is the program
	// result (echoing Seq). The server streams each array as a KDump frame
	// (Name/Dims/Vals/Set) before the KResult; errors arrive as KFail.
	KResult

	// KCkpt starts a log-GC checkpoint on every worker: Seq is the
	// checkpoint ID and Iters the sweep IDs the adapt coordinator has
	// retired since the previous checkpoint. Each worker records its
	// remote-write log cut, then sends KCkptMark to all peers.
	KCkpt

	// KCkptMark is the flush marker workers exchange during a checkpoint:
	// per-pair FIFO puts it behind every remote write its sender logged
	// before its cut, so a worker holding marks from all peers knows its
	// owned segments already contain every pre-cut write. Control-plane.
	KCkptMark

	// KCkptAck tells the driver one worker finished its checkpoint dump
	// (owned segments shipped as KDump frames). Control-plane.
	KCkptAck

	// KCkptOK completes a checkpoint: every worker dumped, so workers drop
	// their pre-cut write-log prefixes and the fan-out log entries of the
	// sweeps named in the opening KCkpt. Control-plane.
	KCkptOK

	// KRestore pushes a checkpointed owned segment back to a respawned
	// worker (Arr/Off/Vals/Set, same shape as KDump): values a GC'd log
	// can no longer replay are reinstalled as idempotent owner writes,
	// releasing any deferred readers queued by re-executed SPs.
	KRestore
)

func (k MsgKind) String() string {
	switch k {
	case KInit:
		return "init"
	case KSpawn:
		return "spawn"
	case KToken:
		return "token"
	case KAlloc:
		return "alloc"
	case KReadReq:
		return "readReq"
	case KPage:
		return "page"
	case KWrite:
		return "write"
	case KFail:
		return "fail"
	case KProbe:
		return "probe"
	case KAck:
		return "ack"
	case KDumpReq:
		return "dumpReq"
	case KDump:
		return "dump"
	case KStop:
		return "stop"
	case KStealReq:
		return "stealReq"
	case KStealGrant:
		return "stealGrant"
	case KStealNone:
		return "stealNone"
	case KCostReport:
		return "costReport"
	case KRebound:
		return "rebound"
	case KSpawnLog:
		return "spawnLog"
	case KRecover:
		return "recover"
	case KDown:
		return "down"
	case KStealDone:
		return "stealDone"
	case KFlush:
		return "flush"
	case KTraceReq:
		return "traceReq"
	case KTrace:
		return "trace"
	case KJobStart:
		return "jobStart"
	case KJobEnd:
		return "jobEnd"
	case KSubmit:
		return "submit"
	case KResult:
		return "result"
	case KCkpt:
		return "ckpt"
	case KCkptMark:
		return "ckptMark"
	case KCkptAck:
		return "ckptAck"
	case KCkptOK:
		return "ckptOK"
	case KRestore:
		return "restore"
	default:
		return fmt.Sprintf("msg(%d)", uint8(k))
	}
}

// Msg is one protocol message. It is a flat union: each kind uses the
// subset of fields its documentation names. A Msg (and every slice it
// references) is owned by the receiver once sent and must not be mutated by
// the sender afterwards — the channel transport passes pointers.
type Msg struct {
	Kind MsgKind
	From int32 // sending endpoint: worker PE, or N (the driver)

	// Job names the job a frame belongs to on a multi-program fleet
	// (stamped by the per-job endpoint wrappers; 0 is fleet-level
	// control). Seq is a multi-purpose sequence number: the victim-minted
	// per-thief grant sequence on KStealGrant (so a re-delivered completed
	// grant is detected and dropped), the checkpoint ID on KCkpt*, and the
	// client correlation tag on KSubmit/KResult.
	Job int32
	Seq int64

	// SP routing (spawn, token, readReq, page).
	SP   int64
	Slot int32
	Val  isa.Value
	Tmpl int32
	Args []isa.Value

	// Array operations (alloc, readReq, page, write, dump).
	Arr    int64
	Off    int32
	Page   int32
	Vals   []isa.Value
	Set    []bool
	Name   string // alloc array name; fail error text
	Dims   []int32
	Origin int32
	Dist   bool
	ReqPE  int32

	// Failure recovery (every kind). Epoch is the sender's counting epoch
	// (bumped by one per recovery event); Inc is the sender's incarnation,
	// checked against the receiver's incarnation vector so frames from a
	// dead PE's previous life are dropped at the boundary.
	Epoch int32
	Inc   int32

	// Termination detection (probe, ack). Ctrs is the acking worker's
	// counter vector (numCounters entries, indexed by counter); Flushed
	// reports epoch flush markers held from every peer.
	Round   int32
	Ctrs    []int64
	Flushed bool

	// Adaptive repartitioning (spawn, costReport, rebound). A migrating
	// SP's cost tag travels per StealItem in the grant batch.
	Sweep int64   // fan-out identity of a distributed spawn (spawn, costReport)
	RngOn bool    // spawn carries explicit adaptive bounds (spawn)
	RngLo int64   // adaptive lower index bound for the receiving PE (spawn)
	RngHi int64   // adaptive upper index bound for the receiving PE (spawn)
	Iters []int64 // iteration indices of a cost flush (costReport)
	Costs []int64 // instruction counts parallel to Iters (costReport)
	Cuts  []int64 // per-PE last-iteration cut points (rebound)

	// Work stealing (stealReq, stealGrant).
	HotPages []int64     // thief's hot-page summary as (array, page) pairs (stealReq)
	Batch    []StealItem // granted SP instances, locality-preferred order (stealGrant)

	// Worker configuration (init block: init, jobStart, submit): identity,
	// geometry, the job's knobs, and the serialized program.
	PE            int32
	NumPEs        int32
	PageElems     int32
	DistThreshold int32
	CachePages    int32
	Steal         bool
	Adapt         bool
	Prog          []byte

	// Recovery announcements (recover block: init, recover, jobStart).
	// Incs is the full per-PE incarnation vector; Recover enables the
	// worker-side recovery machinery (write logging, grant logging,
	// idempotent rewrites); Peers is the TCP peer table (repointed after a
	// re-homing).
	Recover bool
	Incs    []int32
	Peers   []string

	// Observability (init, trace). The init block carries the tracing
	// configuration to remote workers; the trace block carries a flushed
	// event ring back (trace.Recorder.Flatten layout).
	Trace       bool
	TraceCap    int32
	TraceSample int32
	TraceEvs    []int64
	TraceDrops  int64

	// Per-job budgets (init block; only submit fills them). Zero =
	// unlimited. The job server clamps them to its own caps, and the
	// driver enforces both: MaxElems at each allocation broadcast,
	// MaxInstrs from the acked instruction totals. No worker reads them.
	MaxInstrs int64
	MaxElems  int64
}

// StealItem is one SP instance migrating inside a KStealGrant batch: its
// home ID, template, operand frame with presence bits, and the cost-
// attribution tag, so a migrated iteration keeps billing the iteration (on
// the loop that spawned it) that caused it.
type StealItem struct {
	SP       int64
	Tmpl     int32
	CostLoop int32 // -1 = untagged
	Sweep    int64
	CostIter int64
	Args     []isa.Value
	Set      []bool
}

// hasAdaptBlock reports whether the kind carries the adaptive-
// repartitioning fields (Sweep … Cuts) on the wire. Gating the block on
// the kind — known to both codec halves before the block is reached —
// keeps the flat encoding symmetric while sparing the high-volume data
// kinds (tokens, writes, pages) ~50 always-zero bytes per frame.
func (k MsgKind) hasAdaptBlock() bool {
	switch k {
	case KSpawn, KCostReport, KRebound, KSpawnLog, KCkpt, KCkptAck, KCkptOK:
		return true
	}
	return false
}

// hasRecoverBlock reports whether the kind carries the recovery
// configuration fields (Recover, Incs, Peers) on the wire, gated like the
// other blocks so data frames stay free of them.
func (k MsgKind) hasRecoverBlock() bool {
	switch k {
	case KInit, KRecover, KJobStart:
		return true
	}
	return false
}

// hasStealBlock reports whether the kind carries the work-stealing fields
// (HotPages, Batch) on the wire, gated the same way as the adapt
// block.
func (k MsgKind) hasStealBlock() bool {
	switch k {
	case KStealReq, KStealGrant:
		return true
	}
	return false
}

// hasStatsBlock reports whether the kind carries the probe answer (the
// counter vector and the Flushed bit) on the wire. Only the ack does;
// gating it spares every hot data frame (tokens, writes, pages) the
// always-empty block. Round stays in the flat prefix — probes carry it too.
func (k MsgKind) hasStatsBlock() bool { return k == KAck }

// hasInitBlock reports whether the kind carries the worker configuration
// (PE … Adapt, Prog), the observability configuration (Trace, TraceCap,
// TraceSample) and the per-job budgets (MaxInstrs, MaxElems): worker
// bring-up, per-job bring-up, and job submission do.
func (k MsgKind) hasInitBlock() bool {
	switch k {
	case KInit, KJobStart, KSubmit:
		return true
	}
	return false
}

// hasTraceBlock reports whether the kind carries a flushed trace ring
// (TraceEvs, TraceDrops), gated like the other blocks.
func (k MsgKind) hasTraceBlock() bool { return k == KTrace }

// isData reports whether the kind is counted by termination detection.
// Of the steal traffic, exactly the grant is data: a KStealGrant in flight
// carries a live SP, so it must keep the four counters unequal (and the
// granting victim holds the SP in its live count until the moment it
// sends). KStealReq/KStealNone are scheduling control-plane like probes —
// counting them would let the idle workers' own polling hold off
// termination detection indefinitely.
func (k MsgKind) isData() bool {
	switch k {
	case KSpawn, KToken, KAlloc, KReadReq, KPage, KWrite, KStealGrant:
		return true
	}
	return false
}

// The wire encoding is a flat, field-ordered binary layout: fixed-width
// little-endian scalars, length-prefixed slices and strings. Every field is
// always encoded — frames stay small because unused slices encode as a
// 4-byte zero length, and the simplicity buys us an obviously symmetric
// encoder/decoder pair. The exceptions are the kind-gated blocks — probe
// statistics (hasStatsBlock), adaptive repartitioning (hasAdaptBlock), work
// stealing (hasStealBlock), recovery (hasRecoverBlock), configuration
// (hasInitBlock), and trace rings (hasTraceBlock): both codec halves branch
// on the kind they have already read, so symmetry is preserved while the
// high-volume data kinds stay free of always-zero bytes.

func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendI32(b []byte, v int32) []byte   { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte   { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendI64(b, int64(math.Float64bits(v))) }

func appendValue(b []byte, v isa.Value) []byte {
	b = append(b, byte(v.Kind))
	b = appendI64(b, v.I)
	return appendF64(b, v.F)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, v)
	}
	return b
}

// encodeMsg appends the wire form of m to b.
func encodeMsg(b []byte, m *Msg) []byte {
	b = append(b, byte(m.Kind))
	b = appendI32(b, m.From)
	b = appendI32(b, m.Job)
	b = appendI64(b, m.Seq)
	b = appendI64(b, m.SP)
	b = appendI32(b, m.Slot)
	b = appendValue(b, m.Val)
	b = appendI32(b, m.Tmpl)
	b = appendU32(b, uint32(len(m.Args)))
	for _, v := range m.Args {
		b = appendValue(b, v)
	}
	b = appendI64(b, m.Arr)
	b = appendI32(b, m.Off)
	b = appendI32(b, m.Page)
	b = appendU32(b, uint32(len(m.Vals)))
	for _, v := range m.Vals {
		b = appendValue(b, v)
	}
	b = appendU32(b, uint32(len(m.Set)))
	for _, s := range m.Set {
		if s {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendString(b, m.Name)
	b = appendU32(b, uint32(len(m.Dims)))
	for _, d := range m.Dims {
		b = appendI32(b, d)
	}
	b = appendI32(b, m.Origin)
	if m.Dist {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendI32(b, m.ReqPE)
	b = appendI32(b, m.Epoch)
	b = appendI32(b, m.Inc)
	b = appendI32(b, m.Round)
	if m.Kind.hasStatsBlock() {
		b = appendI64s(b, m.Ctrs)
		if m.Flushed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	if m.Kind.hasAdaptBlock() {
		b = appendI64(b, m.Sweep)
		if m.RngOn {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendI64(b, m.RngLo)
		b = appendI64(b, m.RngHi)
		b = appendI64s(b, m.Iters)
		b = appendI64s(b, m.Costs)
		b = appendI64s(b, m.Cuts)
	}
	if m.Kind.hasStealBlock() {
		b = appendI64s(b, m.HotPages)
		b = appendU32(b, uint32(len(m.Batch)))
		for i := range m.Batch {
			it := &m.Batch[i]
			b = appendI64(b, it.SP)
			b = appendI32(b, it.Tmpl)
			b = appendI32(b, it.CostLoop)
			b = appendI64(b, it.Sweep)
			b = appendI64(b, it.CostIter)
			b = appendU32(b, uint32(len(it.Args)))
			for _, v := range it.Args {
				b = appendValue(b, v)
			}
			b = appendU32(b, uint32(len(it.Set)))
			for _, s := range it.Set {
				if s {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			}
		}
	}
	if m.Kind.hasRecoverBlock() {
		if m.Recover {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendU32(b, uint32(len(m.Incs)))
		for _, v := range m.Incs {
			b = appendI32(b, v)
		}
		b = appendU32(b, uint32(len(m.Peers)))
		for _, p := range m.Peers {
			b = appendString(b, p)
		}
	}
	if m.Kind.hasInitBlock() {
		b = appendI32(b, m.PE)
		b = appendI32(b, m.NumPEs)
		b = appendI32(b, m.PageElems)
		b = appendI32(b, m.DistThreshold)
		b = appendI32(b, m.CachePages)
		if m.Steal {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		if m.Adapt {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		if m.Trace {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendI32(b, m.TraceCap)
		b = appendI32(b, m.TraceSample)
		b = appendI64(b, m.MaxInstrs)
		b = appendI64(b, m.MaxElems)
		b = appendU32(b, uint32(len(m.Prog)))
		b = append(b, m.Prog...)
	}
	if m.Kind.hasTraceBlock() {
		b = appendI64s(b, m.TraceEvs)
		b = appendI64(b, m.TraceDrops)
	}
	return b
}

// reader decodes the flat layout with sticky error handling.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("cluster: truncated frame (want %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *reader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

func (r *reader) value() isa.Value {
	k := isa.Kind(r.u8())
	i := r.i64()
	f := r.f64()
	return isa.Value{Kind: k, I: i, F: f}
}

func (r *reader) str() string {
	n := r.u32()
	b := r.take(int(n))
	return string(b)
}

func (r *reader) i64s() []int64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// counters reads a counter-vector block. Its length prefix must equal
// numCounters exactly, so the allocation is never sized from the wire.
func (r *reader) counters() []int64 {
	if n := r.u32(); r.err == nil && n != uint32(numCounters) {
		r.err = fmt.Errorf("cluster: counter block of %d entries, want %d", n, numCounters)
	}
	if r.err != nil {
		return nil
	}
	out := make([]int64, numCounters)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// sliceLen validates a slice-length prefix against the remaining bytes so a
// corrupt frame cannot force a huge allocation.
func (r *reader) sliceLen(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && n*elemSize > len(r.b) {
		r.err = fmt.Errorf("cluster: frame slice length %d exceeds payload", n)
		return 0
	}
	return n
}

// decodeMsg parses one wire-format message.
func decodeMsg(b []byte) (*Msg, error) {
	r := &reader{b: b}
	m := &Msg{}
	m.Kind = MsgKind(r.u8())
	m.From = r.i32()
	m.Job = r.i32()
	m.Seq = r.i64()
	m.SP = r.i64()
	m.Slot = r.i32()
	m.Val = r.value()
	m.Tmpl = r.i32()
	if n := r.sliceLen(17); n > 0 {
		m.Args = make([]isa.Value, n)
		for i := range m.Args {
			m.Args[i] = r.value()
		}
	}
	m.Arr = r.i64()
	m.Off = r.i32()
	m.Page = r.i32()
	if n := r.sliceLen(17); n > 0 {
		m.Vals = make([]isa.Value, n)
		for i := range m.Vals {
			m.Vals[i] = r.value()
		}
	}
	if n := r.sliceLen(1); n > 0 {
		m.Set = make([]bool, n)
		for i := range m.Set {
			m.Set[i] = r.u8() != 0
		}
	}
	m.Name = r.str()
	if n := r.sliceLen(4); n > 0 {
		m.Dims = make([]int32, n)
		for i := range m.Dims {
			m.Dims[i] = r.i32()
		}
	}
	m.Origin = r.i32()
	m.Dist = r.u8() != 0
	m.ReqPE = r.i32()
	m.Epoch = r.i32()
	m.Inc = r.i32()
	m.Round = r.i32()
	if m.Kind.hasStatsBlock() {
		m.Ctrs = r.counters()
		m.Flushed = r.u8() != 0
	}
	if m.Kind.hasAdaptBlock() {
		m.Sweep = r.i64()
		m.RngOn = r.u8() != 0
		m.RngLo = r.i64()
		m.RngHi = r.i64()
		m.Iters = r.i64s()
		m.Costs = r.i64s()
		m.Cuts = r.i64s()
	}
	if m.Kind.hasStealBlock() {
		m.HotPages = r.i64s()
		// Minimum wire size of one item: the five fixed scalars plus two
		// empty slice-length prefixes.
		if n := r.sliceLen(40); n > 0 {
			m.Batch = make([]StealItem, n)
			for i := range m.Batch {
				it := &m.Batch[i]
				it.SP = r.i64()
				it.Tmpl = r.i32()
				it.CostLoop = r.i32()
				it.Sweep = r.i64()
				it.CostIter = r.i64()
				if na := r.sliceLen(17); na > 0 {
					it.Args = make([]isa.Value, na)
					for j := range it.Args {
						it.Args[j] = r.value()
					}
				}
				if ns := r.sliceLen(1); ns > 0 {
					it.Set = make([]bool, ns)
					for j := range it.Set {
						it.Set[j] = r.u8() != 0
					}
				}
			}
		}
	}
	if m.Kind.hasRecoverBlock() {
		m.Recover = r.u8() != 0
		if n := r.sliceLen(4); n > 0 {
			m.Incs = make([]int32, n)
			for i := range m.Incs {
				m.Incs[i] = r.i32()
			}
		}
		if n := r.sliceLen(4); n > 0 {
			m.Peers = make([]string, n)
			for i := range m.Peers {
				m.Peers[i] = r.str()
			}
		}
	}
	if m.Kind.hasInitBlock() {
		m.PE = r.i32()
		m.NumPEs = r.i32()
		m.PageElems = r.i32()
		m.DistThreshold = r.i32()
		m.CachePages = r.i32()
		m.Steal = r.u8() != 0
		m.Adapt = r.u8() != 0
		m.Trace = r.u8() != 0
		m.TraceCap = r.i32()
		m.TraceSample = r.i32()
		m.MaxInstrs = r.i64()
		m.MaxElems = r.i64()
		if n := r.sliceLen(1); n > 0 {
			m.Prog = append([]byte(nil), r.take(n)...)
		}
	}
	if m.Kind.hasTraceBlock() {
		m.TraceEvs = r.i64s()
		m.TraceDrops = r.i64()
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// ID packing: SP instances and arrays are identified by 64-bit IDs
// allocated without coordination. The layout, high to low:
//
//	bits 48..62  job namespace (low 15 bits of the job ID; 0 = single-job)
//	bits 40..47  owning PE index + 1 (the driver environment keeps ID 0)
//	bits 32..39  minting worker's incarnation
//	bits  0..31  per-PE sequence number
//
// The incarnation byte makes a replacement worker's IDs distinguishable
// from its dead predecessor's: a token that arrives at a PE for a local ID
// minted by an earlier incarnation is provably stale and is dropped, not
// failed. The job bits give every concurrent job on a shared fleet its own
// ID namespace, so two jobs' SP and array IDs can never collide in any
// shared map even though frames are already routed per job.

const (
	jobShift = 48
	peShift  = 40
	incShift = 32
	jobMask  = 0x7fff
)

func packID(pe int, seq int64) int64 { return int64(pe+1)<<peShift | seq }

// packIncID mints an ID under a specific incarnation.
func packIncID(pe int, inc int32, seq int64) int64 {
	return packID(pe, int64(inc)<<incShift|seq)
}

// packJobID mints an ID under a specific job namespace and incarnation.
func packJobID(job int32, pe int, inc int32, seq int64) int64 {
	return (int64(job)&jobMask)<<jobShift | packIncID(pe, inc, seq)
}

// peOf recovers the owning PE from a packed ID; ID 0 (the driver
// environment) returns -1. The mask strips the job namespace bits.
func peOf(id int64) int { return int((id>>peShift)&0xff) - 1 }

// incOf recovers the minting incarnation from a packed ID.
func incOf(id int64) int32 { return int32(id>>incShift) & 0xff }

// jobOf recovers the job namespace bits from a packed ID.
func jobOf(id int64) int32 { return int32(id>>jobShift) & jobMask }
