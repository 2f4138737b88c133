package main

// metricDef names one reported metric. For a per-layer metric, Moves says
// which end-to-end metric on which workload a change to that layer should
// move, and where the prediction is no change; later changes cite these
// names when they claim a gain.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics a user of the job service sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "job_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "instrs_per_s_per_pe", Unit: "instr/s", Better: "higher"},
	{Name: "allocs_per_instr", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_instr", Unit: "B", Better: "lower"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

const (
	movesCompile = "setup_s on every workload; no change predicted in job_p50_ms on any workload"
	movesCodec   = "job_p50_ms on serve-mix and mirror-tcp; no change predicted on matmul-remote and triangular-steal, whose chan fleet passes *isa.Program"
	movesShard   = "instrs_per_s_per_pe and job_p50_ms on matmul-remote; no change predicted on triangular-steal, which reads no arrays"
	movesInterp  = "instrs_per_s_per_pe on triangular-steal, then matmul-remote; no change predicted in setup_s"
	movesSched   = "job_p50_ms on triangular-steal; no change predicted on matmul-remote, where Steal is off"
	movesWire    = "job_p50_ms and jobs_per_s on mirror-tcp; no change predicted on the chan workloads matmul-remote and triangular-steal"
	movesDriver  = "job_p50_ms on serve-mix most, then matmul-remote; no change predicted in setup_s"
	movesTrace   = "the cost of the traced pass only; no change predicted in any end-to-end metric, which is measured untraced"
)

// perLayer are the traced pass's metrics, named by module.
var perLayer = []metricDef{
	{"idlang.compile_ms", "ms", "lower", movesCompile},
	{"translate.translate_ms", "ms", "lower", movesCompile},
	{"partition.partition_ms", "ms", "lower", movesCompile},

	{"isa.marshal_us", "us", "lower", movesCodec},
	{"isa.unmarshal_us", "us", "lower", movesCodec},
	{"isa.pods_bytes", "B", "lower", movesCodec},

	{"istructure.read_local_ns", "ns", "lower", movesShard},
	{"istructure.cache_lookup_ns", "ns", "lower", movesShard},
	{"istructure.write_ns", "ns", "lower", movesShard},
	{"istructure.offset_ns", "ns", "lower", movesShard},
	{"istructure.allocs_per_read", "count", "lower", movesShard},
	{"istructure.cache_hits_per_job", "count", "higher", movesShard},
	{"istructure.cache_misses_per_job", "count", "lower", movesShard},
	{"istructure.hit_ratio", "ratio", "higher", movesShard},
	{"istructure.deferred_reads_per_job", "count", "lower", movesShard},

	{"interp.instrs_per_job", "count", "lower", movesInterp},
	{"interp.span_ms", "ms", "lower", movesInterp},
	{"interp.pe_imbalance", "ratio", "lower", movesInterp},

	{"sched.steals_per_job", "count", "higher", movesSched},
	{"sched.forwards_per_job", "count", "lower", movesSched},
	{"sched.steal_reqs_per_job", "count", "lower", movesSched},
	{"sched.steal_success", "ratio", "higher", movesSched},

	{"cluster.msgs_per_job", "count", "lower", movesWire},
	{"tcp.bytes_per_job", "B", "lower", movesWire},
	{"tcp.reads_per_job", "count", "lower", movesWire},

	{"driver.head_ms", "ms", "lower", movesDriver},
	{"driver.tail_ms", "ms", "lower", movesDriver},
	{"driver.probe_rounds_per_job", "count", "lower", movesDriver},

	{"trace.record_ns", "ns", "lower", movesTrace},
	{"trace.overhead_frac", "ratio", "lower", movesTrace},
	{"trace.drops", "count", "lower", movesTrace},
}
