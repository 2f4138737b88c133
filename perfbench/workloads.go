package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

// pes is the PE count of every workload: the benchmark host has two cores,
// and the whole load (workers, driver, clients) runs in this one process.
const pes = 2

// jobSpec is one kind of job a workload submits: a kernel at a problem size
// with its per-job knobs.
type jobSpec struct {
	Kernel string
	N      int
	Cfg    cluster.Config
}

// workload is one benchmark traffic shape. Every workload is closed-loop:
// each of its clients submits its next job only after the previous result
// has arrived and been verified.
type workload struct {
	Name    string
	Why     string
	Jobs    []jobSpec
	Clients int
	// TCP puts the PEs on cluster.ServeWorker hosts behind byte-counting
	// loopback listeners instead of the in-process channel transport.
	TCP bool
	// Server sends the timed jobs through cluster.SubmitJob to
	// Fleet.ServeJobs, so every job ships its .pods program over the wire.
	Server bool
}

// workloads lists the benchmark's traffic shapes. Each one makes a
// different layer dominate the job time; the reason is its Why line, which
// BENCHMARK.json repeats.
var workloads = []workload{
	{
		Name:    "matmul-remote",
		Why:     "matmul n=48, page 8, chan, 1 client: remote reads and page cache dominate; istructure.* should move instrs_per_s_per_pe and job_p50_ms here, sched.* predicts no change",
		Jobs:    []jobSpec{{"matmul", 48, cluster.Config{PageElems: 8}}},
		Clients: 1,
	},
	{
		Name:    "triangular-steal",
		Why:     "triangular n=176, Steal, chan, 1 client: no array reads; interp.* and sched.* should move instrs_per_s_per_pe and job_p50_ms here, istructure.* and tcp.* predict no change",
		Jobs:    []jobSpec{{"triangular", 176, cluster.Config{Steal: true}}},
		Clients: 1,
	},
	{
		Name:    "mirror-tcp",
		Why:     "mirror n=128, page 8, two ServeWorker PEs on loopback TCP, 1 client: codec, sockets and deferred reads dominate; tcp.*, isa.* and cluster.msgs_per_job should move job_p50_ms and jobs_per_s here",
		Jobs:    []jobSpec{{"mirror", 128, cluster.Config{PageElems: 8}}},
		Clients: 1,
		TCP:     true,
	},
	{
		Name: "serve-mix",
		Why:  "SubmitJob to ServeJobs, 2 clients, n=12 matmul/heat/relax/triangular (static/steal/adapt/cap 2): short jobs, start and termination dominate; driver.* and isa.* should move job_p50_ms most here",
		Jobs: []jobSpec{
			{"matmul", 12, cluster.Config{PageElems: 8}},
			{"heat", 12, cluster.Config{PageElems: 8, Steal: true}},
			{"relax", 12, cluster.Config{PageElems: 8, Adapt: true}},
			{"triangular", 12, cluster.Config{PageElems: 8, Steal: true, CachePages: 2}},
		},
		Clients: 2,
		Server:  true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is one client's job order: a seeded shuffle of the workload's job
// kinds, reshuffled every len(Jobs) jobs, so every kind runs equally often
// whatever the seed and only the order depends on it.
type stream struct {
	rng  *rand.Rand
	perm []int
	at   int
}

func newStream(seed int64, client, kinds int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), at: kinds, perm: make([]int, kinds)}
}

func (s *stream) next() int {
	if s.at == len(s.perm) {
		for i := range s.perm {
			s.perm[i] = i
		}
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.at = 0
	}
	s.at++
	return s.perm[s.at-1]
}

// compiled is one job kind ready to submit, with the simulator's arrays it
// must reproduce bit for bit.
type compiled struct {
	spec   jobSpec
	prog   *isa.Program
	args   []isa.Value
	arrays []string
	ref    map[string]refArray
}

type refArray struct {
	dims []int
	vals []float64
	mask []bool
}

// stageTimes is one compile's time in each compiler stage.
type stageTimes struct {
	idlang, translate, partition time.Duration
}

func (s *stageTimes) add(o stageTimes) {
	s.idlang += o.idlang
	s.translate += o.translate
	s.partition += o.partition
}

// compileJob runs the three compiler stages on a job's kernel, timing each
// call and recording it as a span.
func compileJob(spec jobSpec, sp *spanLog) (*compiled, stageTimes, error) {
	var st stageTimes
	k, ok := kernels.ByName(spec.Kernel)
	if !ok {
		return nil, st, fmt.Errorf("unknown kernel %q", spec.Kernel)
	}
	t0 := time.Now()
	gp, err := idlang.Compile(k.File(), k.Source)
	t1 := time.Now()
	sp.add(0, 0, "idlang.Compile", t0, t1)
	if err != nil {
		return nil, st, err
	}
	prog, err := translate.Translate(gp)
	t2 := time.Now()
	sp.add(0, 0, "translate.Translate", t1, t2)
	if err != nil {
		return nil, st, err
	}
	_, err = partition.Partition(prog, partition.Options{})
	t3 := time.Now()
	sp.add(0, 0, "partition.Partition", t2, t3)
	if err != nil {
		return nil, st, err
	}
	st = stageTimes{idlang: t1.Sub(t0), translate: t2.Sub(t1), partition: t3.Sub(t2)}
	return &compiled{spec: spec, prog: prog, args: k.Args(spec.N), arrays: k.Arrays}, st, nil
}

// simulate computes the job's reference arrays on the simulator.
func (c *compiled) simulate() error {
	m, err := sim.New(c.prog, sim.Config{NumPEs: pes, PageElems: c.spec.Cfg.PageElems})
	if err != nil {
		return err
	}
	if _, err := m.Run(c.args...); err != nil {
		return fmt.Errorf("simulating %s: %w", c.spec.Kernel, err)
	}
	c.ref = make(map[string]refArray, len(c.arrays))
	for _, name := range c.arrays {
		vals, mask, dims, err := m.ReadArray(name)
		if err != nil {
			return err
		}
		c.ref[name] = refArray{dims: dims, vals: vals, mask: mask}
	}
	return nil
}

// corrupt flips the low bit of one reference element, so that every job
// of this kind must fail verification. The smoke mode uses it to show that
// wrong results are counted.
func (c *compiled) corrupt() {
	r := c.ref[c.arrays[0]]
	for i, set := range r.mask {
		if set {
			r.vals[i] = math.Float64frombits(math.Float64bits(r.vals[i]) ^ 1)
			return
		}
	}
}

// verify compares every reference array with what get returns, bit for
// bit: dimensions, presence mask, and float64 bits of each present value.
func (c *compiled) verify(get func(name string) (vals []float64, mask []bool, dims []int, err error)) error {
	for _, name := range c.arrays {
		want := c.ref[name]
		vals, mask, dims, err := get(name)
		if err != nil {
			return err
		}
		if len(dims) != len(want.dims) || len(vals) != len(want.vals) || len(mask) != len(want.mask) {
			return fmt.Errorf("%s: array %s has shape %v, want %v", c.spec.Kernel, name, dims, want.dims)
		}
		for i := range dims {
			if dims[i] != want.dims[i] {
				return fmt.Errorf("%s: array %s has shape %v, want %v", c.spec.Kernel, name, dims, want.dims)
			}
		}
		for i := range want.vals {
			if mask[i] != want.mask[i] || (mask[i] && math.Float64bits(vals[i]) != math.Float64bits(want.vals[i])) {
				return fmt.Errorf("%s: array %s differs from the simulator at offset %d", c.spec.Kernel, name, i)
			}
		}
	}
	return nil
}
