package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"

	"repro/internal/isa"
)

// The job-server protocol lets a remote client run a program on a live
// Fleet without being the process that opened it. Framing is the same
// 4-byte length prefix + protocol.go encoding the worker transport uses;
// each client connection carries exactly one job:
//
//	client → server  KSubmit  serialized .pods program, main args, knobs,
//	                          budgets (init block), Seq correlation tag
//	server → client  KDump*   one frame per array chunk (Name, Dims, Off,
//	                          Vals, Set), in allocation order
//	server → client  KResult  the program's result value (Slot=1 when the
//	                          program returns one), echoing Seq
//	                 KFail    instead of the above on any error (Name is
//	                          the error text)
//
// The server clamps the client's budgets to its own caps (a client may
// tighten its budget but never exceed the server's), so one server-side
// policy bounds every tenant. Admission control, job IDs, and per-job
// teardown are the Fleet's own (Submit); the protocol layer adds nothing
// stateful.

// serveChunk bounds one KDump frame's element count on the client wire.
const serveChunk = 1 << 16

// clampBudget resolves a client-requested budget against a server cap:
// zero means unlimited on both sides, and the effective budget is the
// tighter of the two.
func clampBudget(client, server int64) int64 {
	if server > 0 && (client <= 0 || client > server) {
		return server
	}
	if client < 0 {
		return 0
	}
	return client
}

// ServeJobs accepts job submissions on ln and runs each on the fleet
// until ctx ends or the listener fails. Each connection is one job; any
// number run concurrently, bounded by the fleet's admission control.
func (f *Fleet) ServeJobs(ctx context.Context, ln net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go f.serveJobConn(ctx, conn)
	}
}

// serveJobConn handles one submission: decode, clamp budgets, run, and
// stream the results back. All errors are reported to the client as
// KFail frames; a broken client connection just abandons the stream (the
// job itself still ran under the fleet's normal teardown).
func (f *Fleet) serveJobConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	m, err := readFrame(conn)
	if err != nil {
		return
	}
	seq := m.Seq
	fail := func(err error) {
		_ = writeFrame(conn, &Msg{Kind: KFail, Seq: seq, Name: err.Error()})
	}
	if m.Kind != KSubmit {
		fail(fmt.Errorf("cluster: job server expects a submit frame, got %v", m.Kind))
		return
	}
	prog, err := isa.UnmarshalPods(m.Prog)
	if err != nil {
		fail(fmt.Errorf("cluster: decoding submitted program: %w", err))
		return
	}

	// The job's knobs are the client's; transport, fault injection, and
	// recovery policy are the fleet's. Budgets are clamped to the server
	// caps so a tenant cannot out-ask the operator.
	cfg := Config{
		PageElems:     int(m.PageElems),
		DistThreshold: int(m.DistThreshold),
		CachePages:    int(m.CachePages),
		Steal:         m.Steal,
		Adapt:         m.Adapt,
		Trace:         m.Trace,
		TraceCap:      int(m.TraceCap),
		TraceSample:   int(m.TraceSample),
		Recover:       f.cfg.Recover,
		MaxInstrs:     clampBudget(m.MaxInstrs, f.cfg.MaxInstrs),
		MaxElems:      clampBudget(m.MaxElems, f.cfg.MaxElems),
	}
	res, err := f.Submit(ctx, prog, cfg, m.Args...)
	if err != nil {
		fail(err)
		return
	}

	for _, name := range res.ArrayNames() {
		vals, mask, dims, err := res.ReadArray(name)
		if err != nil {
			fail(err)
			return
		}
		d32 := make([]int32, len(dims))
		for i, d := range dims {
			d32[i] = int32(d)
		}
		// The first chunk always goes out — it registers the array and its
		// dims even when nothing was written; later all-absent chunks are
		// skipped.
		for base := 0; base == 0 || base < len(vals); base += serveChunk {
			end := min(base+serveChunk, len(vals))
			any := base == 0
			for i := base; i < end && !any; i++ {
				any = mask[i]
			}
			if !any {
				continue
			}
			wv := make([]isa.Value, end-base)
			for i := base; i < end; i++ {
				if mask[i] {
					wv[i-base] = isa.Float(vals[i])
				}
			}
			if err := writeFrame(conn, &Msg{Kind: KDump, Seq: seq, Name: name,
				Dims: d32, Off: int32(base), Vals: wv,
				Set: append([]bool(nil), mask[base:end]...)}); err != nil {
				return
			}
			if len(vals) == 0 {
				break
			}
		}
	}
	rm := &Msg{Kind: KResult, Seq: seq}
	if res.Value != nil {
		rm.Val = *res.Value
		rm.Slot = 1 // value present (void programs leave Slot 0)
	}
	_ = writeFrame(conn, rm)
}

// JobArray is one array streamed back by a job server, flattened in
// row-major order with a written-mask (exactly Result.ReadArray's shape).
type JobArray struct {
	Name string
	Dims []int
	Vals []float64
	Mask []bool
}

// JobReply is a job server's answer to SubmitJob.
type JobReply struct {
	// Value is the program's returned value (nil for void main).
	Value *isa.Value

	// Arrays holds every array the program allocated, in allocation
	// order.
	Arrays []JobArray
}

// Array returns a streamed array by name.
func (r *JobReply) Array(name string) (*JobArray, error) {
	for i := range r.Arrays {
		if r.Arrays[i].Name == name {
			return &r.Arrays[i], nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown array %q", name)
}

// SubmitJob sends one program to a job server (Fleet.ServeJobs, typically
// `podsd -serve`) and waits for the streamed reply. cfg supplies the
// job's scheduling knobs and budget requests; transport fields are
// ignored — the server's fleet decides those.
func SubmitJob(ctx context.Context, addr string, prog *isa.Program, cfg Config, args ...isa.Value) (*JobReply, error) {
	wire, err := isa.MarshalPods(prog)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal program: %w", err)
	}
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing job server %s: %w", addr, err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	if err := writeFrame(conn, &Msg{
		Kind:          KSubmit,
		Seq:           1,
		Args:          args,
		PageElems:     int32(cfg.PageElems),
		DistThreshold: int32(cfg.DistThreshold),
		CachePages:    int32(cfg.CachePages),
		Steal:         cfg.Steal,
		Adapt:         cfg.Adapt,
		Trace:         cfg.Trace,
		TraceCap:      int32(cfg.TraceCap),
		TraceSample:   int32(cfg.TraceSample),
		MaxInstrs:     cfg.MaxInstrs,
		MaxElems:      cfg.MaxElems,
		Prog:          wire,
	}); err != nil {
		return nil, fmt.Errorf("cluster: submitting job: %w", err)
	}

	reply := &JobReply{}
	byName := make(map[string]int) // index into reply.Arrays (stable under append)
	for {
		m, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("cluster: job server reply: %w", err)
		}
		switch m.Kind {
		case KDump:
			idx, seen := byName[m.Name]
			if !seen {
				dims := make([]int, len(m.Dims))
				elems := 1
				for i, d := range m.Dims {
					dims[i] = int(d)
					elems *= int(d)
				}
				if elems < 0 {
					elems = 0
				}
				idx = len(reply.Arrays)
				byName[m.Name] = idx
				reply.Arrays = append(reply.Arrays, JobArray{
					Name: m.Name, Dims: dims,
					Vals: make([]float64, elems),
					Mask: make([]bool, elems),
				})
			}
			a := &reply.Arrays[idx]
			off := int(m.Off)
			for i, v := range m.Vals {
				if off+i >= len(a.Vals) {
					break
				}
				if i < len(m.Set) && m.Set[i] {
					a.Vals[off+i] = v.F
					a.Mask[off+i] = true
				}
			}
		case KResult:
			if m.Slot == 1 {
				v := m.Val
				reply.Value = &v
			}
			return reply, nil
		case KFail:
			return nil, errors.New(m.Name)
		default:
			return nil, fmt.Errorf("cluster: unexpected %v frame from job server", m.Kind)
		}
	}
}
