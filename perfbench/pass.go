package main

import (
	"context"
	"expvar"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/trace"
)

// jobRec is one finished job as the benchmark saw it.
type jobRec struct {
	traced bool
	lat    time.Duration // submit to verified result
	failed bool

	// Bytes and Read calls the TCP workers took in while the job ran;
	// exact per job when the workload has one client.
	wireBytes, wireReads int64

	// From cluster.Result (Fleet.Submit jobs only).
	hasResult bool
	instrs    int64
	imbalance float64 // max over mean of the per-PE instruction counts
	stats     cluster.Stats

	// From cluster.Result.Trace (traced jobs only).
	hasTrace         bool
	head, span, tail time.Duration
	stealReqs        int64
	stealIns         int64
	rounds           int
	maxEvents        int // largest per-PE event count, for sizing rings
	drops            int64
}

// passOpts fixes how one pass submits its jobs.
type passOpts struct {
	dur        time.Duration
	seed       int64
	traceEvery int // trace every traceEvery-th job of a client; 0 traces none
	traceCap   int
	viaServer  bool
	sp         *spanLog // spans of traced jobs; nil records none
}

// passResult is everything one pass measured.
type passResult struct {
	wall      time.Duration
	jobs      []jobRec
	firstErr  error
	mallocs   uint64
	allocB    uint64
	heapPeak  uint64    // peak live heap of one segment
	segPeaks  []float64 // heapPeak of each merged segment
	expInstrs int64     // pods_instrs_total over the pass
}

// merge folds another segment's measurements into p.
func (p *passResult) merge(q *passResult) {
	p.wall += q.wall
	p.jobs = append(p.jobs, q.jobs...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.mallocs += q.mallocs
	p.allocB += q.allocB
	p.segPeaks = append(p.segPeaks, float64(q.heapPeak))
	p.expInstrs += q.expInstrs
}

// runPass runs the workload's clients closed-loop for o.dur. A client that
// is mid-job at the deadline finishes that job, and the pass's wall time
// runs until the last one has, so every attempted job is counted.
func runPass(r *rig, w *workload, kinds []*compiled, o passOpts) *passResult {
	ctx, cancel := context.WithTimeout(context.Background(), o.dur+60*time.Second)
	defer cancel()
	instrVar, _ := expvar.Get("pods_instrs_total").(*expvar.Int)
	readInstrs := func() int64 {
		if instrVar == nil {
			return 0
		}
		return instrVar.Value()
	}

	var (
		mu    sync.Mutex
		res   = &passResult{}
		jobID atomic.Int64
		wg    sync.WaitGroup
		ms0   runtime.MemStats
		ms1   runtime.MemStats
	)
	stopHeap := sampleHeap(&res.heapPeak)
	runtime.ReadMemStats(&ms0)
	instrs0 := readInstrs()
	start := time.Now()
	deadline := start.Add(o.dur)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			st := newStream(o.seed, client, len(kinds))
			var recs []jobRec
			var firstErr error
			for k := 0; time.Now().Before(deadline); k++ {
				i := st.next()
				kind := kinds[i]
				traced := o.traceEvery > 0 && k%o.traceEvery == o.traceEvery-1
				cfg := kind.spec.Cfg
				var sp *spanLog
				if traced {
					cfg.Trace, cfg.TraceCap, sp = true, o.traceCap, o.sp
				}
				b0, r0 := r.wire.bytes.Load(), r.wire.reads.Load()
				t0 := time.Now()
				out, err := r.runJob(ctx, kind, o.viaServer, cfg, sp, jobID.Add(1))
				rec := jobRec{traced: traced, lat: time.Since(t0),
					wireBytes: r.wire.bytes.Load() - b0, wireReads: r.wire.reads.Load() - r0}
				if err != nil {
					rec.failed = true
					if firstErr == nil {
						firstErr = err
					}
				}
				if out.res != nil {
					fromResult(&rec, out, sp)
				}
				recs = append(recs, rec)
			}
			mu.Lock()
			res.jobs = append(res.jobs, recs...)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.expInstrs = readInstrs() - instrs0
	runtime.ReadMemStats(&ms1)
	stopHeap()
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return res
}

// fromResult fills the per-job counts a cluster.Result carries and, for a
// traced job, splits its Submit call into head (submit to first SP
// dispatch), span (first dispatch to last SP completion) and tail (last
// completion to Submit's return) from the trace's wall stamps.
func fromResult(rec *jobRec, out outcome, sp *spanLog) {
	res := out.res
	rec.hasResult = true
	rec.stats = res.Stats
	var maxI int64
	for _, n := range res.PEInstrs {
		rec.instrs += n
		maxI = max(maxI, n)
	}
	if rec.instrs > 0 {
		rec.imbalance = float64(maxI) * float64(len(res.PEInstrs)) / float64(rec.instrs)
	}
	tr := res.Trace
	if tr == nil {
		return
	}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, pe := range tr.PEs {
		rec.maxEvents = max(rec.maxEvents, len(pe.Events))
		for _, e := range pe.Events {
			switch e.Kind {
			case trace.EvSPDispatch:
				first = min(first, e.Wall)
			case trace.EvSPComplete:
				last = max(last, e.Wall)
			case trace.EvStealReq:
				rec.stealReqs++
			case trace.EvStealIn:
				rec.stealIns++
			}
		}
	}
	rec.drops = tr.Drops()
	if tr.Timeline != nil {
		rec.drops += tr.Timeline.Drops
		rounds := make(map[int]bool)
		for _, s := range tr.Timeline.Samples {
			rounds[s.Round] = true
		}
		rec.rounds = len(rounds)
	}
	if first > last {
		return // no SP events survived: nothing to split
	}
	rec.hasTrace = true
	t0, t1 := out.submitT0.UnixNano(), out.submitT1.UnixNano()
	rec.head = time.Duration(first - t0)
	rec.span = time.Duration(last - first)
	rec.tail = time.Duration(t1 - last)
	sp.add(out.job, out.span, "driver.head", out.submitT0, time.Unix(0, first))
	sp.add(out.job, out.span, "interp.span", time.Unix(0, first), time.Unix(0, last))
	sp.add(out.job, out.span, "driver.tail", time.Unix(0, last), out.submitT1)
}

// sampleHeap records the peak of live heap objects every millisecond
// until the returned stop function is called; stop returns after the
// sampler has exited.
func sampleHeap(peak *uint64) (stop func()) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	exited := make(chan struct{})
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			*peak = max(*peak, s[0].Value.Uint64())
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
