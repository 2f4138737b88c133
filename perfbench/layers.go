package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// The timings in this file call single layers through their public
// functions, outside any fleet, so they see one layer's cost alone. Each
// repeats its measurement and keeps the median.

const layerReps = 9

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// compileTimes compiles the workload's kernels layerReps times and returns
// the median total per stage.
func compileTimes(w *workload) (stageTimes, error) {
	var id, tr, pa []float64
	for rep := 0; rep < layerReps; rep++ {
		var sum stageTimes
		for _, spec := range w.Jobs {
			_, st, err := compileJob(spec, nil)
			if err != nil {
				return stageTimes{}, err
			}
			sum.add(st)
		}
		id = append(id, float64(sum.idlang))
		tr = append(tr, float64(sum.translate))
		pa = append(pa, float64(sum.partition))
	}
	return stageTimes{time.Duration(median(id)), time.Duration(median(tr)), time.Duration(median(pa))}, nil
}

// podsCodec times isa.MarshalPods and isa.UnmarshalPods over the
// workload's programs: median microseconds per pass over all of them, and
// their total encoded size.
func podsCodec(kinds []*compiled) (marshalUs, unmarshalUs float64, size int, err error) {
	var ms, us []float64
	for rep := 0; rep < layerReps; rep++ {
		var m, u time.Duration
		size = 0
		for _, c := range kinds {
			t0 := time.Now()
			b, err := isa.MarshalPods(c.prog)
			t1 := time.Now()
			if err != nil {
				return 0, 0, 0, err
			}
			if _, err := isa.UnmarshalPods(b); err != nil {
				return 0, 0, 0, err
			}
			m += t1.Sub(t0)
			u += time.Since(t1)
			size += len(b)
		}
		ms = append(ms, float64(m)/1e3)
		us = append(us, float64(u)/1e3)
	}
	return median(ms), median(us), size, nil
}

// recordNs times trace.Recorder.Record on a ring that wraps, the steady
// state of a long traced job.
func recordNs() float64 {
	const calls = 1 << 18
	var ns []float64
	for rep := 0; rep < layerReps; rep++ {
		r := trace.New(1<<12, 1)
		t0 := time.Now()
		for i := int64(0); i < calls; i++ {
			r.Record(trace.EvSPDispatch, i, i, 0)
		}
		ns = append(ns, float64(time.Since(t0))/calls)
	}
	return median(ns)
}

// shardTimes is the istructure replay's per-call costs.
type shardTimes struct {
	readLocalNs, cacheLookupNs, writeNs, offsetNs, allocsPerRead float64
}

// Replay geometry: matmul-remote's arrays. A and B are n×n, distributed
// over the PEs in pages of page elements; PE p computes its rows of C and
// reads A row by row and B column by column.
const (
	replayN    = 32
	replayPage = 8
)

type access struct {
	id  int64
	off int
}

// replayShards writes A and B through Shard.Write, then replays one
// matmul's reads on every PE: Shard.ReadLocal first, and for a remote
// element Shard.CacheLookup, fetching the page from its owner
// (ExtractPage, InstallPage) on a miss, as a worker does. Allocations are
// counted over the cold read replay, page installs included.
func replayShards() (shardTimes, error) {
	var rl, cl, wr, of, al []float64
	for rep := 0; rep < layerReps; rep++ {
		t, err := replayOnce()
		if err != nil {
			return shardTimes{}, err
		}
		rl = append(rl, t.readLocalNs)
		cl = append(cl, t.cacheLookupNs)
		wr = append(wr, t.writeNs)
		of = append(of, t.offsetNs)
		al = append(al, t.allocsPerRead)
	}
	return shardTimes{median(rl), median(cl), median(wr), median(of), median(al)}, nil
}

func replayOnce() (shardTimes, error) {
	var out shardTimes
	hA, err := istructure.NewHeader(1, "A", []int{replayN, replayN}, replayPage, pes, 0, true)
	if err != nil {
		return out, err
	}
	hB, err := istructure.NewHeader(2, "B", []int{replayN, replayN}, replayPage, pes, 0, true)
	if err != nil {
		return out, err
	}
	hdr := map[int64]*istructure.Header{1: hA, 2: hB}
	shards := make([]*istructure.Shard, pes)
	for p := range shards {
		shards[p] = istructure.NewShard(p)
		for _, h := range []*istructure.Header{hA, hB} {
			if err := shards[p].Install(h); err != nil {
				return out, err
			}
		}
	}

	// Header.Offset over every index pair of both arrays, with one reused
	// index slice, collecting the write order.
	idx := make([]int64, 2)
	var writes []access
	t0 := time.Now()
	for _, h := range []*istructure.Header{hA, hB} {
		for i := int64(1); i <= replayN; i++ {
			for j := int64(1); j <= replayN; j++ {
				idx[0], idx[1] = i, j
				off, err := h.Offset(idx)
				if err != nil {
					return out, err
				}
				writes = append(writes, access{h.ID, off})
			}
		}
	}
	out.offsetNs = float64(time.Since(t0)) / float64(len(writes))

	t0 = time.Now()
	for _, a := range writes {
		h := hdr[a.id]
		if _, _, err := shards[h.OwnerOf(a.off)].Write(a.id, a.off, isa.Float(float64(a.off))); err != nil {
			return out, err
		}
	}
	out.writeNs = float64(time.Since(t0)) / float64(len(writes))

	// Each PE's read sequence for its rows of C = A·B.
	var reads [pes][]access
	for p := 0; p < pes; p++ {
		lo, hi := p*replayN/pes+1, (p+1)*replayN/pes
		for i := lo; i <= hi; i++ {
			for j := 1; j <= replayN; j++ {
				for k := 1; k <= replayN; k++ {
					reads[p] = append(reads[p],
						access{1, (i-1)*replayN + k - 1},
						access{2, (k-1)*replayN + j - 1})
				}
			}
		}
	}

	// Cold replay: allocations per read, misses fetching their pages.
	var ms0, ms1 runtime.MemStats
	nReads := 0
	runtime.ReadMemStats(&ms0)
	for p, seq := range reads {
		s := shards[p]
		for _, a := range seq {
			if err := readOne(s, shards, hdr[a.id], a); err != nil {
				return out, err
			}
		}
		nReads += len(seq)
	}
	runtime.ReadMemStats(&ms1)
	out.allocsPerRead = float64(ms1.Mallocs-ms0.Mallocs) / float64(nReads)

	// Warm replay: every page is resident, so ReadLocal and CacheLookup
	// are timed on their hit paths, each in its own loop.
	var local, remote int
	var dl, dr time.Duration
	w := istructure.Waiter{}
	for p, seq := range reads {
		s := shards[p]
		var own, far []access
		for _, a := range seq {
			if s.Owns(a.id, a.off) {
				own = append(own, a)
			} else {
				far = append(far, a)
			}
		}
		t0 := time.Now()
		for _, a := range own {
			if _, rr, err := s.ReadLocal(a.id, a.off, w); err != nil || rr != istructure.ReadHit {
				return out, fmt.Errorf("replay: local read of %d/%d: %v %v", a.id, a.off, rr, err)
			}
		}
		dl += time.Since(t0)
		t0 = time.Now()
		for _, a := range far {
			if _, _, hit := s.CacheLookup(a.id, hdr[a.id], a.off); !hit {
				return out, fmt.Errorf("replay: warm cache missed %d/%d", a.id, a.off)
			}
		}
		dr += time.Since(t0)
		local += len(own)
		remote += len(far)
	}
	out.readLocalNs = float64(dl) / float64(local)
	out.cacheLookupNs = float64(dr) / float64(remote)
	return out, nil
}

// readOne is one array read as a worker performs it.
func readOne(s *istructure.Shard, shards []*istructure.Shard, h *istructure.Header, a access) error {
	_, rr, err := s.ReadLocal(a.id, a.off, istructure.Waiter{})
	if err != nil || rr != istructure.ReadRemote {
		return err
	}
	if _, _, hit := s.CacheLookup(a.id, h, a.off); hit {
		return nil
	}
	page, pg, _, err := shards[h.OwnerOf(a.off)].ExtractPage(a.id, a.off)
	if err != nil {
		return err
	}
	s.InstallPage(a.id, page, pg)
	return nil
}
