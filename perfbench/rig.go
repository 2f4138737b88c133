package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// wireStats counts what the TCP workers read from their accepted
// connections. Every worker-to-worker and driver-to-worker frame arrives
// on a connection some worker accepted, so the counts cover all traffic
// into the PEs.
type wireStats struct {
	bytes, reads atomic.Int64
}

// countListener hands cluster.ServeWorker connections that count bytes
// and Read calls.
type countListener struct {
	net.Listener
	st *wireStats
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, st: l.st}, nil
}

type countConn struct {
	net.Conn
	st *wireStats
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

// rig is a live fleet with everything in front of it: TCP worker hosts
// for a TCP workload and the job server for a server workload.
type rig struct {
	fleet  *cluster.Fleet
	server string // job-server address, "" when jobs go to Fleet.Submit
	wire   wireStats

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// openRig brings up the fleet a workload runs on. It is the part of
// setup_s that is not compilation.
func openRig(w *workload, sp *spanLog) (*rig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{cancel: cancel}
	t0 := time.Now()
	cfg := cluster.Config{NumPEs: pes, MaxJobs: w.Clients + 1}
	if w.TCP {
		for i := 0; i < pes; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, fmt.Errorf("worker listen: %w", err)
			}
			cfg.Workers = append(cfg.Workers, ln.Addr().String())
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				// A worker that fails fails the jobs sent to it, and
				// those are counted; its own error adds nothing.
				_ = cluster.ServeWorker(ctx, countListener{Listener: ln, st: &r.wire})
			}()
		}
	}
	f, err := cluster.OpenFleet(ctx, cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.fleet = f
	if w.Server {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("job server listen: %w", err)
		}
		r.server = ln.Addr().String()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = f.ServeJobs(ctx, ln) // as for ServeWorker: failures show as failed jobs
		}()
	}
	sp.add(0, 0, "cluster.OpenFleet", t0, time.Now())
	return r, nil
}

// close stops the job server, the fleet and the worker hosts, and waits
// for each to return.
func (r *rig) close() {
	if r.fleet != nil {
		r.fleet.Close()
	}
	r.cancel()
	r.wg.Wait()
}

// outcome is what one job produced, beyond its latency.
type outcome struct {
	res      *cluster.Result // nil for jobs sent through the job server
	submitT0 time.Time
	submitT1 time.Time
	job      int64 // span job ID
	span     int64 // the submit call's span, parent of derived phase spans
}

// runJob submits one job of kind c and verifies its arrays. viaServer
// sends it through cluster.SubmitJob, otherwise it goes to Fleet.Submit.
func (r *rig) runJob(ctx context.Context, c *compiled, viaServer bool, cfg cluster.Config, sp *spanLog, job int64) (outcome, error) {
	o := outcome{job: job, submitT0: time.Now()}
	if viaServer {
		reply, err := cluster.SubmitJob(ctx, r.server, c.prog, cfg, c.args...)
		o.submitT1 = time.Now()
		o.span = sp.add(job, 0, "cluster.SubmitJob", o.submitT0, o.submitT1)
		if err != nil {
			return o, err
		}
		err = c.verify(func(name string) ([]float64, []bool, []int, error) {
			a, err := reply.Array(name)
			if err != nil {
				return nil, nil, nil, err
			}
			return a.Vals, a.Mask, a.Dims, nil
		})
		sp.add(job, o.span, "verify", o.submitT1, time.Now())
		return o, err
	}
	res, err := r.fleet.Submit(ctx, c.prog, cfg, c.args...)
	o.submitT1 = time.Now()
	o.span = sp.add(job, 0, "Fleet.Submit", o.submitT0, o.submitT1)
	if err != nil {
		return o, err
	}
	o.res = res
	err = c.verify(res.ReadArray)
	sp.add(job, o.span, "verify", o.submitT1, time.Now())
	return o, err
}
