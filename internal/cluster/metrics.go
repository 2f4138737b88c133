package cluster

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Process-wide live metrics, published by every worker in this process at
// each probe ack (delta-encoded, so restarts of the counters across recovery
// epochs never subtract). Registered under expvar, which also exposes them
// on /debug/vars wherever an HTTP server is running; MetricsHandler serves
// the same counters as a plain-text /metrics endpoint, so the multi-
// container CI topology can assert a worker is making progress mid-run with
// one wget. In-process runs publish too — the counters are process-global
// by design (a podsd worker process hosts exactly one worker at a time, and
// a test binary's totals are still meaningful as totals). The per-counter
// totals are counterVars (counters.go); mAcks counts the probe acks.
var (
	mAcks = expvar.NewInt("pods_acks_total")

	// Job-service counters, maintained by Fleet.Submit: jobs running now,
	// jobs ever admitted, and jobs bounced by admission control.
	mJobsActive   = expvar.NewInt("pods_jobs_active")
	mJobsTotal    = expvar.NewInt("pods_jobs_total")
	mJobsRejected = expvar.NewInt("pods_jobs_rejected_total")
)

// publishMetrics folds this worker's counter growth since the previous
// probe into the process-wide expvar metrics (clamped deltas, so an epoch
// reset never subtracts from a monotone total).
func (w *worker) publishMetrics(cur *counters) {
	d := cur.delta(&w.pub)
	for c, v := range counterVars {
		if v != nil {
			v.Add(d[c])
		}
	}
	w.pub = *cur
	mAcks.Add(1)
}

// MetricsText writes every pods_* counter as one "name value" line,
// alphabetically — the plain-text /metrics format.
func MetricsText(w io.Writer) error {
	var err error
	expvar.Do(func(kv expvar.KeyValue) {
		if err != nil || !strings.HasPrefix(kv.Key, "pods_") {
			return
		}
		_, err = fmt.Fprintf(w, "%s %s\n", kv.Key, kv.Value.String())
	})
	return err
}

// MetricsHandler serves MetricsText over HTTP (the podsd -metrics
// endpoint's /metrics route).
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = MetricsText(rw)
	})
}
