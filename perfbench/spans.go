package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system, or a phase
// of a job derived from the job's trace stamps. Spans of one job share
// Job; Parent links a span to the call that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced pass stays free of span overhead.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its ID (0 on a nil log).
func (l *spanLog) add(job, parent int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))})
	return id
}

// write stores the spans as JSON lines in path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
