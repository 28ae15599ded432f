package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent 0 is a root; Node -1 is the host
// goroutine driving the cluster. Spans of one cell share Cluster.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Cluster int    `json:"cluster"`
	Node    int    `json:"node"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory (about 10 MB); later spans are
// counted as dropped.
const maxSpans = 1 << 17

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced cells run.
type tracer struct {
	origin  time.Time
	cluster int // id of the cell being traced; set between cells
	next    atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span; close it with close.
func (t *tracer) open(name string, parent int64, node int) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Cluster: t.cluster, Node: node,
		Start: int64(time.Since(t.origin))}
}

func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.origin))
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}
