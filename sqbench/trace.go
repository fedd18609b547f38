package main

import (
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one op share op.
type span struct {
	op   int
	name string
	dur  time.Duration
}

// tracer keeps spans in memory for the per-layer metrics. The program
// under test gains no tracing: every span is taken here, around a call,
// so a later change is credited to the layer whose calls got faster.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

func (t *tracer) add(op int, name string, d time.Duration) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, name, d})
	t.mu.Unlock()
}

// time runs f and records it as a span of op.
func (t *tracer) time(op int, name string, f func()) time.Duration {
	s := time.Now()
	f()
	d := time.Since(s)
	t.add(op, name, d)
	return d
}

// durs lists the durations of every span called name.
func (t *tracer) durs(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// perOp sums the spans called name by op.
func (t *tracer) perOp(name string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.op] += s.dur
		}
	}
	return out
}
