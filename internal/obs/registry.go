package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Tracer hands out spans and owns where they land: the striped per-kind
// and per-node aggregates (registry) and the completed-operation ring.
// A nil *Tracer hands out nil spans, so disabled tracing is free.
type Tracer struct {
	reg  *Registry
	ring *ring

	// Head sampling: StartOp keeps one root operation in sampleEvery
	// (every one when <= 1).
	sampleEvery uint64
	sampleTick  atomic.Uint64
}

// StartOp opens a root span for one operation. Nil-safe. When head
// sampling is configured, all but every Nth call return nil — a no-op
// span whose whole subtree costs only nil checks.
func (tr *Tracer) StartOp(kind, node, image string) *Span {
	if tr == nil {
		return nil
	}
	if tr.sampleEvery > 1 && tr.sampleTick.Add(1)%tr.sampleEvery != 0 {
		return nil
	}
	return newSpan(tr, nil, kind, node, image)
}

// StartRemoteOp opens a root span for an operation that continues a
// trace begun in another process: the wire trace context's
// (traceID, parentSpanID) pair is recorded on the span so the remote
// caller can later fetch this tree and graft it under its own span.
// Remote continuations are never head-sampled — the caller already
// decided this operation is traced.
func (tr *Tracer) StartRemoteOp(kind, node, image string, traceID, parentID uint64) *Span {
	if tr == nil {
		return nil
	}
	s := newSpan(tr, nil, kind, node, image)
	s.rtrace, s.rparent = traceID, parentID
	return s
}

// Op opens a span under parent when the caller was reached as a
// sub-operation (a scrub inside a restart, a sync inside a boot heal),
// or a fresh root span when called directly. Works with a nil tracer,
// a nil parent, or both.
func (tr *Tracer) Op(parent *Span, kind, node, image string) *Span {
	if parent != nil {
		return parent.Child(kind, node, image)
	}
	return tr.StartOp(kind, node, image)
}

// Registry aggregates every finished span — roots and children alike —
// into per-op-kind rollups (count, errors, bytes, simulated seconds,
// wall-latency histogram) and per-node rollups. This is the "one
// registry" the telemetry snapshot renders.
//
// The rollups are striped: each finish folds into one of GOMAXPROCS
// (rounded up to a power of two) independent mutex shards selected by
// the span's ID, and Snapshot merges the shards into one coherent view.
// A span's whole contribution lands in a single shard under a single
// lock section, so a merged view can never show one span half-applied.
type Registry struct {
	shards []regShard
	mask   uint64
}

// regShard is one aggregation stripe. The trailing pad keeps adjacent
// shards' mutexes off one cache line; the maps are per-shard so finish
// paths on different stripes share no written memory at all.
type regShard struct {
	mu    sync.Mutex
	ops   map[string]*opAgg
	nodes map[string]*nodeAgg
	_     [40]byte
}

type opAgg struct {
	count  int64
	errors int64
	bytes  int64
	simSec float64
	lat    *metrics.Histogram // wall nanoseconds
}

type nodeAgg struct {
	count  int64
	errors int64
	bytes  int64
}

func newRegistry() *Registry {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n > 64 {
		n = 64
	}
	r := &Registry{shards: make([]regShard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].ops = make(map[string]*opAgg)
		r.shards[i].nodes = make(map[string]*nodeAgg)
	}
	return r
}

// record folds one finished span into its stripe. The stripe is picked
// by span ID, so concurrent finishes scatter across shards no matter
// which op kind or node they belong to.
func (r *Registry) record(spanID uint64, kind, node string, bytes int64, simSec float64, wall time.Duration, failed bool) {
	sh := &r.shards[spanID&r.mask]
	sh.mu.Lock()
	op := sh.ops[kind]
	if op == nil {
		op = &opAgg{lat: metrics.MustHistogram(metrics.LatencyBuckets()...)}
		sh.ops[kind] = op
	}
	op.count++
	op.bytes += bytes
	op.simSec += simSec
	if failed {
		op.errors++
	}
	lat := op.lat
	if node != "" {
		na := sh.nodes[node]
		if na == nil {
			na = &nodeAgg{}
			sh.nodes[node] = na
		}
		na.count++
		na.bytes += bytes
		if failed {
			na.errors++
		}
	}
	sh.mu.Unlock()
	// The histogram has its own lock; observe outside the shard lock.
	lat.Observe(wall.Nanoseconds())
}

// mergedOp is one op kind's shard-merged rollup, with the latency
// histograms of every stripe folded into one.
type mergedOp struct {
	count  int64
	errors int64
	bytes  int64
	simSec float64
	lat    *metrics.Histogram
}

// merge folds all stripes into coherent per-op and per-node maps. Each
// shard is copied under its own lock; a span's contribution is entirely
// inside one shard, so no span is ever seen half-applied.
func (r *Registry) merge() (map[string]*mergedOp, map[string]nodeAgg) {
	ops := make(map[string]*mergedOp)
	nodes := make(map[string]nodeAgg)
	type latPair struct {
		dst *metrics.Histogram
		src *metrics.Histogram
	}
	var lats []latPair
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for kind, agg := range sh.ops {
			m := ops[kind]
			if m == nil {
				m = &mergedOp{lat: metrics.MustHistogram(metrics.LatencyBuckets()...)}
				ops[kind] = m
			}
			m.count += agg.count
			m.errors += agg.errors
			m.bytes += agg.bytes
			m.simSec += agg.simSec
			lats = append(lats, latPair{m.lat, agg.lat})
		}
		for node, agg := range sh.nodes {
			na := nodes[node]
			na.count += agg.count
			na.errors += agg.errors
			na.bytes += agg.bytes
			nodes[node] = na
		}
		sh.mu.Unlock()
	}
	// Histograms carry their own locks; merging outside the shard locks
	// keeps finish paths unblocked during snapshot assembly.
	for _, p := range lats {
		_ = p.dst.Merge(p.src)
	}
	return ops, nodes
}
