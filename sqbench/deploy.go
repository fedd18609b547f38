package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ctlplane"
)

// The deployment every workload runs on: 32 compute nodes over a
// 1024-image corpus (boot working sets of ~200 KB). boot-warm and
// flash-crowd serve a 64-image catalog; register-churn and flash-crowd
// draw fresh images from the rest.
const (
	nodesN    = 32
	corpusN   = 1024
	catalogN  = 64
	setupReps = 5 // setup_s is the median of this many set-ups in one run
	// minWindowOps is the fewest ops a one-second window needs to count
	// towards op_p50_quiet_ms (a closed loop's last window can be a sliver).
	minWindowOps = 10
)

// simEpoch anchors the simulated clock registrations and GC run on.
var simEpoch = time.Date(2014, 6, 12, 0, 0, 0, 0, time.UTC)

func simHour(i int) time.Time { return simEpoch.Add(time.Duration(i) * time.Hour) }

// images is the deployment's corpus rebuilt from the spec
// ctlplane.NewLocal uses, because the replays and the correctness gate
// need image recipes (boot trace, cache content) that no public surface
// returns. newDeployment cross-checks it against the live deployment,
// and every registration checks the cache size, so a drift in either
// fails the run instead of skewing it.
var images = func() map[string]*corpus.Image {
	repo, err := corpus.New(corpus.DefaultSpec().Scale(float64(corpusN)/607, 0.25))
	if err != nil {
		panic(err)
	}
	out := make(map[string]*corpus.Image, len(repo.Images))
	for _, im := range repo.Images[:min(corpusN, len(repo.Images))] {
		out[im.ID] = im
	}
	return out
}()

type deployment struct {
	local *ctlplane.Local
	info  ctlplane.Info
}

func newDeployment(peers bool) (*deployment, error) {
	// flash-crowd runs the deployment as `squirreld -peers -traced` does.
	l, err := ctlplane.NewLocal(ctlplane.Options{Images: corpusN, Nodes: nodesN, Peers: peers, Traced: peers})
	if err != nil {
		return nil, err
	}
	info, err := l.Info()
	if err != nil {
		return nil, err
	}
	if len(info.Images) != len(images) {
		return nil, fmt.Errorf("deployment serves %d images, benchmark corpus has %d", len(info.Images), len(images))
	}
	for _, id := range info.Images {
		if images[id] == nil {
			return nil, fmt.Errorf("deployment image %s not in the benchmark corpus", id)
		}
	}
	return &deployment{local: l, info: info}, nil
}

// checkRegister applies the gate to one registration: it succeeded,
// every online node holds the snapshot, none lags, and the captured
// cache is the image's boot working set.
func checkRegister(id string, rep core.RegisterReport, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("register %s: %w", id, err)
	case rep.Nodes != nodesN || len(rep.Lagging) > 0:
		return fmt.Errorf("register %s: %d/%d nodes, lagging %v", id, rep.Nodes, nodesN, rep.Lagging)
	case rep.CacheBytes != images[id].CacheSize():
		return fmt.Errorf("register %s: cache %d bytes, image working set %d", id, rep.CacheBytes, images[id].CacheSize())
	}
	return nil
}

// setUp builds a workload's deployment n times and reports the median
// time; the last build is the one the workload runs on.
func setUp(res *result, n int, build func() error) error {
	var took []time.Duration
	for range n {
		t := time.Now()
		if err := build(); err != nil {
			return err
		}
		took = append(took, time.Since(t))
	}
	res.gated(metric{name: "setup_s", value: quantile(took, 0.5).Seconds(), unit: "s", kind: "measured", n: len(took)})
	return nil
}

// checkBoot applies the gate to one boot report: the VM read its whole
// boot trace, every byte came from exactly one source, and a boot
// expected warm touched neither the fabric nor a peer.
func checkBoot(rep core.BootReport, wantWarm bool) error {
	im := images[rep.ImageID]
	if im == nil {
		return fmt.Errorf("boot report for unknown image %q", rep.ImageID)
	}
	if rep.ReadBytes != im.CacheSize() {
		return fmt.Errorf("boot %s on %s read %d bytes, boot trace is %d", rep.ImageID, rep.NodeID, rep.ReadBytes, im.CacheSize())
	}
	if rep.CacheBytes+rep.PeerBytes+rep.NetworkBytes != rep.ReadBytes {
		return fmt.Errorf("boot %s on %s: cache %d + peer %d + network %d != read %d", rep.ImageID, rep.NodeID,
			rep.CacheBytes, rep.PeerBytes, rep.NetworkBytes, rep.ReadBytes)
	}
	if wantWarm && !rep.Warm {
		return fmt.Errorf("boot %s on %s was not warm", rep.ImageID, rep.NodeID)
	}
	return nil
}

// verifyBoots is the gate's untimed pass: Verify boots, which compare
// every byte read against the image's true content.
func verifyBoots(res *result, sess ctlplane.Session, pairs [][2]string) {
	for _, p := range pairs {
		rep, err := sess.Boot(bg, core.BootRequest{Image: p[0], Node: p[1], Verify: true})
		if err == nil {
			err = checkBoot(rep, false)
		}
		if err != nil {
			err = fmt.Errorf("verify boot %s on %s: %w", p[0], p[1], err)
		}
		res.op(err)
	}
}

// replicaMetrics reports the per-node cost of full replication, the
// paper's disk and memory claim, and the wire cost of registration over
// every registration of the run (set-up included, so that the few
// seed-chosen images of a short run do not dominate it).
func replicaMetrics(res *result, st core.DeploymentStats, diffBytes []int64) {
	res.gated(metric{name: "replica_disk_mb", value: float64(st.ReplicaDiskBytes) / 1e6, unit: "MB", kind: "counted"})
	res.gated(metric{name: "replica_ddt_mem_kb", value: float64(st.ReplicaMemBytes) / 1e3, unit: "KB", kind: "counted"})
	res.gated(metric{name: "wire_bytes_per_register", value: mean(diffBytes), unit: "B", kind: "counted", n: len(diffBytes)})
}

// timed is one op's latency and its offset into the measured phase
// (due time for open-loop ops, completion for closed-loop ones).
type timed struct{ at, lat time.Duration }

// opLatency reports an op's whole-run p50 and p99 under its own name
// and, if gate is not empty, its quiet p50 as the gated metric gate: the
// p50 of each second of the phase, at the 10th percentile over seconds.
// Interference from the rest of a shared host only adds latency, and it
// comes in bursts of seconds (per-second p50s of one run ranged from 3 to
// 15 ms); the quietest seconds show the system's own latency and repeat
// between runs, while a change that slows the op slows every second.
func opLatency(res *result, name string, ops []timed, gate string) {
	lats := make([]time.Duration, len(ops))
	wins := map[time.Duration][]time.Duration{}
	for i, o := range ops {
		lats[i] = o.lat
		wins[o.at/time.Second] = append(wins[o.at/time.Second], o.lat)
	}
	res.add(metric{name: name + "_p50_ms", value: ms(quantile(lats, 0.5)), unit: "ms", kind: "measured", n: len(lats)})
	res.add(metric{name: name + "_p99_ms", value: ms(quantile(lats, 0.99)), unit: "ms", kind: "measured", n: len(lats)})
	if gate != "" {
		var p50s []time.Duration
		for _, w := range wins {
			if len(w) >= minWindowOps {
				p50s = append(p50s, quantile(w, 0.5))
			}
		}
		res.gated(metric{name: gate, value: ms(quantile(p50s, 0.1)), unit: "ms", kind: "measured", n: len(p50s)})
	}
}

// liveHeap reports the heap left live after a forced GC, with the
// deployment still reachable.
func liveHeap(res *result, keep any) {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	runtime.KeepAlive(keep)
	res.gated(metric{name: "live_heap_mb", value: float64(st.HeapAlloc) / 1e6, unit: "MB", kind: "measured"})
}

// phase brackets a measured phase: process CPU time and Go runtime
// counters at its start.
type phase struct {
	cpu time.Duration
	rt  []metrics.Sample
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startPhase() phase { return phase{cpu: processCPU(), rt: readRuntime()} }

// end reports the phase's CPU per foreground op (end-to-end) and, in a
// traced run, the Go runtime's share of it (per layer).
func (p phase) end(res *result, ops int) {
	cpu := processCPU() - p.cpu
	res.gated(metric{name: "cpu_ms_per_op", value: ms(cpu) / float64(max(ops, 1)), unit: "ms", kind: "measured", n: ops})
	rt := readRuntime()
	if total := rt[1].Value.Float64() - p.rt[1].Value.Float64(); total > 0 {
		res.layer("go.gc_cpu_frac", (rt[0].Value.Float64()-p.rt[0].Value.Float64())/total, 0)
	}
	res.layer("go.alloc_mb_per_op", float64(rt[2].Value.Uint64()-p.rt[2].Value.Uint64())/1e6/float64(max(ops, 1)), ops)
}
