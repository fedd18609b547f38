package main

import (
	"sync"
	"time"

	"repro/internal/core"
)

// boot-warm: every boot is a local-cache hit, so the zvol read path
// (store read, two SHA-256 passes, gzip6 decompress) and qcow do nearly
// all the work; nothing is written and nothing crosses the fabric or the
// wire. Open-loop Poisson boots (Zipf over tenants, uniform node) give
// the latency; a closed loop of one client per executor gives capacity.
const (
	// warmRate is a constant, never derived at run time, so a faster read
	// path shows as lower latency, not as more load. It sits at about a
	// third of boot_capacity_per_s at the seed commit (600-950 boots/s with
	// 2 clients on a shared 2-vCPU host, varying with the neighbours'
	// load): at half capacity a slowed host grew the queue, and the p50
	// ranged from 3 to 19 ms across runs.
	warmRate  = 250.0
	openShare = 0.6  // share of --seconds spent open-loop; the rest is the capacity phase
	closedOps = 4096 // closed-loop op sequence, cycled
	// In a traced run, every replayEvery-th op is replayed layer by
	// layer, at most maxReplays of them.
	replayEvery = 16
	maxReplays  = 200
	verifyN     = 16 // Verify boots in the correctness gate
)

func runBootWarm(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	var d *deployment
	var diffs []int64
	err := setUp(res, cfg.setups, func() (err error) {
		if d, err = newDeployment(false); err != nil {
			return err
		}
		diffs = diffs[:0]
		for i, id := range d.info.Images[:catalogN] {
			rep, err := d.local.Register(bg, id, simHour(i))
			res.op(checkRegister(id, rep, err))
			diffs = append(diffs, rep.DiffBytes)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	catalog, nodes := d.info.Images[:catalogN], d.info.ComputeNodes
	openFor := time.Duration(float64(cfg.seconds) * openShare * float64(time.Second))
	sched := newWarmSchedule(cfg.seed, catalog, nodes, openFor)

	var mu sync.Mutex
	var replays []sampled
	boot := func(op int, o bootOp) {
		t := time.Now()
		rep, err := d.local.Boot(bg, core.BootRequest{Image: o.image, Node: o.node})
		tr.add(op, "core.boot", time.Since(t))
		if tr.on && op%replayEvery == 0 {
			mu.Lock()
			if len(replays) < maxReplays {
				replays = append(replays, sampled{op, o.image, o.node})
			}
			mu.Unlock()
		}
		if err == nil {
			err = checkBoot(rep, true)
		}
		res.op(err)
	}

	ph := startPhase()
	open := openLoop(time.Now(), len(sched.open), cfg.workers, func(i int) time.Duration { return sched.open[i].due },
		func(i int) { boot(i, sched.open[i]) })
	base := len(open)
	closed, elapsed := closedLoop(cfg.workers, time.Duration(cfg.seconds)*time.Second-openFor,
		func(i int) { boot(base+i, sched.closed[i%len(sched.closed)]) })
	ph.end(res, len(open)+len(closed))

	lats := make([]timed, len(open))
	for i, s := range open {
		lats[i] = timed{sched.open[i].due, s.lat}
	}
	opLatency(res, "boot", lats, "op_p50_quiet_ms")
	// Too few seconds for the quiet form; a closed loop leaves no CPU
	// idle, so its whole-phase p50 repeats.
	res.gatedAs(metric{name: "capacity_boot_p50_ms", value: ms(quantile(closed, 0.5)), unit: "ms", kind: "measured", n: len(closed)}, "slow_op_p50_ms")
	res.add(metric{name: "boot_capacity_per_s", value: float64(len(closed)) / elapsed.Seconds(), unit: "1/s", kind: "measured", n: len(closed)})

	if tr.on {
		rr, err := newReadReplay(d.local.Squirrel())
		if err != nil {
			return nil, err
		}
		for _, r := range replays {
			if err := rr.replay(tr, r); err != nil {
				return nil, err
			}
		}
		rr.report(tr, res, "core.boot")
		res.spanLayers(tr, "core.boot")
		loadLayers(res, open)
	}

	verifyBoots(res, d.local, verifyPairs(cfg.seed, catalog, nodes, verifyN))
	st, err := d.local.Stats()
	if err != nil {
		return nil, err
	}
	replicaMetrics(res, st, diffs)
	liveHeap(res, d)
	return res, nil
}

// loadLayers reports the open-loop load generator's own health.
func loadLayers(res *result, open []sample) {
	var lag, wait []time.Duration
	for _, s := range open {
		lag = append(lag, s.lag)
		wait = append(wait, s.wait)
	}
	res.layer("bench.lag_ms_p99", ms(quantile(lag, 0.99)), len(lag))
	res.layer("bench.queue_wait_ms_p50", ms(quantile(wait, 0.5)), len(wait))
	res.layer("bench.queue_wait_ms_p99", ms(quantile(wait, 0.99)), len(wait))
}
