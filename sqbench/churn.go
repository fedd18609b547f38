package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
)

// register-churn: the write path alone — chunk, hash, DDT, compress,
// store alloc, snapshot, send/encode, prepare, 32 ReceivePrepared, peer
// announce. One operator in a closed loop registers a fresh image per
// simulated hour, deregisters the image registered liveWindow steps
// earlier and runs the daily GC with the paper's 7-day retention.
// Register cost grows with live objects and snapshots (a CPU profile at
// 600 live images puts 37% in ReceivePrepared, 22% in peer announce), so
// the catalog is held at liveWindow and warm-up runs until live objects
// and snapshots have levelled off. Boots, zvol reads and qcow do nothing.
const (
	liveWindow = 256
	gcEvery    = 24  // registrations per simulated day
	warmupRegs = 300 // live objects level off at 256, snapshots after 7 days + 1 GC cycle
	retention  = 7 * 24 * time.Hour
	// countSteps is the step count the counted metrics are taken at, so
	// that they do not depend on how many steps fit in --seconds. It is a
	// whole number of simulated days: the last step runs the daily GC.
	countSteps = 23 * gcEvery
)

// quiet records nothing: set-up and warm-up steps run without spans.
var quiet = newTracer(false)

type churn struct {
	d     *deployment
	order []string
	res   *result
	log   []churnStep // every step, for the traced run's shadow replay
	// Measured-phase records, except diffs.
	start     time.Time
	lats      []timed
	gcSteps   []time.Duration // whole steps that ran the daily GC
	diffs     []int64         // every registration's, set-up included
	destroyed []int
}

// churnStep is what one operator step did to the deployment.
type churnStep struct {
	i      int
	id     string // registered
	snap   string // snapshot the registration took
	retire string // deregistered, if any
	gc     bool
}

// step runs operator step i: register, retire, and on the last hour of
// a simulated day, GC. Only measured steps record. It reports whether
// every call passed the gate.
func (c *churn) step(tr *tracer, i int, measure bool) bool {
	str := quiet
	if measure {
		str = tr
	}
	id, at := c.order[i%len(c.order)], simHour(i)
	t := time.Now()
	rep, err := c.d.local.Register(bg, id, at)
	took := time.Since(t)
	str.add(i, "core.register", took)
	if !c.res.op(checkRegister(id, rep, err)) {
		return false
	}
	c.diffs = append(c.diffs, rep.DiffBytes)
	if measure {
		c.lats = append(c.lats, timed{time.Since(c.start), took})
	}
	st := churnStep{i: i, id: id, snap: rep.Snapshot, gc: i%gcEvery == gcEvery-1}
	if i >= liveWindow {
		st.retire = c.order[(i-liveWindow)%len(c.order)]
		str.time(i, "core.deregister", func() { err = c.d.local.Squirrel().Deregister(st.retire) })
		if !c.res.op(err) {
			return false
		}
	}
	if st.gc {
		var n int
		str.time(i, "core.gc", func() { n, err = c.d.local.GarbageCollect(at) })
		if !c.res.op(err) {
			return false
		}
		if measure {
			c.destroyed = append(c.destroyed, n)
			c.gcSteps = append(c.gcSteps, time.Since(t))
		}
	}
	c.log = append(c.log, st)
	return true
}

// replay runs every step the deployment took, in order, on a shadow
// after the load, so the load runs untouched and the shadow is timed
// quiescent; only measured steps record spans.
func (c *churn) replay(tr *tracer) error {
	sh, err := newShadow(c.d.local.Squirrel().SCVolume().Config(), c.d.info.ComputeNodes)
	if err != nil {
		return err
	}
	for _, st := range c.log {
		str := quiet
		if st.i >= warmupRegs {
			str = tr
		}
		if err := sh.register(str, st.i, images[st.id], st.snap, simHour(st.i)); err != nil {
			return fmt.Errorf("shadow register %s: %w", st.id, err)
		}
		if st.retire != "" {
			if err := sh.deregister(st.retire); err != nil {
				return fmt.Errorf("shadow deregister %s: %w", st.retire, err)
			}
		}
		if st.gc {
			sh.gc(str, st.i, simHour(st.i), retention)
		}
	}
	sh.report(tr, c.res, runtime.GOMAXPROCS(0))
	return nil
}

func runRegisterChurn(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	var c *churn
	err := setUp(res, cfg.setups, func() error {
		d, err := newDeployment(false)
		if err != nil {
			return err
		}
		c = &churn{d: d, order: newChurnSchedule(cfg.seed, d.info.Images), res: res}
		for i := range catalogN {
			if !c.step(tr, i, false) {
				return fmt.Errorf("set-up step %d failed: %v", i, res.violations)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := catalogN; i < warmupRegs; i++ {
		if !c.step(tr, i, false) {
			return nil, fmt.Errorf("warm-up step %d failed: %v", i, res.violations)
		}
	}

	ph := startPhase()
	c.start = time.Now()
	end := c.start.Add(time.Duration(cfg.seconds) * time.Second)
	var counted core.DeploymentStats
	i := warmupRegs
	for ; time.Now().Before(end) || i < countSteps; i++ {
		if !c.step(tr, i, true) {
			break
		}
		if i == countSteps-1 {
			if counted, err = c.d.local.Stats(); err != nil {
				return nil, err
			}
		}
	}
	ph.end(res, len(c.lats))
	opLatency(res, "register", c.lats, "op_p50_quiet_ms")
	res.gatedAs(metric{name: "gc_step_p50_ms", value: ms(quantile(c.gcSteps, 0.5)), unit: "ms", kind: "measured", n: len(c.gcSteps)}, "slow_op_p50_ms")

	if tr.on {
		res.spanLayers(tr, "core.register", "core.deregister", "core.gc")
		if err := c.replay(tr); err != nil {
			return nil, err
		}
		st := c.d.local.Squirrel().SCVolume().Stats()
		res.layer("zvol.live_objects", float64(st.Objects), 0)
		res.layer("zvol.live_snapshots", float64(st.Snapshots), 0)
		res.layer("zvol.ddt_entries", float64(st.UniqueBlocks), 0)
		res.layer("zvol.gc_destroyed_per_cycle", mean(c.destroyed), len(c.destroyed))
	}

	// Gate: the live catalog is exactly the window, and after the daily
	// job every online replica is at the storage side's latest snapshot.
	var want []string
	for j := max(i-liveWindow, 0); j < i; j++ {
		want = append(want, c.order[j%len(c.order)])
	}
	slices.Sort(want)
	if got := c.d.local.Squirrel().Registered(); !slices.Equal(got, want) {
		res.violate("registered %d images, want the %d-image live window", len(got), len(want))
	}
	_, err = c.d.local.GarbageCollect(simHour(i))
	res.op(err)
	st, err := c.d.local.Stats()
	if err != nil {
		return nil, err
	}
	if st.StaleReplicas != 0 {
		res.violate("%d stale replicas after the run", st.StaleReplicas)
	}
	verifyBoots(res, c.d.local, verifyPairs(cfg.seed, want, c.d.info.ComputeNodes, verifyN))
	replicaMetrics(res, counted, c.diffs[:min(countSteps, len(c.diffs))]) // short only on a failed run
	liveHeap(res, c.d)
	return res, nil
}
