package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/daemon"
	"repro/internal/peer"
	"repro/internal/wireclient"
)

// flash-crowd: the deployment served by an in-process squirreld
// (-peers -traced, as an operator runs it) and driven over one
// wireclient connection, with /metrics scraped once per second. Each
// round registers a fresh image and drops its replica on a seeded 25%
// of nodes; an open-loop storm follows in which half the boots target
// the fresh image and half the catalog by Zipf. The next round's
// registration lands while the storm still runs, on the same volumes
// and locks. It is the only workload where the peer exchange, the wire
// protocol, the daemon and obs do real work, so a read gain that stalls
// behind replica applies, or a write gain that slows boots, shows here.
const (
	// crowdRate is a constant, never derived at run time. At ≈4 ms of CPU
	// per storm boot (wire, daemon, cold peer-served boots and the
	// overlapping registrations included) it keeps a 2-vCPU host about a
	// quarter busy: at 300/s, half of capacity, a slowed host let the
	// storm's queue run away and the p50 of one seed ranged 3-9 ms.
	crowdRate       = 120.0
	crowdRound      = time.Second
	crowdStormDelay = 250 * time.Millisecond // storm k runs over [k+delay, k+1+delay) rounds
	coldPct         = 25
	scrapeEvery     = time.Second
	coldReplays     = 100 // traced run: cold boots replayed, besides warm ones
	// Span op ids of the operator's and the scraper's calls, apart from
	// the storm's boot ids.
	opRegister = 1 << 30
	opDrop     = 2 << 30
	opScrape   = 3 << 30
)

// wireTimes is the ctlplane.Session a traced run hands to daemon.New:
// it times the server side of each boot, registration and drop, so the
// wire's share is the client call minus it.
type wireTimes struct {
	ctlplane.Session
	mu   sync.Mutex
	took map[string][]time.Duration
}

func (w *wireTimes) put(key string, d time.Duration) {
	w.mu.Lock()
	w.took[key] = append(w.took[key], d)
	w.mu.Unlock()
}

// take pops the oldest server-side time recorded under key. The server
// records before it responds, so it is there once the client call returns.
func (w *wireTimes) take(key string) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := w.took[key]
	if len(q) == 0 {
		return 0
	}
	w.took[key] = q[1:]
	return q[0]
}

func (w *wireTimes) Boot(ctx context.Context, req core.BootRequest) (core.BootReport, error) {
	t := time.Now()
	rep, err := w.Session.Boot(ctx, req)
	w.put("boot "+req.Image+" "+req.Node, time.Since(t))
	return rep, err
}

func (w *wireTimes) Register(ctx context.Context, id string, at time.Time) (core.RegisterReport, error) {
	t := time.Now()
	rep, err := w.Session.Register(ctx, id, at)
	w.put("register "+id, time.Since(t))
	return rep, err
}

func (w *wireTimes) DropReplica(node, id string) error {
	t := time.Now()
	err := w.Session.DropReplica(node, id)
	w.put("drop "+node+" "+id, time.Since(t))
	return err
}

// served is one deployment behind a loopback squirreld and the client
// connection that drives it.
type served struct {
	d      *deployment
	srv    *daemon.Server
	done   chan error
	client *wireclient.Client
	wt     *wireTimes // traced run only
}

func serve(traced bool) (*served, error) {
	d, err := newDeployment(true)
	if err != nil {
		return nil, err
	}
	s := &served{d: d, done: make(chan error, 1)}
	var sess ctlplane.Session = d.local
	if traced {
		s.wt = &wireTimes{Session: d.local, took: map[string][]time.Duration{}}
		sess = s.wt
	}
	s.srv = daemon.New(sess, daemon.Config{Addr: "127.0.0.1:0", Tel: d.local.Squirrel().Telemetry()})
	if err := s.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.srv.Serve() }()
	if s.client, err = wireclient.Dial(wireclient.Options{Addr: s.srv.Addr().String()}); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the connection and drains the daemon, waiting for it.
func (s *served) stop() error {
	if s.client != nil {
		s.client.Close()
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// stormBoot is what a storm boot left behind for the report.
type stormBoot struct {
	cold     bool
	fabric   int64 // PFS + peer bytes
	peer     int64
	fallback int
	source   string // node whose ccVolume served the cache object
}

func runFlashCrowd(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	var s *served
	var diffs []int64
	err := setUp(res, cfg.setups, func() (err error) {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		if s, err = serve(tr.on); err != nil {
			return err
		}
		diffs = diffs[:0]
		for i, id := range s.d.info.Images[:catalogN] {
			rep, err := s.client.Register(bg, id, simHour(i))
			res.op(checkRegister(id, rep, err))
			diffs = append(diffs, rep.DiffBytes)
		}
		return nil
	})
	if s != nil {
		defer s.stop()
	}
	if err != nil {
		return nil, err
	}

	catalog, pool, nodes := s.d.info.Images[:catalogN], s.d.info.Images[catalogN:], s.d.info.ComputeNodes
	rounds := min(cfg.seconds, len(pool))
	sched := newCrowdSchedule(cfg.seed, catalog, pool, nodes, rounds)
	cold := make([]map[string]bool, rounds)
	ready := make([]chan struct{}, rounds)
	for k := range rounds {
		ready[k] = make(chan struct{})
		cold[k] = map[string]bool{}
		for _, n := range sched.cold[k] {
			cold[k][n] = true
		}
	}
	sq := s.d.local.Squirrel()
	ctr := sq.PeerIndex().Counters()
	hits0, miss0, busy0 := ctr.Get("peer.hit"), ctr.Get("peer.miss"), ctr.Get("peer.busy")

	start := time.Now().Add(10 * time.Millisecond)
	stormEnd := time.Duration(rounds)*crowdRound + crowdStormDelay
	var wg sync.WaitGroup
	var regLats []timed
	wg.Add(2)
	go func() { // the operator: one registration per round, then the drops
		defer wg.Done()
		for k := range rounds {
			time.Sleep(time.Until(start.Add(time.Duration(k) * crowdRound)))
			id := sched.fresh[k]
			t := time.Now()
			rep, err := s.client.Register(bg, id, simHour(catalogN+k))
			lat := time.Since(t)
			if tr.on {
				srv := s.wt.take("register " + id)
				tr.add(opRegister+k, "core.register", srv)
				tr.add(opRegister+k, "wire.register_rpc", lat-srv)
			}
			if res.op(checkRegister(id, rep, err)) {
				regLats = append(regLats, timed{time.Duration(k) * crowdRound, lat})
				diffs = append(diffs, rep.DiffBytes)
			}
			for j, n := range sched.cold[k] {
				err := s.client.DropReplica(n, id)
				if tr.on {
					tr.add(opDrop+k*nodesN+j, "core.drop_replica", s.wt.take("drop "+n+" "+id))
				}
				res.op(err)
			}
			close(ready[k])
		}
	}()
	go func() { // the scraper
		defer wg.Done()
		h := daemon.MetricsHandler(sq.Telemetry())
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j)*scrapeEvery + scrapeEvery/2)
			if due.After(start.Add(stormEnd)) {
				return
			}
			time.Sleep(time.Until(due))
			rec := httptest.NewRecorder()
			tr.time(opScrape+j, "obs.scrape", func() { h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil)) })
			var err error
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				err = fmt.Errorf("/metrics scrape %d: status %d, %d bytes", j, rec.Code, rec.Body.Len())
			}
			res.op(err)
		}
	}()

	boots := make([]stormBoot, len(sched.storm))
	ph := startPhase()
	storm := openLoop(start, len(sched.storm), cfg.workers, func(i int) time.Duration { return sched.storm[i].due },
		func(i int) {
			o := sched.storm[i]
			wantCold := o.round >= 0 && cold[o.round][o.node]
			if o.round >= 0 {
				<-ready[o.round]
			}
			t := time.Now()
			rep, err := s.client.Boot(bg, core.BootRequest{Image: o.image, Node: o.node})
			lat := time.Since(t)
			b := stormBoot{cold: wantCold, fabric: rep.NetworkBytes + rep.PeerBytes, peer: rep.PeerBytes,
				fallback: rep.PeerFallbacks, source: o.node}
			if wantCold {
				b.source = rep.PeerNode
			}
			if tr.on {
				srv := s.wt.take("boot " + o.image + " " + o.node)
				tr.add(i, "core.boot", srv)
				tr.add(i, "wire.boot_rpc", lat-srv)
			}
			boots[i] = b
			if err == nil {
				err = checkBoot(rep, !wantCold)
			}
			if err == nil && wantCold && rep.Warm {
				err = fmt.Errorf("boot %s on %s: dropped replica served warm", o.image, o.node)
			}
			res.op(err)
		})
	wg.Wait()
	ph.end(res, len(storm))

	var lats, coldLats []timed
	var fabric int64
	for i, smp := range storm {
		t := timed{sched.storm[i].due - crowdStormDelay, smp.lat} // seconds aligned to rounds
		lats = append(lats, t)
		if boots[i].cold {
			coldLats = append(coldLats, t)
		}
		fabric += boots[i].fabric
	}
	opLatency(res, "boot", lats, "op_p50_quiet_ms")
	opLatency(res, "cold_boot", coldLats, "slow_op_p50_ms")
	opLatency(res, "register", regLats, "")
	res.add(metric{name: "net_bytes_per_boot", value: float64(fabric) / float64(max(len(storm), 1)), unit: "B", kind: "counted", n: len(storm)})

	if tr.on {
		if err := crowdLayers(tr, res, sq, sched, storm, boots); err != nil {
			return nil, err
		}
		hits, miss, busy := ctr.Get("peer.hit")-hits0, ctr.Get("peer.miss")-miss0, ctr.Get("peer.busy")-busy0
		res.layer("peer.hit_ratio", ratio(hits, hits+miss+busy), int(hits+miss+busy))
	}

	verifyBoots(res, s.client, sched.verify)
	st, err := s.client.Stats()
	if err != nil {
		return nil, err
	}
	replicaMetrics(res, st, diffs)
	liveHeap(res, s.d)
	return res, nil
}

// crowdLayers replays sampled boots layer by layer — warm ones on the
// booting node, cold ones on the peer that served them, plus the peer
// source selection — and reports the per-layer metrics of the storm.
func crowdLayers(tr *tracer, res *result, sq *core.Squirrel, sched crowdSchedule, storm []sample, boots []stormBoot) error {
	rr, err := newReadReplay(sq)
	if err != nil {
		return err
	}
	ix := sq.PeerIndex()
	warm, cold := 0, 0
	var peerBytes, fallbacks, colds int64
	for i, b := range boots {
		if b.cold {
			colds++
			peerBytes += b.peer
			fallbacks += int64(b.fallback)
		}
		if b.source == "" {
			continue
		}
		o := sched.storm[i]
		switch {
		case b.cold && cold < coldReplays:
			cold++
			tr.time(i, "peer.acquire", func() {
				if _, release, ok, _ := ix.AcquireFrom(ix.Holders(o.image), peer.DefaultMaxServeSlots,
					func(n string) bool { return n == o.node }); ok {
					release(0)
				}
			})
		case !b.cold && i%replayEvery == 0 && warm < maxReplays-coldReplays:
			warm++
		default:
			continue
		}
		if err := rr.replay(tr, sampled{i, o.image, b.source}); err != nil {
			return err
		}
	}
	rr.report(tr, res, "core.boot")
	res.spanLayers(tr, "core.boot", "core.register", "core.drop_replica", "wire.boot_rpc", "wire.register_rpc", "peer.acquire")
	scrapes := tr.durs("obs.scrape")
	res.layer("obs.scrape_ms", ms(quantile(scrapes, 0.5)), len(scrapes))
	res.layer("peer.bytes_per_cold_boot", float64(peerBytes)/float64(max(colds, 1)), int(colds))
	res.layer("peer.fallbacks_per_cold_boot", float64(fallbacks)/float64(max(colds, 1)), int(colds))
	loadLayers(res, storm)
	return nil
}
