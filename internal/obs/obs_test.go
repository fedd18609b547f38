package obs

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	var tr *Tracer
	var sp *Span

	// Every method on every nil receiver must no-op without panicking.
	tr = tel.Tracer()
	if tr != nil {
		t.Fatal("nil telemetry must yield nil tracer")
	}
	if tel.Counters() != nil {
		t.Fatal("nil telemetry must yield nil counters")
	}
	sp = tr.StartOp(OpBoot, "node00", "img")
	if sp != nil {
		t.Fatal("nil tracer must yield nil span")
	}
	if c := tr.Op(nil, OpScrub, "node00", ""); c != nil {
		t.Fatal("nil tracer Op must yield nil span")
	}
	child := sp.Child(OpPeerFetch, "", "")
	if child != nil {
		t.Fatal("nil span must yield nil child")
	}
	sp.SetNode("x")
	sp.AddBytes(1)
	sp.AddSim(1)
	sp.Annotate("k", 1)
	sp.Fail(errors.New("boom"))
	sp.Finish()
	if sp.Kind() != "" || sp.Node() != "" || sp.Image() != "" || sp.Err() != "" {
		t.Fatal("nil span accessors must be zero")
	}
	if sp.Bytes() != 0 || sp.SimSec() != 0 || sp.Wall() != 0 || sp.Annotation("k") != 0 {
		t.Fatal("nil span accessors must be zero")
	}
	if len(sp.Children()) != 0 || len(sp.Annotations()) != 0 {
		t.Fatal("nil span collections must be empty")
	}
	if roots := tel.Roots(); len(roots) != 0 {
		t.Fatal("nil telemetry must have no roots")
	}
	if tel.SlowestRoot(OpBoot) != nil {
		t.Fatal("nil telemetry SlowestRoot must be nil")
	}
	snap := tel.Snapshot()
	if len(snap.Ops) != 0 || snap.SpansRecorded != 0 {
		t.Fatal("nil telemetry snapshot must be empty")
	}
	if snap.JSON() == "" || snap.Prometheus() == "" {
		t.Fatal("empty snapshot must still render")
	}
	if RenderTree(nil) != "" {
		t.Fatal("nil tree renders empty")
	}
}

func TestSpanTreeAndAggregation(t *testing.T) {
	tel := New(8)
	tr := tel.Tracer()

	root := tr.StartOp(OpBoot, "node01", "img-0")
	fetch := root.Child(OpPeerFetch, "", "img-0")
	fetch.SetNode("node02")
	fetch.AddBytes(4096)
	fetch.AddSim(0.25)
	fetch.Annotate("attempts", 2)
	fetch.Finish()
	pfs := root.Child(OpPFSRead, "node01", "img-0")
	pfs.AddBytes(1024)
	pfs.Finish()
	root.AddBytes(5120)
	root.Finish()

	bad := tr.StartOp(OpScrub, "node03", "")
	bad.Fail(errors.New("corrupt block"))
	bad.Finish()

	roots := tel.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots %d want 2", len(roots))
	}
	if roots[0].Kind() != OpBoot || roots[1].Kind() != OpScrub {
		t.Fatalf("root order %q %q", roots[0].Kind(), roots[1].Kind())
	}
	if got := roots[0].ChildrenOf(OpPeerFetch); len(got) != 1 || got[0].Node() != "node02" || got[0].Bytes() != 4096 {
		t.Fatalf("peerFetch child wrong: %+v", got)
	}
	if roots[0].ChildrenOf(OpPeerFetch)[0].Annotation("attempts") != 2 {
		t.Fatal("annotation lost")
	}
	if fr := tel.FailedRoots(); len(fr) != 1 || fr[0].Kind() != OpScrub {
		t.Fatalf("failed roots %v", fr)
	}
	if s := tel.SlowestRoot(OpScrub); s == nil || s.Err() == "" {
		t.Fatal("SlowestRoot must prefer the failed op")
	}
	if tel.SlowestRoot(OpBoot) != roots[0] {
		t.Fatal("SlowestRoot(boot) must find the boot root")
	}

	snap := tel.Snapshot()
	boot, ok := snap.Op(OpBoot)
	if !ok || boot.Count != 1 || boot.Bytes != 5120 {
		t.Fatalf("boot summary %+v ok=%v", boot, ok)
	}
	fetchSum, ok := snap.Op(OpPeerFetch)
	if !ok || fetchSum.Count != 1 || fetchSum.Bytes != 4096 || fetchSum.SimSec != 0.25 {
		t.Fatalf("peerFetch summary %+v", fetchSum)
	}
	scrub, ok := snap.Op(OpScrub)
	if !ok || scrub.Errors != 1 {
		t.Fatalf("scrub summary %+v", scrub)
	}
	if snap.FailedOps != 1 || snap.SpansRecorded != 2 {
		t.Fatalf("snapshot bookkeeping %+v", snap)
	}
	var node02 *NodeSummary
	for i := range snap.Nodes {
		if snap.Nodes[i].Node == "node02" {
			node02 = &snap.Nodes[i]
		}
	}
	if node02 == nil || node02.Bytes != 4096 {
		t.Fatalf("node rollup missing: %+v", snap.Nodes)
	}

	tree := RenderTree(roots[0])
	for _, want := range []string{"boot node=node01", "  peerFetch node=node02", "attempts=2", "  pfsRead"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.Contains(RenderTree(bad), `ERR="corrupt block"`) {
		t.Fatalf("tree missing error:\n%s", RenderTree(bad))
	}
}

func TestFinishIdempotentAndOpHelper(t *testing.T) {
	tel := New(4)
	tr := tel.Tracer()
	sp := tr.StartOp(OpGC, "", "")
	sp.Finish()
	sp.Finish() // must not double-record
	snap := tel.Snapshot()
	if gc, _ := snap.Op(OpGC); gc.Count != 1 {
		t.Fatalf("double finish recorded twice: %+v", gc)
	}

	// Op with a parent nests; Op without one roots.
	root := tr.StartOp(OpRestart, "node00", "")
	child := tr.Op(root, OpScrub, "node00", "")
	child.Finish()
	root.Finish()
	if len(root.ChildrenOf(OpScrub)) != 1 {
		t.Fatal("Op must nest under parent")
	}
	lone := tr.Op(nil, OpScrub, "node01", "")
	lone.Finish()
	if len(tel.RootsOf(OpScrub)) != 1 {
		t.Fatal("Op without parent must root")
	}
}

func TestRingWraparound(t *testing.T) {
	tel := New(4)
	tr := tel.Tracer()
	for i := 0; i < 10; i++ {
		sp := tr.StartOp(OpBoot, fmt.Sprintf("node%02d", i), "")
		sp.Finish()
	}
	roots := tel.Roots()
	if len(roots) != 4 {
		t.Fatalf("ring holds %d want 4", len(roots))
	}
	// Oldest-first: the survivors are the last four appended.
	for i, s := range roots {
		want := fmt.Sprintf("node%02d", 6+i)
		if s.Node() != want {
			t.Fatalf("slot %d node %q want %q", i, s.Node(), want)
		}
	}
	if got := tel.Snapshot().SpansRecorded; got != 10 {
		t.Fatalf("SpansRecorded %d want 10", got)
	}
}

func TestPrometheusAndJSON(t *testing.T) {
	tel := New(8)
	tr := tel.Tracer()
	tel.Counters().Add("peer.hit", 3)
	sp := tr.StartOp(OpRegister, "stor00", "img-1")
	sp.AddBytes(1 << 20)
	sp.AddSim(1.5)
	sp.Finish()

	snap := tel.Snapshot()
	prom := snap.Prometheus()
	for _, want := range []string{
		`squirrel_op_total{kind="register"} 1`,
		`squirrel_op_bytes_total{kind="register"} 1048576`,
		`squirrel_op_sim_seconds_total{kind="register"} 1.5`,
		`squirrel_op_latency_ms{kind="register",quantile="0.5"}`,
		`squirrel_node_ops_total{node="stor00"} 1`,
		`squirrel_counter{name="peer.hit"} 3`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus missing %q:\n%s", want, prom)
		}
	}
	js := snap.JSON()
	for _, want := range []string{`"kind": "register"`, `"bytes": 1048576`, `"peer.hit": 3`} {
		if !strings.Contains(js, want) {
			t.Fatalf("json missing %q:\n%s", want, js)
		}
	}
}

// TestConcurrentRecordAndSnapshot drives spans from many goroutines
// while another hammers Snapshot/Prometheus/Roots; the race detector is
// the oracle.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tel := New(64)
	tr := tel.Tracer()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tel.Snapshot()
			_ = snap.Prometheus()
			_ = snap.JSON()
			for _, r := range tel.Roots() {
				_ = RenderTree(r)
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartOp(OpBoot, fmt.Sprintf("node%02d", w), "img")
				c := sp.Child(OpPeerFetch, "", "img")
				c.AddBytes(4096)
				c.Finish()
				sp.AddBytes(4096)
				if i%7 == 0 {
					sp.Fail(errors.New("synthetic"))
				}
				sp.Finish()
				tel.Counters().Add("boot.count", 1)
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	reader.Wait()
	snap := tel.Snapshot()
	boot, _ := snap.Op(OpBoot)
	if boot.Count != 800 {
		t.Fatalf("boot count %d want 800", boot.Count)
	}
	if fetch, _ := snap.Op(OpPeerFetch); fetch.Bytes != 800*4096 {
		t.Fatalf("peerFetch bytes %d", fetch.Bytes)
	}
}

// TestSnapshotNeverHalfMerged hammers Snapshot while spans finish
// concurrently and checks the striping invariant: a span's whole
// contribution (count, bytes, node rollup) folds into one shard under
// one lock, so no snapshot may ever observe a span half-applied. Every
// span below contributes exactly 1 byte, so in every coherent view
// bytes == count, per op kind and per node. Run under -race this also
// exercises ring eviction racing snapshot readers.
func TestSnapshotNeverHalfMerged(t *testing.T) {
	tel := New(64)
	tr := tel.Tracer()

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := []string{"node00", "node01", "node02"}[w%3]
			for i := 0; i < perWorker; i++ {
				sp := tr.StartOp("boot", node, "im0")
				sp.AddBytes(1)
				c := sp.Child("peerFetch", node, "im0")
				c.AddBytes(1)
				c.Finish()
				sp.Finish()
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tel.Snapshot()
				for _, op := range snap.Ops {
					if op.Bytes != op.Count {
						t.Errorf("half-merged op row %s: bytes=%d count=%d", op.Kind, op.Bytes, op.Count)
					}
				}
				for _, n := range snap.Nodes {
					if n.Bytes != n.Count {
						t.Errorf("half-merged node row %s: bytes=%d count=%d", n.Node, n.Bytes, n.Count)
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	snap := tel.Snapshot()
	boot, ok := snap.Op("boot")
	if !ok || boot.Count != workers*perWorker {
		t.Fatalf("final boot count = %+v, want %d", boot, workers*perWorker)
	}
	fetch, _ := snap.Op("peerFetch")
	if fetch.Count != workers*perWorker {
		t.Fatalf("final peerFetch count = %d, want %d", fetch.Count, workers*perWorker)
	}
}

// TestHeadSamplingDeterministic checks the SampleEvery contract: with
// SampleEvery=N exactly one in N StartOp calls yields a live span, and
// the kept subset depends only on call order. Remote continuations
// bypass sampling.
func TestHeadSamplingDeterministic(t *testing.T) {
	kept := func() []int {
		tel := NewWith(Config{RingSize: 16, SampleEvery: 4})
		var kept []int
		for i := 0; i < 100; i++ {
			if sp := tel.Tracer().StartOp("boot", "", ""); sp != nil {
				sp.Finish()
				kept = append(kept, i)
			}
		}
		return kept
	}

	a := kept()
	if len(a) != 25 {
		t.Fatalf("SampleEvery=4 kept %d of 100, want 25", len(a))
	}
	b := kept()
	if len(b) != 25 {
		t.Fatalf("second run kept %d, want 25", len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling not deterministic: run1[%d]=%d run2[%d]=%d", i, a[i], i, b[i])
		}
	}

	// Aggregates describe the sampled subset only.
	tel := NewWith(Config{RingSize: 16, SampleEvery: 4})
	for i := 0; i < 100; i++ {
		if sp := tel.Tracer().StartOp("boot", "", ""); sp != nil {
			sp.Finish()
		}
	}
	if op, _ := tel.Snapshot().Op("boot"); op.Count != 25 {
		t.Fatalf("sampled aggregate count = %d, want 25", op.Count)
	}

	// A remote continuation is never dropped: the originating client
	// already decided this trace is kept.
	for i := 0; i < 20; i++ {
		sp := tel.Tracer().StartRemoteOp("rpc.dispatch", "", "", 77, uint64(i+1))
		if sp == nil {
			t.Fatalf("StartRemoteOp sampled away at call %d", i)
		}
		sp.Finish()
	}
	if got := len(tel.RemoteDumps(77)); got != 16 { // ring keeps the last 16
		t.Fatalf("RemoteDumps returned %d trees, want ring size 16", got)
	}
}

// TestDumpGraftRender drives the wire-trace merge path in-process: a
// "client" session tree and a "daemon" dispatch tree built from the
// session's wire context graft into one tree whose rendering matches
// the native renderer line format.
func TestDumpGraftRender(t *testing.T) {
	client := New(8)
	daemon := New(8)

	session := client.Tracer().StartOp(OpSession, "", "")
	rpc := session.Child(OpRPC, "", "")
	rpc.Annotate("op.boot", 1)

	// Daemon side: dispatch continues the client's (traceID, spanID).
	disp := daemon.Tracer().StartRemoteOp(OpDispatch, "", "", session.SpanID(), rpc.SpanID())
	boot := disp.Child("boot", "node03", "im0")
	boot.AddBytes(4096)
	boot.Child("lane", "node03", "im0").Finish()
	boot.Finish()
	disp.Finish()

	rpc.Finish()
	session.Finish()

	remotes := daemon.RemoteDumps(session.SpanID())
	if len(remotes) != 1 {
		t.Fatalf("RemoteDumps returned %d trees, want 1", len(remotes))
	}
	dump := DumpTree(session)
	if !dump.Graft(remotes[0]) {
		t.Fatal("Graft failed to find the client rpc span")
	}
	// Unmatched trees must stay unattached.
	stray := &TreeDump{Kind: OpDispatch, RemoteParent: 0xBAD}
	if dump.Graft(stray) {
		t.Fatal("Graft attached a tree with an unknown parent")
	}

	if d := dump.FindKind("boot"); d == nil || d.Bytes != 4096 || d.Node != "node03" {
		t.Fatalf("grafted boot not reachable: %+v", d)
	}
	rendered := RenderDump(dump)
	for _, line := range []string{OpSession, OpRPC, OpDispatch, "boot", "lane"} {
		if !strings.Contains(rendered, line) {
			t.Fatalf("merged render missing %q:\n%s", line, rendered)
		}
	}
	// Depth check: boot sits under dispatch under rpc under session.
	var depths []int
	for _, ln := range strings.Split(strings.TrimRight(rendered, "\n"), "\n") {
		depths = append(depths, (len(ln)-len(strings.TrimLeft(ln, " ")))/2)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if i >= len(depths) || depths[i] != want[i] {
			t.Fatalf("merged tree depths = %v, want %v:\n%s", depths, want, rendered)
		}
	}

	// A dump of a purely local tree renders identically to the span
	// renderer — wire-merged traces read exactly like local ones. The
	// wall token is normalized: the dump measures via Unix nanos, the
	// span via the monotonic clock, and they may differ by nanoseconds.
	wallTok := regexp.MustCompile(`wall=\S+`)
	dr := wallTok.ReplaceAllString(RenderDump(DumpTree(session)), "wall=X")
	tr := wallTok.ReplaceAllString(RenderTree(session), "wall=X")
	if dr != tr {
		t.Fatalf("RenderDump diverges from RenderTree:\n%q\n%q", dr, tr)
	}
}
