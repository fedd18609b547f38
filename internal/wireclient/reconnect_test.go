package wireclient_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/daemon"
	"repro/internal/wireclient"
	"repro/internal/wireproto"
)

var reconnectT0 = time.Date(2014, 6, 23, 9, 0, 0, 0, time.UTC)

// startDaemon brings up an in-process squirreld on addr ("127.0.0.1:0"
// for an ephemeral port) and returns the bound address plus a stop
// function that drains it.
func startDaemon(t *testing.T, opts ctlplane.Options, addr string) (string, func()) {
	t.Helper()
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.New(local, daemon.Config{Addr: addr})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	t.Cleanup(stop)
	return srv.Addr().String(), stop
}

// sessionScript drives the same short scenario against any Session and
// collects everything it observes — the material the reconnect test
// diffs between the post-restart wire session and a pure in-process
// run of the identical fresh deployment.
type scriptResult struct {
	Registers []core.RegisterReport
	Boot      core.BootReport
	Stats     core.DeploymentStats
}

func sessionScript(t *testing.T, sess ctlplane.Session) scriptResult {
	t.Helper()
	ctx := context.Background()
	info, err := sess.Info()
	if err != nil {
		t.Fatal(err)
	}
	var res scriptResult
	for i, id := range info.Images[:3] {
		rep, err := sess.Register(ctx, id, reconnectT0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		res.Registers = append(res.Registers, rep)
	}
	node := info.ComputeNodes[0]
	if err := sess.DropReplica(node, info.Images[0]); err != nil {
		t.Fatal(err)
	}
	res.Boot, err = sess.Boot(ctx, core.BootRequest{Image: info.Images[0], Node: node, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Stats, err = sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// PeerLoads ordering and content are deterministic, but the wire
	// round-trips an empty slice as nil; normalize.
	if len(res.Stats.PeerLoads) == 0 {
		res.Stats.PeerLoads = nil
	}
	return res
}

// TestReconnectAfterDaemonRestart kills squirreld mid-session and
// proves the client story end to end: in-flight session calls fail
// with ErrClosed, a fresh Dial against the dead address burns its
// retry budget into ErrConnect (squirrelctl's exit-6 family), and a
// Dial racing the daemon's restart is carried over the gap by the
// retry/backoff loop — after which the session observes reports
// identical to an in-process deployment of the same shape.
func TestReconnectAfterDaemonRestart(t *testing.T) {
	opts := ctlplane.Options{Images: 6, Nodes: 4, Peers: true}

	addr, stop := startDaemon(t, opts, "127.0.0.1:0")
	c1, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	info, err := c1.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register(context.Background(), info.Images[0], reconnectT0); err != nil {
		t.Fatal(err)
	}

	// The daemon dies mid-session.
	stop()

	// The open session's next call fails with the connection sentinel,
	// not a hang or a mystery error.
	if _, err := c1.Stats(); !errors.Is(err, wireclient.ErrClosed) {
		t.Fatalf("call on dead session: got %v, want ErrClosed", err)
	}

	// A fresh Dial against the dead address spends its budget and wraps
	// ErrConnect — the sentinel squirrelctl maps to its connect exit
	// code (6).
	if _, err := wireclient.Dial(wireclient.Options{
		Addr:     addr,
		Attempts: 2,
		Backoff:  5 * time.Millisecond,
	}); !errors.Is(err, wireclient.ErrConnect) {
		t.Fatalf("dial dead daemon: got %v, want ErrConnect", err)
	}

	// Restart on the SAME address, but start the Dial first: the client
	// must ride its retry/backoff loop over the refused connections
	// until the new listener is up.
	type dialResult struct {
		c   *wireclient.Client
		err error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		c, err := wireclient.Dial(wireclient.Options{
			Addr:     addr,
			Attempts: 40,
			Backoff:  10 * time.Millisecond,
		})
		dialed <- dialResult{c, err}
	}()
	time.Sleep(30 * time.Millisecond) // let a few attempts fail against the dead port
	startDaemon(t, opts, addr)

	got := <-dialed
	if got.err != nil {
		t.Fatalf("reconnect dial did not recover across restart: %v", got.err)
	}
	defer got.c.Close()

	// Report equivalence: the reconnected wire session and a pure
	// in-process deployment of the same Options observe identical
	// reports for an identical script (the restarted daemon is a fresh
	// deployment — determinism in Options is the contract).
	wire := sessionScript(t, got.c)
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	inproc := sessionScript(t, local)

	if !reflect.DeepEqual(wire.Registers, inproc.Registers) {
		t.Errorf("register reports diverge:\n wire  %+v\n local %+v", wire.Registers, inproc.Registers)
	}
	if !reflect.DeepEqual(wire.Boot, inproc.Boot) {
		t.Errorf("boot reports diverge:\n wire  %+v\n local %+v", wire.Boot, inproc.Boot)
	}
	if !reflect.DeepEqual(wire.Stats, inproc.Stats) {
		t.Errorf("stats diverge:\n wire  %+v\n local %+v", wire.Stats, inproc.Stats)
	}
}

// TestDialFailsFastOnVersionMismatch stands in for a v1-only server:
// whether it rejects the v2 offer or accepts while naming v1, Dial must
// fail with ErrHandshake after one handshake, with no retry spin.
func TestDialFailsFastOnVersionMismatch(t *testing.T) {
	for _, status := range []uint8{wireproto.HelloVersionMismatch, wireproto.HelloOK} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var hellos atomic.Int64
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if _, err := wireproto.ReadHello(conn); err == nil {
					hellos.Add(1)
					reply := binary.LittleEndian.AppendUint16([]byte(wireproto.Magic), 1)
					_, _ = conn.Write(binary.LittleEndian.AppendUint32(append(reply, status), 0))
				}
				conn.Close()
			}
		}()
		_, err = wireclient.Dial(wireclient.Options{Addr: ln.Addr().String()})
		ln.Close()
		if !errors.Is(err, wireclient.ErrHandshake) {
			t.Fatalf("status %d from a v1 server: got %v, want ErrHandshake", status, err)
		}
		if got := hellos.Load(); got != 1 {
			t.Fatalf("status %d from a v1 server: %d handshakes, want 1 (no retries)", status, got)
		}
	}
}
