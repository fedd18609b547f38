package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/wireclient"
)

// runMain invokes the CLI entry point in-process and captures both
// streams plus the exit code — the whole observable surface of one
// squirrelctl invocation.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

// startDaemon brings up a fresh squirreld over a fresh deployment and
// returns its address. Every invocation that registers images needs its
// own daemon: Register is not idempotent, so a second run against the
// same deployment would fail with ErrRegistered.
func startDaemon(t *testing.T, opts ctlplane.Options) string {
	t.Helper()
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.New(local, daemon.Config{Addr: "127.0.0.1:0", Tel: local.Squirrel().Telemetry()})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv.Addr().String()
}

// The workload summary isolates wall cost on one line by contract.
var wallRE = regexp.MustCompile(`(?m)^  wall .*$`)

// goldenCase is one squirrelctl invocation and the section lines its
// report must print.
type goldenCase struct {
	name string
	args []string // subcommand first; the deployment flags go after it
	want []string
}

// checkGolden runs one case with extra flags inserted right after the
// subcommand, and checks that it exits 0 and prints every wanted line.
func checkGolden(t *testing.T, tc goldenCase, extra ...string) string {
	t.Helper()
	args := append(append([]string{tc.args[0]}, extra...), tc.args[1:]...)
	out, errOut, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut)
	}
	for _, want := range tc.want {
		if !strings.Contains(out, want) {
			t.Fatalf("%v output is missing %q:\n%s", args, want, out)
		}
	}
	return out
}

var (
	goldenBase = []string{
		"registering 6 images on a 4-node cluster...",
		"total diff traffic:",
		"booting ",
		" boots done; compute-node network traffic:",
		"deployment stats:",
		"per-node replica cost:",
		"garbage collection destroyed ",
	}
	goldenPeers  = []string{"peer exchange on; dropped ", "peer content index:", "index source: central"}
	goldenHealth = []string{"--- health drama: crash node00, rot node01 ---", "scrubbing all replicas...", "resilvering damaged replicas...", "restarted after"}
)

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestGoldenSubcommands runs every subcommand in-process and checks that
// each exits 0 and prints the section lines its report is made of.
func TestGoldenSubcommands(t *testing.T) {
	base, peers, health := goldenBase, goldenPeers, goldenHealth
	cases := []goldenCase{
		{"run", []string{"run"}, base},
		{"offline", []string{"run", "-offline", "node02"},
			cat(base, []string{"node02 goes OFFLINE", "node02 back online: incremental sync"})},
		{"vms-noverify", []string{"run", "-vms", "3", "-verify=false"},
			cat(base, []string{"booting 3 VMs per node", "12 boots done"})},
		{"peers", []string{"peers"}, cat(base, peers)},
		{"gossip", []string{"run", "-index", "gossip"},
			cat(base, []string{"peer content index:", "index source: gossip"})},
		{"health", []string{"health"}, cat(base, health)},
		{"health-peers", []string{"health", "-peers"}, cat(base, peers, health)},
		{"telemetry", []string{"telemetry"}, cat(base, peers, health, []string{
			"--- telemetry snapshot (JSON) ---", "--- telemetry snapshot (Prometheus text) ---",
			`squirrel_op_total{kind="boot"} 8`})},
		{"trace", []string{"trace", "boot"}, cat(base, []string{`--- slowest "boot" operation ---`, "\nboot node="})},
		{"watch", []string{"watch", "-n", "2", "-interval", "10ms"}, cat(base, []string{"watch #1", "watch #2"})},
		{"workload", []string{"workload", "-boots", "200"}, []string{
			"workload: poisson arrivals, 200 boots across 4 nodes / 6 images",
			"workload summary: poisson arrivals, logical clock, central index", "p99.9"}},
		{"version", []string{"version"}, []string{"wire protocol v"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var extra []string
			if tc.name != "version" {
				extra = []string{"-images", "6", "-nodes", "4"}
			}
			out := checkGolden(t, tc, extra...)
			if tc.name == "watch" {
				if n := strings.Count("\n"+out, "\nwatch #"); n != 2 {
					t.Fatalf("watch streamed %d updates, want 2:\n%s", n, out)
				}
			}
		})
	}
}

// TestGoldenDaemonMode runs peers, health and trace against a fresh
// squirreld each (Register is not idempotent across runs) and checks the
// same section lines as in-process, plus the daemon's session spans.
func TestGoldenDaemonMode(t *testing.T) {
	cases := []goldenCase{
		{"peers", []string{"peers"}, cat(goldenBase, goldenPeers)},
		{"health", []string{"health", "-peers"}, cat(goldenBase, goldenPeers, goldenHealth)},
		{"trace", []string{"trace", "boot"}, cat(goldenBase, []string{`--- slowest "boot" operation ---`, obs.OpSession, obs.OpDispatch})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := startDaemon(t, ctlplane.Options{Images: 6, Nodes: 4, Peers: true, Traced: true})
			checkGolden(t, tc, "-addr", addr)
		})
	}
}

// TestWorkloadCLIDeterminism: same seed, two invocations over fresh
// deployments — identical stdout once the wall-cost line (the one
// nondeterministic line, by the summary's contract) is stripped.
func TestWorkloadCLIDeterminism(t *testing.T) {
	args := []string{"workload", "-images", "8", "-nodes", "32", "-boots", "3200", "-arrivals", "flash", "-seed", "42"}
	out1, err1, code1 := runMain(t, args...)
	out2, _, code2 := runMain(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d/%d (stderr: %s)", code1, code2, err1)
	}
	a := wallRE.ReplaceAllString(out1, "  wall <scrubbed>")
	b := wallRE.ReplaceAllString(out2, "  wall <scrubbed>")
	if a != b {
		t.Fatalf("same seed produced different summaries:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	if !wallRE.MatchString(out1) {
		t.Fatalf("summary is missing the wall-cost line:\n%s", out1)
	}
	for _, want := range []string{"flash arrivals", "32 nodes, 8 images", "3200 scheduled", "p99.9"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("summary missing %q:\n%s", want, out1)
		}
	}
}

// TestWorkloadCLIDefaultBoots: -boots 0 resolves to 100 per node.
func TestWorkloadCLIDefaultBoots(t *testing.T) {
	out, errOut, code := runMain(t, "workload", "-images", "4", "-nodes", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "800 boots across 8 nodes") || !strings.Contains(out, "800 scheduled") {
		t.Fatalf("default boots should be 100×nodes:\n%s", out)
	}
}

// TestWorkloadCLIOverWire drives the workload subcommand against a live
// squirreld: the scenario runs on the daemon, only the summary comes
// back, and the output matches the in-process spelling apart from wall
// cost.
func TestWorkloadCLIOverWire(t *testing.T) {
	addr := startDaemon(t, ctlplane.Options{Images: 8, Nodes: 32, Peers: true})
	wireOut, wireErr, wireCode := runMain(t,
		"workload", "-addr", addr, "-boots", "3200", "-arrivals", "flash", "-seed", "42")
	if wireCode != 0 {
		t.Fatalf("exit %d: %s", wireCode, wireErr)
	}
	localOut, _, localCode := runMain(t,
		"workload", "-images", "8", "-nodes", "32", "-boots", "3200", "-arrivals", "flash", "-seed", "42")
	if localCode != 0 {
		t.Fatalf("local exit %d", localCode)
	}
	a := wallRE.ReplaceAllString(wireOut, "")
	b := wallRE.ReplaceAllString(localOut, "")
	if a != b {
		t.Fatalf("wire and in-process workload summaries differ:\n--- wire ---\n%s\n--- local ---\n%s", wireOut, localOut)
	}
}

// TestExitCodes walks the documented exit-code table end to end through
// Main — the contract scripts depend on.
func TestExitCodes(t *testing.T) {
	t.Run("unknown-node-subcommand", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-images", "4", "-nodes", "4", "-offline", "nope"); code != exitUnknownNode {
			t.Fatalf("exit %d, want %d", code, exitUnknownNode)
		}
	})
	t.Run("unreachable-daemon", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-addr", "127.0.0.1:1"); code != exitConnect {
			t.Fatalf("exit %d, want %d", code, exitConnect)
		}
	})
	t.Run("unknown-subcommand", func(t *testing.T) {
		_, errOut, code := runMain(t, "frobnicate")
		if code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
		if !strings.Contains(errOut, "unknown command") || !strings.Contains(errOut, "usage: squirrelctl <command>") {
			t.Fatalf("unknown command should print the root usage:\n%s", errOut)
		}
	})
	t.Run("bad-flag", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-no-such-flag"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("flag-instead-of-command", func(t *testing.T) {
		for _, args := range [][]string{{"-peers"}, {"-images", "4", "-offline", "nope"}, nil} {
			out, errOut, code := runMain(t, args...)
			if code != exitUsage || out != "" || !strings.HasPrefix(errOut, "usage: squirrelctl <command>") {
				t.Fatalf("%v: exit %d, stdout %q; want exit %d with the root usage on stderr:\n%s",
					args, code, out, exitUsage, errOut)
			}
		}
	})
	t.Run("trace-needs-kind", func(t *testing.T) {
		if _, _, code := runMain(t, "trace"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("watch-needs-positive-n", func(t *testing.T) {
		if _, _, code := runMain(t, "watch", "-n", "0"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("help", func(t *testing.T) {
		out, _, code := runMain(t, "help")
		if code != 0 || !strings.Contains(out, "workload") {
			t.Fatalf("help: exit %d, out:\n%s", code, out)
		}
	})
}

// TestExitCodeMapping covers the sentinel→code table directly,
// including the families a CLI invocation cannot easily trigger.
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{core.ErrUnknownImage, exitUnknownImage},
		{core.ErrUnknownNode, exitUnknownNode},
		{core.ErrNodeOffline, exitNodeOffline},
		{core.ErrOverloaded, exitOverloaded},
		{wireclient.ErrConnect, exitConnect},
		{wireclient.ErrHandshake, exitConnect},
		{fmt.Errorf("wrapped: %w", core.ErrOverloaded), exitOverloaded},
		{fmt.Errorf("plain failure"), exitFailure},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestRootUsageListsEveryCommand keeps the usage text in sync with the
// command table.
func TestRootUsageListsEveryCommand(t *testing.T) {
	out, _, _ := runMain(t, "help")
	var names []string
	for _, c := range commands {
		names = append(names, c.name)
		if !strings.Contains(out, "  "+c.name) {
			t.Errorf("root usage is missing command %q", c.name)
		}
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if len(names) != 8 {
		t.Errorf("command table has %d entries, want 8: %v", len(names), names)
	}
}
