// Command sqbench is the Squirrel benchmark. It drives one of three
// seeded workloads through the surfaces an operator uses — ctlplane.Local
// and core.Squirrel in-process, or squirreld over loopback through
// daemon.New and wireclient — checks that every output is correct, and
// prints its metrics by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	sqbench --workload boot-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separately traced run reports the per-layer metrics: it runs the
// workload untraced and then traced, half the seconds each, and compares
// the two for bench.trace_overhead_pct. README.md records
// why each workload exists and which end-to-end metric each layer metric
// should move. run.sh builds it from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int // deployments built; setup_s is the median of their times
	workers  int // executor goroutines: GOMAXPROCS, at most nproc
}

// metric is one reported number. kind is its provenance: "measured"
// (wall time, CPU or heap on this host) or "counted" (exact bytes,
// blocks or ops). n is the sample count behind it (0: one reading).
type metric struct {
	name  string
	value float64
	unit  string
	kind  string
	n     int
}

// result is what a workload run hands back to main.
type result struct {
	mu                sync.Mutex // ops run on several executors
	attempted, failed int
	violations        []string
	report            []metric          // every end-to-end metric the workload measures, by its own name
	e2e               map[string]metric // the BENCHMARK.json end-to-end set
	layers            map[string]metric // the per-layer set (traced run)
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) violate(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// op books one attempted op and its error, if any, as a failure and a
// violation. It reports whether the op succeeded.
func (r *result) op(err error) bool {
	if err != nil {
		r.violate("%v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err == nil
}

func (r *result) add(m metric) { r.report = append(r.report, m) }

// gated reports m in the end-to-end set.
func (r *result) gated(m metric) {
	r.add(m)
	r.e2e[m.name] = m
}

// gatedAs reports m under its own name and, in the end-to-end set, as
// gate.
func (r *result) gatedAs(m metric, gate string) {
	r.add(m)
	m.name = gate
	r.e2e[gate] = m
}

func (r *result) layer(name string, v float64, n int) {
	m := layerMetric(name)
	m.value, m.n = v, n
	r.layers[name] = m
}

// spanLayers reports the median of each named span as the per-layer
// metric <name>_us.
func (r *result) spanLayers(tr *tracer, names ...string) {
	for _, s := range names {
		ds := tr.durs(s)
		r.layer(s+"_us", us(quantile(ds, 0.5)), len(ds))
	}
}

// e2eNames is the end-to-end set every workload reports, in output
// order. Each is meaningful on all three workloads; "op" is the
// workload's foreground operation: a boot timed from its due time on
// boot-warm and flash-crowd, a registration on register-churn. "slow op"
// is its costliest kind: a boot with every executor busy (boot-warm's
// capacity phase), a step that runs the daily GC (register-churn), a
// cold boot served by a peer (flash-crowd).
// README.md maps them to the per-workload names.
var e2eNames = []struct{ name, unit string }{
	{"op_p50_quiet_ms", "ms"},
	{"slow_op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"replica_disk_mb", "MB"},
	{"replica_ddt_mem_kb", "KB"},
	{"wire_bytes_per_register", "B"},
}

var bg = context.Background()

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "boot-warm", "workload: boot-warm, register-churn or flash-crowd")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every arrival, Zipf draw and cold-node pick derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sqbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.workers = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	cfg.setups = setupReps

	var wl func(config, *tracer) (*result, error)
	switch cfg.workload {
	case "boot-warm":
		wl = runBootWarm
	case "register-churn":
		wl = runRegisterChurn
	case "flash-crowd":
		wl = runFlashCrowd
	default:
		fmt.Fprintf(os.Stderr, "sqbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	printHeader(cfg)
	if !cfg.trace {
		res, err := wl(cfg, newTracer(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqbench:", err)
			return 1
		}
		return printResult(cfg, res)
	}
	// The traced run: the same seed's workload untraced, then traced, on
	// one deployment each and half the seconds each. setup_s is not
	// reported, so each builds its deployment once.
	half := cfg
	half.seconds, half.setups = max(cfg.seconds/2, 1), 1
	base, err := wl(half, newTracer(false))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqbench:", err)
		return 1
	}
	res, err := wl(half, newTracer(true))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqbench:", err)
		return 1
	}
	traceOverhead(res, base)
	return printResult(cfg, res)
}

// traceOverhead reports what tracing costs end to end: the traced
// pass's op_p50_quiet_ms and cpu_ms_per_op against the untraced pass's.
// It folds the untraced pass's ops and violations into res, since the
// gate covers both.
func traceOverhead(res, base *result) {
	res.attempted += base.attempted
	res.failed += base.failed
	res.violations = append(res.violations, base.violations...)
	for _, o := range []struct{ layer, e2e string }{
		{"bench.trace_overhead_pct", "op_p50_quiet_ms"},
		{"bench.trace_cpu_overhead_pct", "cpu_ms_per_op"},
	} {
		if b := base.e2e[o.e2e].value; b > 0 {
			res.layer(o.layer, 100*(res.e2e[o.e2e].value/b-1), res.e2e[o.e2e].n)
		}
	}
}

func printHeader(cfg config) {
	host, _ := os.Hostname()
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	fmt.Printf("# sqbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host=%s nproc=%d gomaxprocs=%d executors=%d go=%s %s/%s git=%s date=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(),
		runtime.GOOS, runtime.GOARCH, sha, time.Now().UTC().Format(time.RFC3339))
}

func printLine(m metric, note string) {
	n := ""
	if m.n > 0 {
		n = fmt.Sprintf("n=%d", m.n)
	}
	fmt.Printf("%-30s %14.4f %-6s %-8s %-8s %s\n", m.name, m.value, m.unit, m.kind, n, note)
}

// printResult prints every metric with its unit, provenance and sample
// count, then the JSON line. Any correctness violation fails the run.
func printResult(cfg config, res *result) int {
	for i, v := range res.violations {
		if i == 20 {
			fmt.Printf("# ... %d violations in all\n", len(res.violations))
			break
		}
		fmt.Println("# VIOLATION:", v)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	if cfg.trace {
		fmt.Println("# per-layer metrics (traced run); 0 where the workload does not exercise the layer")
		for _, l := range layerCatalog {
			m, ok := res.layers[l.name]
			if !ok {
				m = layerMetric(l.name)
			}
			printLine(m, "-> "+l.moves)
			out[m.name] = jm{m.value, m.unit}
		}
	} else {
		fmt.Println("# end-to-end metrics (tracing off)")
		for _, m := range res.report {
			printLine(m, "")
		}
		fmt.Println("# end-to-end set, as gated")
		for _, e := range e2eNames {
			m, ok := res.e2e[e.name]
			if !ok || m.unit != e.unit {
				res.violate("end-to-end metric %s missing or not in %s", e.name, e.unit)
				continue
			}
			printLine(m, "")
			out[m.name] = jm{m.value, m.unit}
		}
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	printLine(metric{name: "failed_frac", value: frac, unit: "ratio", kind: "counted", n: res.attempted}, "")
	correct := len(res.violations) == 0 && res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
