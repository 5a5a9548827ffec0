// Command bench is the repository benchmark: it serves the real
// production handler in-process on a loopback listener, drives it open
// loop from a seeded op plan over two connections, runs the offline
// n = 10⁶ simulation path, checks every output, and prints each metric
// with its unit. The last line of standard output is a JSON summary.
//
//	go run . --workload churn-mem --seed 1 --seconds 20 --trace 0
//
// See README.md for the method and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// endToEnd lists the metrics an untraced run reports, on every
// workload; perLayer those a traced run reports.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
	{name: "round_p50_ms", unit: "ms"},
	{name: "round_tail_ms", unit: "ms"},
	{name: "sat_ops_s", unit: "1/s"},
}

var perLayer = []metric{
	{name: "bench.gen_lag_ms.p50", unit: "ms"},
	{name: "bench.gen_lag_ms.p99", unit: "ms"},
	{name: "bench.conn_wait_ms.p99", unit: "ms"},
	{name: "server.http_floor_us", unit: "us"},
	{name: "server.store.lookup_ns", unit: "ns"},
	{name: "server.store.recover_s", unit: "s"},
	{name: "server.wal.join_append_us", unit: "us"},
	{name: "server.wal.round_append_us", unit: "us"},
	{name: "round.ingress_ms.p50", unit: "ms"},
	{name: "round.ingress_ms.p99", unit: "ms"},
	{name: "matchmaker.attempts_per_round", unit: "count"},
	{name: "dygroups.group_ms.p50", unit: "ms"},
	{name: "dygroups.group_ms.p99", unit: "ms"},
	{name: "core.apply_ms.p50", unit: "ms"},
	{name: "core.run_self_ms.p50", unit: "ms"},
	{name: "round.egress_ms.p50", unit: "ms"},
	{name: "round.egress_ms.p99", unit: "ms"},
	{name: "process.cpu_us_per_op", unit: "us"},
	{name: "process.allocs_per_op", unit: "count"},
	{name: "process.alloc_bytes_per_op", unit: "B"},
	{name: "process.gc_cpu_fraction", unit: "ratio"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.ambiguous_rounds", unit: "count"},
}

var workloads = []string{"churn-mem", "churn-wal", "rounds-large", "offline-1m"}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func run(workload string, cfg runConfig, traced bool) (*result, error) {
	// One P more than CPUs: the load generator's goroutines then never
	// wait for a P behind CPU-bound handlers and the garbage collector,
	// which at GOMAXPROCS = CPUs made the dispatcher run up to tens of
	// milliseconds late on rounds-large. The OS shares the CPUs among the
	// threads, as it would between a server and a separate client.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	for _, spec := range servingSpecs {
		if spec.name == workload {
			return runServing(spec, cfg, traced)
		}
	}
	if workload == "offline-1m" {
		return runOffline(cfg, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", workload, workloads)
}

// checkDeclared requires a run to report exactly the declared metrics,
// with their declared units.
func checkDeclared(res *result, declared []metric) error {
	got := make(map[string]string, len(res.metrics))
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m.unit
	}
	for _, m := range declared {
		unit, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
		if unit != m.unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", m.name, unit, m.unit)
		}
	}
	if len(got) != len(declared) {
		return fmt.Errorf("%d metrics reported, %d declared", len(got), len(declared))
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: churn-mem, churn-wal, rounds-large or offline-1m")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spans := flag.String("spans", "", "directory a traced run writes its spans to")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed:          *seed,
		measure:       time.Duration(*seconds) * time.Second,
		warm:          2 * time.Second,
		setups:        9,
		offlineN:      1_000_000,
		offlineWarm:   2,
		offlineTraced: 10,
		tmp:           os.TempDir(),
		spans:         *spans,
	}
	res, err := run(*workload, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
	}
	if err := checkDeclared(res, declared); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out := summary{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(res.metrics)),
	}
	fmt.Printf("workload %s, seed %d, %ds measured, trace %d\n", *workload, *seed, *seconds, *trace)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, p := range res.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-32s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
