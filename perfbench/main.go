// Command perfbench drives the Kondo library from outside, the way a
// user of its packages would, and prints one JSON result line. Each
// workload runs in its own process (see run.py), so peak memory is that
// workload's own. WORKLOADS.md records what each workload runs and why.
//
//	go run . --workload debloat-ard --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// without tracing; with --trace 1 it carries the per-layer metrics of a
// separate traced run, whose spans are also written to --spans.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run collects one workload's metrics and correctness verdicts.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	spans   string
	led     *ledger // nil in the untraced run

	res      result
	problems []string
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness failure unless ok holds.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its
// order; a run must report exactly one of the two lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"debloat_s", "s"},
	{"debloat_cpu_s", "s"},
	{"recall", "ratio"},
	{"precision", "ratio"},
	{"kept_bytes_ratio", "ratio"},
	{"valuation_ok_ratio", "ratio"},
	{"reads_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"carve.s", "s"},
	{"carve.points", "count"},
	{"carve.cells", "count"},
	{"carve.merge_passes", "count"},
	{"carve.merges", "count"},
	{"carve.pair_tests", "count"},
	{"carve.prune_hits", "count"},
	{"carve.hulls", "count"},
	{"carve.raster_point_tests", "count"},
	{"carve.raster_runs", "count"},
	{"trace.run_s", "s"},
	{"trace.resolve_s", "s"},
	{"trace.events", "count"},
	{"trace.events_per_eval", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"fuzz.run_s", "s"},
	{"fuzz.evals", "count"},
	{"fuzz.evals_per_s", "1/s"},
	{"fuzz.useful_ratio", "ratio"},
	{"fuzz.dedup_skips", "count"},
	{"fuzz.eval_busy_s", "s"},
	{"fuzz.sched_s", "s"},
	{"workload.eval_us", "us"},
	{"debloat.write_s", "s"},
	{"debloat.kept_bytes", "B"},
	{"debloat.kept_read_p50_us", "us"},
	{"debloat.recovered_read_p50_us", "us"},
	{"debloat.recovered_read_p99_us", "us"},
	{"debloat.misses", "count"},
	{"runtime.alloc_bytes_per_read", "B"},
	{"runtime.allocs_per_read", "count"},
	{"runtime.gc_cycles", "count"},
	{"dataserve.round_trips", "count"},
	{"dataserve.cache_hit_ratio", "ratio"},
	{"dataserve.flight_shared", "count"},
	{"dataserve.retries", "count"},
	{"dataserve.verify_ok", "count"},
	{"dataserve.verify_failed", "count"},
	{"dataserve.verified_read_ratio", "ratio"},
	{"dataserve.server_p50_us", "us"},
	{"dataserve.server_p99_us", "us"},
	{"dataserve.frame_bytes", "B"},
	{"self.fuzz_share", "ratio"},
	{"self.eval_share", "ratio"},
	{"self.carve_share", "ratio"},
	{"self.write_share", "ratio"},
	{"self.read_share", "ratio"},
	{"self.fetch_share", "ratio"},
	{"self.serve_share", "ratio"},
	{"bench.unattributed_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.clock_ns", "ns"},
}

var workloads = map[string]func(*run) error{
	"debloat-ard":   debloatARD,
	"debloat-audit": debloatAudit,
	"recover-hot":   recoverHot,
	"recover-miss":  recoverMiss,
}

func main() {
	name := flag.String("workload", "", "workload to run: debloat-ard, debloat-audit, recover-hot, recover-miss")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	dir := flag.String("dir", "", "scratch directory for the workload's files (required)")
	spans := flag.String("spans", "", "file the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *dir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (one of debloat-ard, debloat-audit, recover-hot, recover-miss), --dir, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		dir:     *dir,
		spans:   *spans,
		res:     result{Metrics: make(map[string]metric)},
	}
	want := endToEnd
	if r.traced {
		r.led = newLedger()
		want = perLayer
		// A layer the workload bypasses reports zero.
		for _, m := range perLayer {
			r.set(m.name, 0, m.unit)
		}
		r.set("bench.clock_ns", clockNs(), "ns")
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !r.traced {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if r.traced && r.spans != "" {
		if err := writeSpans(r.spans, r.led); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: writing spans: %v\n", *name, err)
			os.Exit(1)
		}
	}
	for _, m := range want {
		got, ok := r.res.Metrics[m.name]
		r.check(ok && got.Unit == m.unit, "metric %s missing or not in %s", m.name, m.unit)
	}
	r.check(len(r.res.Metrics) == len(want), "%d metrics reported, want %d", len(r.res.Metrics), len(want))
	r.res.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	for k, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", *name, k, m.Value)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quiesce collects garbage so that one repeat's garbage is not
// collected on the next one's time.
func quiesce() { runtime.GC() }

// clockNs measures the cost of one time.Now + time.Since pair, the
// per-sample overhead of every clocked latency this benchmark reports.
func clockNs() float64 {
	const n = 200000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ledgerMetrics reports each layer's self time as a share of the wall
// time of the root spans named root, and the share no layer covers.
func ledgerMetrics(r *run, root string) {
	shares, unattributed := r.led.selfShares(root)
	for _, ly := range layers {
		r.set("self."+ly.name+"_share", shares[ly.name], "ratio")
	}
	r.set("bench.unattributed_ratio", unattributed, "ratio")
}

// writeSpans writes the ledger's spans as JSON lines: name, start and
// end in nanoseconds from the run's start, parent span, request id.
func writeSpans(path string, l *ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range l.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
			i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
