// Command perfbench is the repository benchmark: four closed-loop
// workloads over the live pfsnet stack and the simulator, each printing
// its end-to-end metrics (or, with -trace 1, its per-layer metrics) and
// checking every byte it reads back.
//
//	bash perfbench/run.sh --workload unaligned-rw --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs are wrong,
// or whose workload sanity gates fail, prints that line with correct
// false and exits 1. BENCHMARK.md in this directory documents the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// endToEnd and perLayer name every metric this benchmark prints, with
// its unit. The end-to-end set is printed with -trace 0, the per-layer
// set with -trace 1; a per-layer metric that does not apply to a
// workload reads 0.
var (
	endToEnd = []metricDef{
		{"throughput_MBps", "MB/s"},
		{"read_p50_us", "us"},
		{"read_p90_us", "us"},
		{"write_p50_us", "us"},
		{"write_p90_us", "us"},
		{"setup_s", "s"},
		{"live_heap_MB", "MB"},
	}
	perLayer = []metricDef{
		{"fail_share", "share"},
		{"stripe.subreqs_per_op", "count"},
		{"stripe.flagged_share", "share"},
		{"stripe.decompose_ns", "ns"},
		{"pfsnet.client.read_p99_us", "us"},
		{"pfsnet.client.write_p99_us", "us"},
		{"pfsnet.client.retries", "count"},
		{"pfsnet.wire.frames_per_op", "count"},
		{"pfsnet.wire.bytes_per_user_byte", "ratio"},
		{"pfsnet.wire.writev_frames_per_call", "count"},
		{"pfsnet.server.queue_wait_p50_us", "us"},
		{"pfsnet.bridge.fragment_write_share", "share"},
		{"pfsnet.bridge.overlay_reads_per_read", "count"},
		{"pfsnet.bridge.log_bytes_per_flushed_byte", "ratio"},
		{"pfsnet.bridge.flush_ms", "ms"},
		{"store.read_us", "us"},
		{"store.write_us", "us"},
		{"store.busy_share", "share"},
		{"logstore.write_amp", "ratio"},
		{"logstore.space_amp", "ratio"},
		{"logstore.compaction_runs", "count"},
		{"logstore.checkpoints", "count"},
		{"logstore.reopen_s", "s"},
		{"sim.engine.events", "count"},
		{"sim.engine.events_per_s", "1/s"},
		{"core.bridge.offloads_boosted", "count"},
		{"core.bridge.rejections", "count"},
		{"pfs.fragments", "count"},
		{"hdd.service_ms_mean", "ms"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_share", "share"},
		{"trace.server_queue_wait_us", "us"},
		{"trace.server_dispatch_us", "us"},
		{"trace.server_respond_us", "us"},
		{"trace.bridge_us", "us"},
		{"trace.client_wire_us", "us"},
		{"trace.overhead_share", "share"},
	}
)

type metricDef struct{ name, unit string }

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch space for log-store directories
}

// outcome is one workload run: operations attempted and failed (errors
// plus verification mismatches), sanity-gate violations, and metric
// values keyed by name.
type outcome struct {
	attempted, failed int64
	gates             []string
	metrics           map[string]float64
}

func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"unaligned-rw", func(c config) (*outcome, error) { return runLive(unalignedRW, c) }},
	{"aligned-stream", func(c config) (*outcome, error) { return runLive(alignedStream, c) }},
	{"log-overwrite", func(c config) (*outcome, error) { return runLive(logOverwrite, c) }},
	{"sim-fig12", runSim},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	dir := flag.String("dir", os.TempDir(), "scratch directory for log-store files")
	update := flag.Bool("update-golden", false, "rewrite the sim-fig12 golden file instead of checking it")
	flag.Parse()

	if *update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s or all, -seconds > 0, -trace 0|1\n", names())
		os.Exit(2)
	}

	total := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		out, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res := report(w.name, cfg, out)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// report prints one workload's metrics by name with their units and
// returns its result object.
func report(name string, cfg config, out *outcome) jsonResult {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if out.attempted > 0 {
		out.metrics["fail_share"] = float64(out.failed) / float64(out.attempted)
	}
	res := jsonResult{
		Correct:   out.failed == 0 && len(out.gates) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t attempted=%d failed=%d\n",
		name, cfg.seed, cfg.seconds, cfg.trace, out.attempted, out.failed)
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("  %-42s %16.6f %s\n", d.name, v, d.unit)
	}
	for _, g := range out.gates {
		fmt.Printf("  GATE FAILED: %s\n", g)
	}
	return res
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
