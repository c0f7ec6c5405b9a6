package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// goldenPath is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenPath = "perfbench/golden/fig12-smoke.json"

//go:embed golden/fig12-smoke.json
var goldenJSON []byte

// simGolden is sim-fig12's expected output: the hash of the rendered
// fig12 table and the simulator's exact event and decision counts.
type simGolden struct {
	TableSHA256     string `json:"table_sha256"`
	EngineEvents    int64  `json:"engine_events"`
	OffloadsBoosted int64  `json:"offloads_boosted"`
	Rejections      int64  `json:"rejections"`
	Fragments       int64  `json:"fragments"`
}

// simRun is one fig12 run at smoke scale.
type simRun struct {
	wall   time.Duration
	hash   string
	counts simGolden // zero unless the run had metrics on
	hddMS  float64   // mean simulated HDD service time (metrics on)
}

// runFig12 runs fig12 at s, with the obs registry armed when metrics is
// set, and hashes its rendered table.
func runFig12(s experiments.Scale, metrics bool) (simRun, error) {
	var set *obs.Set
	if metrics {
		set = obs.New(obs.Config{Metrics: true})
	}
	experiments.SetObs(set)
	defer experiments.SetObs(nil)
	t0 := time.Now()
	tbl, err := experiments.Run("fig12", s)
	r := simRun{wall: time.Since(t0)}
	if err != nil {
		return r, err
	}
	sum := sha256.Sum256([]byte(tbl.Render()))
	r.hash = hex.EncodeToString(sum[:])
	r.counts.TableSHA256 = r.hash
	if reg := set.Registry(); reg != nil {
		r.counts.EngineEvents = reg.Counter("engine.events").Value()
		r.counts.OffloadsBoosted = reg.Counter("bridge.offloads_boosted").Value()
		r.counts.Rejections = reg.Counter("bridge.rejections").Value()
		r.counts.Fragments = reg.Counter("pfs.fragments").Value()
		svc := reg.Hist("hdd.service_ms").Snapshot()
		r.hddMS = svc.Mean()
	}
	return r, nil
}

// simBytes is the simulated application data one fig12 run moves: its
// 4 partition configs × 5 seeds each run mpi-io-test and BTIO.
func simBytes(s experiments.Scale) float64 {
	return 20 * float64(s.MPIIOBytes+s.BTIOBytes)
}

// warmScale is fig12 at 1/8 of smoke's data volume: the set-up runs it
// so page faults and heap growth land before the timed phase.
func warmScale() experiments.Scale {
	s := experiments.Smoke
	s.MPIIOBytes /= 8
	s.BTIOBytes /= 8
	s.BTIOCompute /= 8
	return s
}

// updateGolden runs fig12 once with metrics on and rewrites the golden
// file.
func updateGolden() error {
	runner.SetJobs(callers)
	r, err := runFig12(experiments.Smoke, true)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// runSim runs fig12 back to back for the timed phase. Every run's table
// hash must match the golden one; with -trace 1 the second half of the
// phase runs with the obs registry on and every run's counts must match
// the golden counts exactly.
func runSim(cfg config) (*outcome, error) {
	var golden simGolden
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	runner.SetJobs(callers)
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if _, err := runFig12(warmScale(), false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		runtime.GC()
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)

	// check runs fig12 until d has passed (at least once) and verifies
	// every run.
	check := func(d time.Duration, metrics bool) []simRun {
		var runs []simRun
		start := time.Now()
		for len(runs) == 0 || time.Since(start) < d {
			r, err := runFig12(experiments.Smoke, metrics)
			out.attempted++
			switch {
			case err != nil:
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: fig12: %v\n", err)
			case r.hash != golden.TableSHA256:
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: fig12 table hash %s, golden %s\n", r.hash, golden.TableSHA256)
			case metrics && r.counts != golden:
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: fig12 counts %+v, golden %+v\n", r.counts, golden)
			}
			runs = append(runs, r)
		}
		return runs
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := readCPU()
	plain := check(d, false)
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	m["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(plain))
	m["runtime.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)

	var wallUS []float64
	var total time.Duration
	for _, r := range plain {
		wallUS = append(wallUS, float64(r.wall)/1e3)
		total += r.wall
	}
	m["throughput_MBps"] = simBytes(experiments.Smoke) * float64(len(plain)) / mb / total.Seconds()
	// A fig12 run is this workload's only operation: both latency
	// families time it.
	for _, fam := range []string{"read", "write"} {
		m[fam+"_p50_us"] = quantile(wallUS, 0.5)
		m[fam+"_p90_us"] = quantile(wallUS, 0.9)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["live_heap_MB"] = float64(ms1.HeapAlloc) / mb

	if cfg.trace {
		obsRuns := check(d, true)
		var onUS []float64
		for _, r := range obsRuns {
			onUS = append(onUS, float64(r.wall)/1e3)
		}
		last := obsRuns[len(obsRuns)-1]
		m["sim.engine.events"] = float64(last.counts.EngineEvents)
		m["sim.engine.events_per_s"] = float64(last.counts.EngineEvents) / (median(onUS) / 1e6)
		m["core.bridge.offloads_boosted"] = float64(last.counts.OffloadsBoosted)
		m["core.bridge.rejections"] = float64(last.counts.Rejections)
		m["pfs.fragments"] = float64(last.counts.Fragments)
		m["hdd.service_ms_mean"] = last.hddMS
		m["trace.overhead_share"] = 1 - median(wallUS)/median(onUS)
	}
	return out, nil
}
