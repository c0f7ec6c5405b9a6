package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/pfsnet"
	"repro/internal/stripe"
)

const (
	// callers is the number of closed-loop caller goroutines: the 2-core
	// host's nproc, each like an MPI rank waiting on its own I/O.
	callers  = 2
	nServers = 4
	// fragThreshold is the iBridge client's fragment and random-request
	// threshold, and the threshold the stripe replay flags with on every
	// live workload.
	fragThreshold = 20 << 10
	// payloadPool is the pre-generated random bytes that write payloads
	// are sliced from.
	payloadPool = 8 << 20
	// setupRuns is how many times a trace-0 run sets up; it reports the
	// median set-up time and keeps the last set-up.
	setupRuns = 5
	// traceEvents bounds each process's span buffer in the traced run.
	traceEvents = 1 << 21
	mb          = 1e6
)

// op is one pre-generated caller operation on the shared file.
type op struct {
	write bool
	off   int64 // file offset
	n     int   // length in bytes
	src   int   // payload pool offset (writes)
}

// liveSpec describes one workload over the in-process loopback cluster:
// one meta server and nServers data servers with a 64 KB striping unit.
type liveSpec struct {
	name     string
	bridge   bool  // data servers run the iBridge fragment log
	ibridge  bool  // NewIBridgeClient with fragThreshold, else NewClient
	logStore bool  // data servers run over logstore.LogStore, else MemStore
	fileSize int64 // prefilled file, split evenly into one region per caller
	// opsPerSec sizes the fixed op list: each caller runs
	// opsPerSec × -seconds ops, about -seconds of work on the 2-core
	// reference host at the commit that defined the benchmark. A fixed
	// amount of work keeps state that grows with it (the fragment log,
	// the log-store segments) comparable between commits.
	opsPerSec int
	// pairs: ops come as write + read-back of the same extent, and the
	// overrun deadline is only checked between pairs.
	pairs bool
	// flush: one Client.Flush after the timed phase, then every region
	// is read back in full.
	flush bool
	// gen appends the next op (or pair) for a caller whose region is
	// [lo, hi).
	gen func(r *rand.Rand, lo, hi int64, ops []op) []op
}

var unalignedRW = liveSpec{
	name: "unaligned-rw", bridge: true, ibridge: true,
	fileSize: 32 << 20, opsPerSec: 3600, pairs: true, flush: true,
	gen: func(r *rand.Rand, lo, hi int64, ops []op) []op {
		n := 4<<10 + r.Int63n(192<<10/512+1)*512 // 4..196 KB
		off := lo + r.Int63n((hi-lo-n)/512+1)*512
		src := r.Intn(payloadPool - int(n) + 1)
		return append(ops, op{write: true, off: off, n: int(n), src: src}, op{off: off, n: int(n)})
	},
}

var alignedStream = liveSpec{
	name:     "aligned-stream",
	fileSize: 32 << 20, opsPerSec: 800,
	gen: func(r *rand.Rand, lo, hi int64, ops []op) []op {
		const n = 1 << 20
		off := lo + r.Int63n((hi-lo-n)/stripe.DefaultUnit+1)*stripe.DefaultUnit
		return append(ops, op{write: r.Intn(2) == 0, off: off, n: n, src: r.Intn(payloadPool - n + 1)})
	},
}

// logOverwrite's hot region is the first quarter of each caller's
// region, so every data server's log turns over its live data many
// times a run and compaction cycles repeatedly.
var logOverwrite = liveSpec{
	name: "log-overwrite", logStore: true,
	fileSize: 32 << 20, opsPerSec: 12000,
	gen: func(r *rand.Rand, lo, hi int64, ops []op) []op {
		const n = 8 << 10
		hot := (hi - lo) / 4
		off := lo + r.Int63n((hot-n)/512+1)*512
		return append(ops, op{write: r.Intn(2) == 0, off: off, n: n, src: r.Intn(payloadPool - n + 1)})
	},
}

// logConfig is log-overwrite's store policy: a checkpoint (with fsync)
// every 4 MB of appended log, compaction past 0.5 garbage — the
// logstore defaults, spelled out.
func logConfig(scope string) logstore.Config {
	return logstore.Config{CheckpointBytes: 4 << 20, GarbageRatio: 0.5, Scope: scope}
}

// inputs are everything a live run feeds the program, generated from
// the seed before any timing starts.
type inputs struct {
	initial []byte // prefill content of the whole file
	pool    []byte // write payload bytes
	ops     [][]op // per caller
	maxOp   int
}

func genInputs(spec liveSpec, seed int64, seconds float64) inputs {
	r := rand.New(rand.NewSource(seed))
	in := inputs{initial: make([]byte, spec.fileSize), pool: make([]byte, payloadPool)}
	r.Read(in.initial)
	r.Read(in.pool)
	region := spec.fileSize / callers
	per := max(100, int(float64(spec.opsPerSec)*seconds))
	for c := 0; c < callers; c++ {
		lo := int64(c) * region
		ops := make([]op, 0, per+1)
		for len(ops) < per {
			ops = spec.gen(r, lo, lo+region, ops)
		}
		for _, o := range ops {
			in.maxOp = max(in.maxOp, o.n)
		}
		in.ops = append(in.ops, ops)
	}
	return in
}

// liveCluster is one running loopback cluster and its client.
type liveCluster struct {
	spec   liveSpec
	meta   *pfsnet.MetaServer
	data   []*pfsnet.DataServer
	logs   []*logstore.LogStore // log-overwrite's stores, in server order
	dir    string               // parent of the log-store directories
	timed  []*timedStore        // traced run only
	client *pfsnet.Client
	file   *pfsnet.File

	cliReg, srvReg *obs.Registry // traced run only
	cliTr          *obs.XTracer
	srvTr          []*obs.XTracer
}

// startCluster starts the servers, creates the file and prefills it
// with initial. traced arms the registries, tracers and store wrapper.
func startCluster(spec liveSpec, traced bool, scratch string, initial []byte) (lc *liveCluster, err error) {
	lc = &liveCluster{spec: spec}
	defer func() {
		if err != nil {
			lc.close()
			lc.removeDir()
		}
	}()
	if spec.logStore {
		if lc.dir, err = os.MkdirTemp(scratch, spec.name+"-"); err != nil {
			return lc, err
		}
	}
	if traced {
		lc.cliReg, lc.srvReg = obs.NewRegistry(), obs.NewRegistry()
		lc.cliTr = obs.NewXTracer("client", traceEvents)
	}
	addrs := make([]string, nServers)
	for i := range addrs {
		scope := fmt.Sprintf("srv%d", i)
		var st pfsnet.ObjectStore = pfsnet.NewMemStore()
		if spec.logStore {
			ls, err := logstore.Open(filepath.Join(lc.dir, scope), logConfig(scope))
			if err != nil {
				return lc, err
			}
			lc.logs = append(lc.logs, ls)
			st = ls
		}
		cfg := pfsnet.ServerConfig{Bridge: spec.bridge, Store: st}
		if traced {
			ts := &timedStore{inner: st}
			lc.timed = append(lc.timed, ts)
			cfg.Store = ts.wrap()
			cfg.Obs = lc.srvReg
			cfg.Tracer = obs.NewXTracer(scope, traceEvents)
			lc.srvTr = append(lc.srvTr, cfg.Tracer)
		}
		ds, err := pfsnet.NewDataServerConfig("127.0.0.1:0", cfg)
		if err != nil {
			st.Close()
			return lc, err
		}
		lc.data = append(lc.data, ds)
		addrs[i] = ds.Addr()
	}
	if lc.meta, err = pfsnet.NewMetaServer("127.0.0.1:0", stripe.DefaultUnit, addrs); err != nil {
		return lc, err
	}
	if spec.ibridge {
		lc.client = pfsnet.NewIBridgeClient(lc.meta.Addr(), fragThreshold, fragThreshold)
	} else {
		lc.client = pfsnet.NewClient(lc.meta.Addr())
	}
	lc.client.Obs, lc.client.Tracer = lc.cliReg, lc.cliTr
	if lc.file, err = lc.client.Create("bench", spec.fileSize); err != nil {
		return lc, err
	}
	for off := int64(0); off < spec.fileSize; off += 1 << 20 {
		end := min(off+1<<20, spec.fileSize)
		if err := lc.client.WriteAt(lc.file, off, initial[off:end]); err != nil {
			return lc, fmt.Errorf("prefill: %w", err)
		}
	}
	return lc, nil
}

// close stops the client and every server; data servers drain their
// fragment logs and close their stores.
func (lc *liveCluster) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if lc.client != nil {
		keep(lc.client.Close())
	}
	if lc.meta != nil {
		keep(lc.meta.Close())
	}
	for _, ds := range lc.data {
		keep(ds.Close())
	}
	return first
}

func (lc *liveCluster) removeDir() {
	if lc.dir != "" {
		os.RemoveAll(lc.dir)
	}
}

// setup starts the cluster n times, keeping the last one, and returns it
// with the median set-up time. Each set-up ends with a forced GC, so the
// timed phase starts from a settled heap.
func setup(spec liveSpec, traced bool, scratch string, initial []byte, n int) (*liveCluster, float64, error) {
	var lc *liveCluster
	var secs []float64
	for i := 0; i < n; i++ {
		if lc != nil {
			err := lc.close()
			lc.removeDir()
			if err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if lc, err = startCluster(spec, traced, scratch, initial); err != nil {
			return nil, 0, err
		}
		runtime.GC()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return lc, median(secs), nil
}

// sample is one completed operation of a timed phase.
type sample struct {
	end   time.Duration // completion, from the start of the phase
	us    float64       // latency
	n     int
	write bool
}

// callerResult is one caller's share of a timed phase.
type callerResult struct {
	done, failed int64
	samples      []sample
}

// caller runs ops in a closed loop, checking every read against the
// shadow copy of the caller's region and applying every acknowledged
// write to it. It stops early only past overrun.
func (lc *liveCluster) caller(ops []op, pool, shadow []byte, maxOp int, start, overrun time.Time) callerResult {
	r := callerResult{samples: make([]sample, 0, len(ops))}
	buf := make([]byte, maxOp)
	step := 1
	if lc.spec.pairs {
		step = 2
	}
	for i, o := range ops {
		if i%step == 0 && time.Now().After(overrun) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: stopped after %d of %d ops at the overrun deadline\n", lc.spec.name, i, len(ops))
			return r
		}
		r.done++
		var err error
		t0 := time.Now()
		if o.write {
			err = lc.client.WriteAt(lc.file, o.off, pool[o.src:o.src+o.n])
		} else {
			err = lc.client.ReadAt(lc.file, o.off, buf[:o.n])
		}
		t1 := time.Now()
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", lc.spec.name, i, err)
			continue
		}
		r.samples = append(r.samples, sample{end: t1.Sub(start), us: float64(t1.Sub(t0)) / 1e3, n: o.n, write: o.write})
		switch {
		case o.write:
			copy(shadow[o.off:], pool[o.src:o.src+o.n])
		case !bytes.Equal(buf[:o.n], shadow[o.off:o.off+int64(o.n)]):
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: read [%d,+%d) differs from the model\n", lc.spec.name, i, o.off, o.n)
		}
	}
	return r
}

// phase is one timed phase's raw measurements.
type phase struct {
	start, end      time.Time
	wall            time.Duration
	done, failed    int64
	samples         []sample
	executed        [][]op // the ops each caller ran, in order
	allocs          uint64
	gcShare, heapMB float64
}

// userBytes is the bytes the phase's completed operations moved.
func (p phase) userBytes() int64 {
	var n int64
	for _, s := range p.samples {
		n += int64(s.n)
	}
	return n
}

// readCPU returns the process's GC and total CPU seconds so far.
func readCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// timedPhase runs every caller's op list to the end (or to an overrun
// deadline of twice the nominal length d) and collects the
// runtime deltas over the phase, then the live heap after a forced GC.
func (lc *liveCluster) timedPhase(in inputs, shadow []byte, d time.Duration) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := readCPU()
	res := make([]callerResult, callers)
	var wg sync.WaitGroup
	p := phase{start: time.Now()}
	overrun := p.start.Add(2 * d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res[c] = lc.caller(in.ops[c], in.pool, shadow, in.maxOp, p.start, overrun)
		}(c)
	}
	wg.Wait()
	p.end = time.Now()
	p.wall = p.end.Sub(p.start)
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	p.allocs = ms1.Mallocs - ms0.Mallocs
	p.gcShare = ratio(gc1-gc0, cpu1-cpu0)
	for c, r := range res {
		p.done += r.done
		p.failed += r.failed
		p.samples = append(p.samples, r.samples...)
		p.executed = append(p.executed, in.ops[c][:r.done])
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapMB = float64(ms1.HeapAlloc) / mb
	return p
}

// windows is how many equal slices of the timed phase the throughput
// and latency metrics are computed over; each reports the median
// slice, so a few seconds of interference from outside the benchmark
// do not move them.
const windows = 20

// windowed returns the median over the phase's time windows of the
// throughput (MB/s) and of the read and write p50 and p90 latencies.
func windowed(samples []sample, wall time.Duration) (tput, r50, r90, w50, w90 float64) {
	width := max(wall/windows, 1)
	type win struct {
		bytes         int64
		reads, writes []float64
	}
	ws := make([]win, windows)
	for _, s := range samples {
		w := &ws[min(int(s.end/width), windows-1)]
		w.bytes += int64(s.n)
		if s.write {
			w.writes = append(w.writes, s.us)
		} else {
			w.reads = append(w.reads, s.us)
		}
	}
	var ts, r50s, r90s, w50s, w90s []float64
	for _, w := range ws {
		ts = append(ts, float64(w.bytes)/mb/width.Seconds())
		if len(w.reads) > 0 {
			r50s = append(r50s, quantile(w.reads, 0.5))
			r90s = append(r90s, quantile(w.reads, 0.9))
		}
		if len(w.writes) > 0 {
			w50s = append(w50s, quantile(w.writes, 0.5))
			w90s = append(w90s, quantile(w.writes, 0.9))
		}
	}
	return median(ts), median(r50s), median(r90s), median(w50s), median(w90s)
}

// runPhase sets up n times, runs the op list (about d of work), verifies
// and tears down. It returns the phase's metrics; attempts, failures and
// gate results go straight into out.
func runPhase(spec liveSpec, cfg config, in inputs, traced bool, d time.Duration, n int, out *outcome) (map[string]float64, error) {
	lc, setupS, err := setup(spec, traced, cfg.dir, in.initial, n)
	if err != nil {
		return nil, err
	}
	defer lc.removeDir()
	shadow := bytes.Clone(in.initial)
	before := lc.snapshot()
	p := lc.timedPhase(in, shadow, d)
	after := lc.snapshot()
	out.attempted += p.done
	out.failed += p.failed
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2f s (traced %t)\n", spec.name, p.done, p.wall.Seconds(), traced)

	m := map[string]float64{}
	m["throughput_MBps"], m["read_p50_us"], m["read_p90_us"], m["write_p50_us"], m["write_p90_us"] = windowed(p.samples, p.wall)
	m["setup_s"] = setupS
	m["live_heap_MB"] = p.heapMB
	m["runtime.allocs_per_op"] = ratio(float64(p.allocs), float64(p.done))
	m["runtime.gc_cpu_share"] = p.gcShare
	stripeMetrics(m, lc.file.Layout(), p.executed)
	bridgeMetrics(m, before, after)
	logMetrics(m, before, after)
	if traced {
		lc.layerMetrics(m, p, before, after)
	}

	if spec.flush {
		t0 := time.Now()
		_, err := lc.client.Flush(lc.file)
		m["pfsnet.bridge.flush_ms"] = float64(time.Since(t0)) / 1e6
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("flush: %w", err)
		}
		flushed := lc.snapshot()
		m["pfsnet.bridge.log_bytes_per_flushed_byte"] = ratio(
			float64(flushed.data.LogBytes-before.data.LogBytes),
			float64(flushed.data.FlushedBytes-before.data.FlushedBytes))
		lc.readBack(shadow, out)
	}
	gates(spec, m, out)
	if err := lc.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if spec.logStore {
		reopenS, err := verifyReopen(lc, shadow, out)
		if err != nil {
			return nil, err
		}
		m["logstore.reopen_s"] = reopenS
	}
	return m, nil
}

// readBack reads the whole file in 1 MB requests after the final flush
// and compares it with the model.
func (lc *liveCluster) readBack(shadow []byte, out *outcome) {
	buf := make([]byte, 1<<20)
	for off := int64(0); off < lc.spec.fileSize; off += int64(len(buf)) {
		b := buf[:min(int64(len(buf)), lc.spec.fileSize-off)]
		out.attempted++
		if err := lc.client.ReadAt(lc.file, off, b); err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: read-back at %d: %v\n", off, err)
		} else if !bytes.Equal(b, shadow[off:off+int64(len(b))]) {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: read-back at %d differs from the model\n", off)
		}
	}
}

// verifyReopen reopens every closed log store (journal replay from its
// checkpoint), reads each server's share of the file straight from the
// store and compares it with the model. It returns the mean reopen time.
func verifyReopen(lc *liveCluster, shadow []byte, out *outcome) (float64, error) {
	layout := lc.file.Layout()
	var total time.Duration
	for i := range lc.logs {
		dir := filepath.Join(lc.dir, fmt.Sprintf("srv%d", i))
		t0 := time.Now()
		ls, err := logstore.Open(dir, logConfig(fmt.Sprintf("srv%d", i)))
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("reopen %s: %w", dir, err)
		}
		for _, sub := range layout.Decompose(0, lc.spec.fileSize) {
			if sub.Server != i {
				continue
			}
			b := make([]byte, sub.Length)
			out.attempted++
			if err := ls.ReadAt(lc.file.ID, sub.ServerOff, b); err != nil || !bytes.Equal(b, shadow[sub.FileOff:sub.FileOff+sub.Length]) {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: srv%d after reopen: [%d,+%d) differs from the model (err %v)\n", i, sub.FileOff, sub.Length, err)
			}
		}
		if err := ls.Close(); err != nil {
			return 0, err
		}
	}
	return total.Seconds() / float64(len(lc.logs)), nil
}

// gates are the workload sanity checks: a workload that stops exercising
// the layer it exists for fails the run.
func gates(spec liveSpec, m map[string]float64, out *outcome) {
	flagged, frag := m["stripe.flagged_share"], m["pfsnet.bridge.fragment_write_share"]
	switch spec.name {
	case unalignedRW.name:
		out.gate(flagged > 0, "stripe.flagged_share = %v, want > 0", flagged)
		out.gate(frag > 0, "pfsnet.bridge.fragment_write_share = %v, want > 0", frag)
	case alignedStream.name:
		out.gate(flagged == 0, "stripe.flagged_share = %v, want 0", flagged)
		out.gate(frag == 0, "pfsnet.bridge.fragment_write_share = %v, want 0", frag)
	case logOverwrite.name:
		runs := m["logstore.compaction_runs"]
		out.gate(runs >= 2, "logstore.compaction_runs = %v, want >= 2", runs)
	}
}

// runLive runs a live workload. With -trace 0 it is one untraced phase
// of the full length after setupRuns set-ups; with -trace 1 it is an
// untraced and a traced phase of half the length each, on fresh
// clusters and the same inputs, so the tracing overhead is their
// throughput ratio.
func runLive(spec liveSpec, cfg config) (*outcome, error) {
	out := &outcome{}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		in := genInputs(spec, cfg.seed, cfg.seconds)
		m, err := runPhase(spec, cfg, in, false, d, setupRuns, out)
		if err != nil {
			return nil, err
		}
		out.metrics = m
		return out, nil
	}
	in := genInputs(spec, cfg.seed, cfg.seconds/2)
	plain, err := runPhase(spec, cfg, in, false, d/2, 1, out)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(spec, cfg, in, true, d/2, 1, out)
	if err != nil {
		return nil, err
	}
	// Counters the program always keeps come from the untraced phase;
	// registry, span and store-wrapper metrics from the traced one.
	out.metrics = plain
	for k, v := range traced {
		if _, ok := plain[k]; !ok {
			plain[k] = v
		}
	}
	plain["trace.overhead_share"] = 1 - traced["throughput_MBps"]/plain["throughput_MBps"]
	return out, nil
}
