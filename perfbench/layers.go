package main

import (
	"sync/atomic"
	"time"

	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/pfsnet"
	"repro/internal/stripe"
)

// timedStore is the benchmark's timing wrapper around a data server's
// object store, armed only in the traced run.
type timedStore struct {
	inner           pfsnet.ObjectStore
	reads, writes   atomic.Int64
	readNs, writeNs atomic.Int64
}

func (t *timedStore) WriteAt(file uint64, off int64, data []byte) error {
	t0 := time.Now()
	err := t.inner.WriteAt(file, off, data)
	t.writeNs.Add(int64(time.Since(t0)))
	t.writes.Add(1)
	return err
}

func (t *timedStore) ReadAt(file uint64, off int64, p []byte) error {
	t0 := time.Now()
	err := t.inner.ReadAt(file, off, p)
	t.readNs.Add(int64(time.Since(t0)))
	t.reads.Add(1)
	return err
}

func (t *timedStore) Size(file uint64) (int64, error) { return t.inner.Size(file) }
func (t *timedStore) Close() error                    { return t.inner.Close() }

// durableTimedStore also forwards pfsnet.DurableStore, so a server over
// a wrapped log store takes the code paths it takes without the wrapper.
type durableTimedStore struct {
	*timedStore
	durable pfsnet.DurableStore
}

func (d durableTimedStore) RecordAppends() int64 { return d.durable.RecordAppends() }
func (d durableTimedStore) FailDevice() error    { return d.durable.FailDevice() }

// wrap returns the store to hand the server.
func (t *timedStore) wrap() pfsnet.ObjectStore {
	if d, ok := t.inner.(pfsnet.DurableStore); ok {
		return durableTimedStore{t, d}
	}
	return t
}

// snap is the counters every layer exports, read at one instant.
type snap struct {
	data     pfsnet.DataStats // summed over the data servers
	logs     []logstore.Stats // per store, server order
	counters map[string]int64 // client and server registries (traced run)
	store    storeTimes       // summed over the wrappers (traced run)
}

type storeTimes struct{ reads, writes, readNs, writeNs int64 }

func (lc *liveCluster) snapshot() snap {
	var s snap
	for _, ds := range lc.data {
		st := ds.Stats()
		s.data.Reads += st.Reads
		s.data.Writes += st.Writes
		s.data.FragmentWrites += st.FragmentWrites
		s.data.FragmentReads += st.FragmentReads
		s.data.LogBytes += st.LogBytes
		s.data.FlushedBytes += st.FlushedBytes
	}
	for _, ls := range lc.logs {
		s.logs = append(s.logs, ls.Stats())
	}
	if lc.cliReg != nil {
		s.counters = lc.cliReg.CounterValues()
		for k, v := range lc.srvReg.CounterValues() {
			s.counters[k] = v
		}
	}
	for _, t := range lc.timed {
		s.store.reads += t.reads.Load()
		s.store.writes += t.writes.Load()
		s.store.readNs += t.readNs.Load()
		s.store.writeNs += t.writeNs.Load()
	}
	return s
}

// stripeMetrics replays every executed request through the public
// decomposition and times it.
func stripeMetrics(m map[string]float64, layout stripe.Layout, executed [][]op) {
	var reqs, subs, flagged int
	t0 := time.Now()
	for _, ops := range executed {
		for _, o := range ops {
			for _, s := range layout.DecomposeFlagged(o.off, int64(o.n), fragThreshold) {
				subs++
				if s.Fragment {
					flagged++
				}
			}
			reqs++
		}
	}
	elapsed := time.Since(t0)
	m["stripe.subreqs_per_op"] = ratio(float64(subs), float64(reqs))
	m["stripe.flagged_share"] = ratio(float64(flagged), float64(subs))
	m["stripe.decompose_ns"] = ratio(float64(elapsed), float64(reqs))
}

// bridgeMetrics reads the servers' fragment-log counters over the timed
// phase.
func bridgeMetrics(m map[string]float64, b, a snap) {
	m["pfsnet.bridge.fragment_write_share"] = ratio(float64(a.data.FragmentWrites-b.data.FragmentWrites), float64(a.data.Writes-b.data.Writes))
	m["pfsnet.bridge.overlay_reads_per_read"] = ratio(float64(a.data.FragmentReads-b.data.FragmentReads), float64(a.data.Reads-b.data.Reads))
}

// logMetrics reads the log stores' counters over the timed phase. Write
// amplification counts each compaction as rewriting the store's live
// bytes (hot-region overwrites keep those constant after the prefill).
func logMetrics(m map[string]float64, b, a snap) {
	if len(a.logs) == 0 {
		return
	}
	var appended, rewritten, runs, ckpts, logBytes, live float64
	for i, s := range a.logs {
		r := float64(s.CompactionRuns - b.logs[i].CompactionRuns)
		appended += float64(s.AppendedBytes - b.logs[i].AppendedBytes)
		rewritten += r * float64(s.LiveBytes)
		runs += r
		ckpts += float64(s.Checkpoints - b.logs[i].Checkpoints)
		logBytes += float64(s.LogBytes)
		live += float64(s.LiveBytes)
	}
	m["logstore.write_amp"] = ratio(appended+rewritten, appended)
	m["logstore.space_amp"] = ratio(logBytes, live)
	m["logstore.compaction_runs"] = runs
	m["logstore.checkpoints"] = ckpts
}

// layerMetrics reads the registries, the store wrapper and the spans of
// a traced phase.
func (lc *liveCluster) layerMetrics(m map[string]float64, p phase, b, a snap) {
	delta := func(names ...string) float64 {
		var v int64
		for _, n := range names {
			v += a.counters[n] - b.counters[n]
		}
		return float64(v)
	}
	// The client keeps one latency sketch per (server, op class); the
	// slowest server's p99 is the client's.
	for _, row := range lc.client.LatencySnapshot() {
		if row.Class == "read" || row.Class == "write" {
			key := "pfsnet.client." + row.Class + "_p99_us"
			m[key] = max(m[key], row.P99*1e3)
		}
	}
	m["pfsnet.client.retries"] = delta("pfsnet.client.retries")
	m["pfsnet.wire.frames_per_op"] = ratio(delta("pfsnet.client.frames_tx", "pfsnet.client.frames_rx"), float64(p.done))
	m["pfsnet.wire.bytes_per_user_byte"] = ratio(delta("pfsnet.client.bytes_tx", "pfsnet.client.bytes_rx"), float64(p.userBytes()))
	m["pfsnet.wire.writev_frames_per_call"] = ratio(
		delta("pfsnet.client.writev_frames", "pfsnet.server.writev_frames"),
		delta("pfsnet.client.writev_calls", "pfsnet.server.writev_calls"))
	qw := lc.srvReg.Hist("pfsnet.server.queue_wait_ms").Snapshot()
	m["pfsnet.server.queue_wait_p50_us"] = qw.Quantile(0.5) * 1e3

	reads, writes := a.store.reads-b.store.reads, a.store.writes-b.store.writes
	readNs, writeNs := a.store.readNs-b.store.readNs, a.store.writeNs-b.store.writeNs
	m["store.read_us"] = ratio(float64(readNs)/1e3, float64(reads))
	m["store.write_us"] = ratio(float64(writeNs)/1e3, float64(writes))
	m["store.busy_share"] = ratio(float64(readNs+writeNs), float64(nServers)*float64(p.wall))

	var events []obs.XEvent
	events = append(events, lc.cliTr.Events()...)
	for _, tr := range lc.srvTr {
		events = append(events, tr.Events()...)
	}
	traceMetrics(m, events, p.start, p.end, readNs+writeNs)
}

// traceMetrics splits the traced phase's requests into stages from the
// client parent spans and the servers' queue-wait/store/respond spans.
// The three server spans of one sub-request abut (each starts where the
// previous one ended, up to the few nanoseconds between a wall-clock
// and a monotonic clock read), which is how they are chained. storeNs
// is the wrapped store's time over the phase.
func traceMetrics(m map[string]float64, events []obs.XEvent, from, to time.Time, storeNs int64) {
	type key struct {
		proc   string
		parent uint64
	}
	type spans struct{ qw, st, rs []obs.XEvent }
	lo, hi := from.UnixNano(), to.UnixNano()
	groups := map[key]*spans{}
	var parents []obs.XEvent
	var qwUS, storeUS, respUS []float64
	var storeTotal float64
	for _, e := range events {
		if e.Start < lo || e.Start+e.Dur > hi {
			continue
		}
		if e.Proc == "client" {
			parents = append(parents, e)
			continue
		}
		g := groups[key{e.Proc, e.Parent}]
		if g == nil {
			g = &spans{}
			groups[key{e.Proc, e.Parent}] = g
		}
		switch e.Name {
		case "queue-wait":
			g.qw = append(g.qw, e)
			qwUS = append(qwUS, float64(e.Dur)/1e3)
		case "store":
			g.st = append(g.st, e)
			storeUS = append(storeUS, float64(e.Dur)/1e3)
			storeTotal += float64(e.Dur)
		case "respond":
			g.rs = append(g.rs, e)
			respUS = append(respUS, float64(e.Dur)/1e3)
		}
	}
	// Per parent span, the sub-request whose reply left its server last
	// gates the parent; what the parent spent outside that chain is
	// client-side and wire time.
	type chain struct{ end, length int64 }
	gate := map[uint64]chain{}
	for k, g := range groups {
		for _, q := range g.qw {
			st, ok := nextSpan(g.st, q.Start+q.Dur)
			if !ok {
				continue
			}
			rs, ok := nextSpan(g.rs, st.Start+st.Dur)
			if !ok {
				continue
			}
			c := chain{end: rs.Start + rs.Dur, length: rs.Start + rs.Dur - q.Start}
			if old, seen := gate[k.parent]; !seen || c.end > old.end {
				gate[k.parent] = c
			}
		}
	}
	var wireUS []float64
	for _, e := range parents {
		if c, ok := gate[e.Span]; ok {
			wireUS = append(wireUS, float64(e.Dur-c.length)/1e3)
		}
	}
	m["trace.server_queue_wait_us"] = median(qwUS)
	m["trace.server_dispatch_us"] = median(storeUS)
	m["trace.server_respond_us"] = median(respUS)
	m["trace.bridge_us"] = ratio(storeTotal-float64(storeNs), float64(len(storeUS))) / 1e3
	m["trace.client_wire_us"] = median(wireUS)
}

// nextSpan returns the span of candidates that starts closest to at, if
// one starts within a microsecond of it.
func nextSpan(candidates []obs.XEvent, at int64) (obs.XEvent, bool) {
	best, bestGap := obs.XEvent{}, int64(time.Microsecond)
	for _, c := range candidates {
		gap := c.Start - at
		if gap < 0 {
			gap = -gap
		}
		if gap <= bestGap {
			best, bestGap = c, gap
		}
	}
	return best, best.Span != 0
}
