package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestXTracerNilSafe(t *testing.T) {
	var tr *XTracer
	tr.Span(1, 2, 3, "x", "s", time.Unix(0, 0), time.Second)
	tr.Instant(1, 2, "x", "s", time.Unix(0, 0))
	tr.InstantNow("x", "s")
	tr.SetDropCounter(nil)
	if tr.NewID() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Proc() != "" || tr.Events() != nil {
		t.Fatal("nil XTracer must be inert")
	}
	if err := tr.WriteSpans(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteSpans: %v", err)
	}
}

func TestXTracerIDs(t *testing.T) {
	a, b := NewXTracer("client", 0), NewXTracer("srv0", 0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.NewID(), b.NewID()} {
			if id == 0 {
				t.Fatal("NewID returned 0")
			}
			if seen[id] {
				t.Fatalf("duplicate id %x", id)
			}
			seen[id] = true
		}
	}
	// Same process name → same deterministic sequence.
	if NewXTracer("client", 0).NewID() != NewXTracer("client", 0).NewID() {
		t.Fatal("NewID not deterministic per process name")
	}
}

func TestXTracerSpanFileRoundTrip(t *testing.T) {
	tr := NewXTracer("srv0", 0)
	trace, parent := tr.NewID(), tr.NewID()
	span := tr.NewID()
	start := time.Unix(100, 500)
	tr.Span(trace, span, parent, "queue-wait", "conn1", start, 3*time.Millisecond)
	tr.Instant(trace, parent, "fault.reset", "srv0", start.Add(time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteSpans(&buf); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	evs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("round-tripped %d events, want 2", len(evs))
	}
	sp := evs[0]
	if sp.Proc != "srv0" || sp.Trace != trace || sp.Span != span || sp.Parent != parent ||
		sp.Name != "queue-wait" || sp.Scope != "conn1" ||
		sp.Start != start.UnixNano() || sp.Dur != int64(3*time.Millisecond) {
		t.Fatalf("span mangled in round trip: %+v", sp)
	}
	if evs[1].Dur != 0 || evs[1].Name != "fault.reset" {
		t.Fatalf("instant mangled: %+v", evs[1])
	}
}

func TestWriteChromeXMerge(t *testing.T) {
	client := NewXTracer("client", 0)
	srv := NewXTracer("srv0", 0)
	trace := client.NewID()
	parent := client.NewID()
	base := time.Unix(1000, 0)
	client.Span(trace, parent, 0, "WriteAt", "write", base, 10*time.Millisecond)
	srv.Span(trace, srv.NewID(), parent, "store", "conn1", base.Add(2*time.Millisecond), 4*time.Millisecond)

	evs := append(client.Events(), srv.Events()...)
	var buf bytes.Buffer
	if err := WriteChromeX(&buf, evs); err != nil {
		t.Fatalf("WriteChromeX: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged output is not JSON: %v", err)
	}
	var pids = map[string]float64{}
	var sawClientSpan, sawServerSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			args := ev["args"].(map[string]interface{})
			pids[args["name"].(string)] = ev["pid"].(float64)
		}
		if ev["ph"] == "X" && ev["name"] == "WriteAt" {
			sawClientSpan = true
			if ev["ts"].(float64) != 0 {
				t.Errorf("earliest span should be normalized to ts=0, got %v", ev["ts"])
			}
		}
		if ev["ph"] == "X" && ev["name"] == "store" {
			sawServerSpan = true
			if ev["ts"].(float64) != 2000 { // 2 ms after the client span, in µs
				t.Errorf("server span ts = %v µs, want 2000", ev["ts"])
			}
			args := ev["args"].(map[string]interface{})
			if args["parent"] == "" || args["trace"] == "" {
				t.Errorf("server span lost its context: %v", args)
			}
		}
	}
	if !sawClientSpan || !sawServerSpan {
		t.Fatalf("merged trace missing spans (client=%v server=%v)", sawClientSpan, sawServerSpan)
	}
	if len(pids) != 2 || pids["client"] == pids["srv0"] {
		t.Fatalf("processes should map to distinct pids: %v", pids)
	}
}

// TestXTracerDropCounter checks the buffer bound: events past max are
// counted in Dropped and mirrored into the attached counter.
func TestXTracerDropCounter(t *testing.T) {
	reg := NewRegistry()
	tr := NewXTracer("client", 2)
	tr.SetDropCounter(reg.Counter("obs.trace.dropped_events"))
	for i := 0; i < 5; i++ {
		tr.InstantNow("ev", "")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	if got := reg.Counter("obs.trace.dropped_events").Value(); got != 3 {
		t.Fatalf("obs.trace.dropped_events = %d, want 3", got)
	}
}

// The simulator's tracer keeps the first max events it is given and
// counts the rest as dropped; it never evicts what it already holds.
func TestTracerBufferBound(t *testing.T) {
	s := New(Config{Trace: true, MaxTraceEvents: 2})
	tr := s.Tracer()
	for i := 0; i < 5; i++ {
		tr.Instant(uint64(i), 0, "e", "run1/c", time.Unix(0, int64(i)))
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Trace != 0 || evs[1].Trace != 1 {
		t.Errorf("kept events = %+v, want the first two (trace 0 and 1)", evs)
	}
}

// The sim tracer's overflow must be mirrored the same way when a Set
// enables both metrics and tracing.
func TestTracerDropCounterWired(t *testing.T) {
	s := New(Config{Metrics: true, Trace: true, MaxTraceEvents: 1})
	for _, name := range []string{"a", "b", "c"} {
		s.Tracer().Instant(1, 0, name, "run1/c", time.Unix(0, 0))
	}
	if d := s.Tracer().Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
	if got := s.Registry().Counter("obs.trace.dropped_events").Value(); got != 2 {
		t.Fatalf("obs.trace.dropped_events = %d, want 2", got)
	}
	snap := s.Registry().Snapshot()
	if _, ok := snap["obs.trace.dropped_events"]; !ok {
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		t.Fatalf("dropped_events not in snapshot: %s", strings.Join(keys, ","))
	}
}

// chromeDoc renders evs with WriteChromeX and decodes the document.
func chromeDoc(t *testing.T, evs []XEvent) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeX(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

// TestTracerChromeJSON exports sim-stamped events (virtual nanoseconds
// passed as time.Unix(0, ns)) from a Set's tracer: X and i phases with
// ts/dur in µs from virtual time 0, the parent-request id in
// args.trace, and one lane per run/component under the "sim" process.
func TestTracerChromeJSON(t *testing.T) {
	tr := New(Config{Trace: true}).Tracer()
	vt := func(ns int64) time.Time { return time.Unix(0, ns) }
	tr.Span(7, 0, 0, "read", "run1/client", vt(1e6), 2*time.Millisecond)
	tr.Instant(7, 0, "ssd-hit", "run1/bridge0", vt(2e6))
	tr.Span(1, 0, 0, "write", "run2/client", vt(0), time.Microsecond)

	doc := chromeDoc(t, tr.Events())
	lanes := map[int32]string{}
	var procs []string
	for _, ev := range doc {
		if ev.Name == "process_name" {
			procs = append(procs, ev.Args["name"].(string))
		} else if ev.Name == "thread_name" {
			lanes[ev.Tid] = ev.Args["name"].(string)
		}
	}
	if len(procs) != 1 || procs[0] != "sim" {
		t.Errorf("processes = %v, want [sim]", procs)
	}
	if len(lanes) != 3 {
		t.Errorf("lanes = %v, want one per run/component (3)", lanes)
	}
	want := map[string]struct {
		phase, lane, trace string
		ts, dur            float64
	}{
		"write":   {"X", "run2/client", "0000000000000001", 0, 1},
		"read":    {"X", "run1/client", "0000000000000007", 1000, 2000},
		"ssd-hit": {"i", "run1/bridge0", "0000000000000007", 2000, 0},
	}
	for _, ev := range doc {
		if ev.Phase == "M" {
			continue
		}
		w, ok := want[ev.Name]
		if !ok {
			t.Errorf("unexpected event %q", ev.Name)
			continue
		}
		delete(want, ev.Name)
		var dur float64
		if ev.Dur != nil {
			dur = *ev.Dur
		}
		if ev.Phase != w.phase || lanes[ev.Tid] != w.lane || ev.TS != w.ts || dur != w.dur || ev.Args["trace"] != w.trace {
			t.Errorf("%s: ph=%s lane=%q ts=%g dur=%g args=%v, want ph=%s lane=%q ts=%g dur=%g trace=%s",
				ev.Name, ev.Phase, lanes[ev.Tid], ev.TS, dur, ev.Args, w.phase, w.lane, w.ts, w.dur, w.trace)
		}
	}
	if len(want) != 0 {
		t.Errorf("events missing from the export: %v", want)
	}
}

// TestWriteChromeXOrigin pins the time origin to the earliest event even
// when that event sits at Start 0, as every simulator trace does.
func TestWriteChromeXOrigin(t *testing.T) {
	got := map[string]float64{}
	for _, ev := range chromeDoc(t, []XEvent{
		{Proc: "sim", Name: "later", Start: 1000},
		{Proc: "sim", Name: "first", Start: 0},
	}) {
		if ev.Phase == "i" {
			got[ev.Name] = ev.TS
		}
	}
	if got["first"] != 0 || got["later"] != 1 {
		t.Fatalf("ts = %v µs, want first=0 later=1", got)
	}
}
