package pfsnet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stripe"
)

// TestTracingInterop runs a plain and a traced client against a traced
// server. The data path must be byte-identical in both: tracing changes
// frame headers, never payload bytes. An untraced client's frames carry
// no context, so the server records no spans for them; a traced
// client's server spans hang off its parent spans.
func TestTracingInterop(t *testing.T) {
	payload := make([]byte, 65*1024) // unaligned: exercises the fragment path
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cases := []struct {
		name        string
		clientTrace bool
	}{
		{"plain client, traced server", false},
		{"traced client, traced server", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srvTracer := obs.NewXTracer("srv0", 0)
			ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
				Bridge: true,
				Tracer: srvTracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()

			c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
			var cliTracer *obs.XTracer
			if tc.clientTrace {
				cliTracer = obs.NewXTracer("client", 0)
				c.Tracer = cliTracer
			}

			f, err := c.Create("interop", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteAt(f, 0, payload); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if err := c.ReadAt(f, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("data mismatch")
			}

			c.Close()

			if !tc.clientTrace {
				// Untraced frames mean no server-side spans, even though
				// the server brought a tracer.
				if n := srvTracer.Len(); n != 0 {
					t.Fatalf("server recorded %d spans for untraced frames", n)
				}
				return
			}

			// Client side: one parent span per WriteAt/ReadAt.
			names := map[string]int{}
			byID := map[uint64]obs.XEvent{}
			for _, ev := range cliTracer.Events() {
				names[ev.Name]++
				if ev.Span != 0 {
					byID[ev.Span] = ev
				}
			}
			if names["WriteAt"] != 1 || names["ReadAt"] != 1 {
				t.Fatalf("client spans = %v, want one WriteAt and one ReadAt", names)
			}

			// Server side: the respond span closes after the flush, which
			// can trail the client's receive — poll briefly.
			want := []string{"queue-wait", "store", "respond"}
			deadline := time.Now().Add(2 * time.Second)
			var srvEvents []obs.XEvent
			for {
				srvEvents = srvTracer.Events()
				counts := map[string]int{}
				for _, ev := range srvEvents {
					counts[ev.Name]++
				}
				ok := true
				for _, n := range want {
					if counts[n] == 0 {
						ok = false
					}
				}
				if ok || time.Now().After(deadline) {
					if !ok {
						t.Fatalf("server span names = %v, want all of %v", counts, want)
					}
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Every server span must hang off a real client parent span
			// under the same trace id.
			for _, ev := range srvEvents {
				parent, ok := byID[ev.Parent]
				if !ok {
					t.Fatalf("server span %q parent %016x not found among client spans", ev.Name, ev.Parent)
				}
				if ev.Trace != parent.Trace {
					t.Fatalf("server span %q trace %016x != parent trace %016x", ev.Name, ev.Trace, parent.Trace)
				}
			}

			// The merged view must render both processes on one timeline.
			var buf bytes.Buffer
			if err := obs.WriteChromeX(&buf, append(cliTracer.Events(), srvEvents...)); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string                 `json:"name"`
					Ph   string                 `json:"ph"`
					Args map[string]interface{} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("merged trace is not valid JSON: %v", err)
			}
			procs := map[string]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Name == "process_name" {
					procs[ev.Args["name"].(string)] = true
				}
			}
			if !procs["client"] || !procs["srv0"] {
				t.Fatalf("merged trace processes = %v, want client and srv0", procs)
			}
		})
	}
}

// TestLatencySketchSeparation makes one of two data servers a straggler
// with a scoped latency fault and checks the client's windowed sketches
// tell the two servers apart.
func TestLatencySketchSeparation(t *testing.T) {
	// 25ms of injected straggle: wide enough that scheduler jitter or
	// race-detector overhead on the fast server cannot close the gap.
	plan := faults.MustParse("seed=7; latency=srv1:25ms")
	var addrs []string
	for i := 0; i < 2; i++ {
		scope := "srv0"
		var p *faults.Plan
		if i == 1 {
			scope, p = "srv1", plan
		}
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
			Store:      NewMemStore(),
			FaultPlan:  p,
			FaultScope: scope,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	c.TrackLatency = true
	defer c.Close()

	f, err := c.Create("skew", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0xC3}, 64*1024)
	if err := c.WriteAt(f, 0, bytes.Repeat(block, 2)); err != nil {
		t.Fatal(err)
	}
	// Aligned single-server reads: even offsets land on srv0, odd on the
	// straggler. Enough of them to populate the sketch windows.
	got := make([]byte, 64*1024)
	for i := 0; i < 50; i++ {
		if err := c.ReadAt(f, int64(i%2)*64*1024, got); err != nil {
			t.Fatal(err)
		}
	}

	p95 := map[string]float64{}
	for _, row := range c.LatencySnapshot() {
		if row.Class == "read" {
			p95[row.Server] = row.P95
		}
	}
	slow, fast := p95[addrs[1]], p95[addrs[0]]
	if slow < 15.0 {
		t.Fatalf("straggler p95 = %.2fms, want >= 15ms from the injected 25ms latency", slow)
	}
	if slow <= fast*1.5 {
		t.Fatalf("sketches do not separate the straggler: srv1 p95 %.2fms vs srv0 p95 %.2fms", slow, fast)
	}
}

// TestSlowRequestLog drives the wide-event path directly: after the
// warm-up samples, a request past the class p99 must emit one JSON line
// carrying its fragment timings, and the fast requests none.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	c := NewClient("127.0.0.1:1") // never dialed: the slow log needs no conns
	c.SlowLog = &buf

	finish := func(age time.Duration, frag bool) {
		pr := c.startParent("ReadAt", "read")
		if pr == nil {
			t.Fatal("startParent returned nil with SlowLog set")
		}
		pr.start = time.Now().Add(-age)
		if frag {
			pr.addFrag("127.0.0.1:9", stripe.Sub{ServerOff: 4096, Length: 1024}, age, nil)
		}
		c.finishParent(pr, 0, 1024, nil)
	}
	// The fast class spans 1-10ms, so its p99 sits milliseconds above
	// the 1ms requests: the microseconds that pass between setting
	// start and finishParent's clock read cannot push one past it.
	finish(10*time.Millisecond, false)
	for i := 0; i < 29; i++ {
		finish(time.Millisecond, false)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast requests logged: %q", buf.String())
	}
	finish(250*time.Millisecond, true)
	line := buf.Bytes()
	if len(line) == 0 {
		t.Fatal("slow request did not log a wide event")
	}
	var ev slowEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("wide event is not one JSON line: %v (%q)", err, line)
	}
	if ev.Op != "ReadAt" || ev.MS <= ev.P99MS {
		t.Fatalf("wide event = %+v, want op ReadAt slower than its p99", ev)
	}
	if len(ev.Frags) != 1 || ev.Frags[0].Server != "127.0.0.1:9" || ev.Frags[0].Len != 1024 {
		t.Fatalf("wide event frags = %+v, want the recorded fragment", ev.Frags)
	}
}

// TestTraceNilPathAllocs pins the zero-cost-when-nil contract for the
// per-request observability hooks: with no tracer, slow log, or
// registry, the parent-request and sketch paths must not allocate.
func TestTraceNilPathAllocs(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	allocs := testing.AllocsPerRun(1000, func() {
		pr := c.startParent("ReadAt", "read")
		pr.addFrag("x", stripe.Sub{}, 0, nil)
		c.finishParent(pr, 0, 0, nil)
		if c.sketchFor("x", "read") != nil {
			t.Fatal("sketchFor armed without a registry or TrackLatency")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-observability request path allocates %.1f/op, want 0", allocs)
	}
}
