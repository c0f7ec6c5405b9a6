package pfsnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// testCluster starts one data server and a metadata server over it and
// returns a configured client plus the data server's address.
func resilienceCluster(t *testing.T, cfg ServerConfig, tune func(*Client)) (*Client, *DataServer, *MetaServer) {
	t.Helper()
	ds, err := NewDataServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	if tune != nil {
		tune(c)
	}
	t.Cleanup(func() { c.Close() })
	return c, ds, ms
}

// TestBreakerStateMachine unit-tests the count-based breaker: it opens
// after the threshold run of failures, admits exactly one probe at a
// time while open, fails other callers fast with ErrServerDown, and
// closes on the first success.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 3}
	for i := 0; i < 3; i++ {
		probe, err := b.acquire("srv")
		if probe || err != nil {
			t.Fatalf("failure %d: acquire = (%v, %v), want closed pass", i, probe, err)
		}
		b.record(probe, false)
	}
	if !b.isOpen() {
		t.Fatal("breaker not open after threshold failures")
	}
	// First caller while open becomes the probe.
	probe, err := b.acquire("srv")
	if !probe || err != nil {
		t.Fatalf("probe acquire = (%v, %v)", probe, err)
	}
	// A second caller while the probe is in flight fails fast.
	if _, err := b.acquire("srv"); !errors.Is(err, ErrServerDown) {
		t.Fatalf("concurrent acquire error = %v, want ErrServerDown", err)
	}
	// Failed probe leaves the breaker open for the next probe.
	if opened, closed := b.record(true, false); opened || closed {
		t.Fatal("failed probe must not transition the breaker")
	}
	probe, err = b.acquire("srv")
	if !probe || err != nil {
		t.Fatalf("re-probe acquire = (%v, %v)", probe, err)
	}
	// Successful probe closes it.
	if _, closed := b.record(true, true); !closed {
		t.Fatal("successful probe must close the breaker")
	}
	if b.isOpen() {
		t.Fatal("breaker still open after success")
	}
	// A nil breaker (disabled) passes everything.
	var nb *breaker
	if probe, err := nb.acquire("x"); probe || err != nil {
		t.Fatal("nil breaker must pass")
	}
	nb.record(false, false)
}

// TestIOTimeoutDeadline checks that a server that accepts requests but
// never answers in time fails the call with ErrDeadline.
func TestIOTimeoutDeadline(t *testing.T) {
	// The case keeps the name it had when MaxProto chose the protocol:
	// 0 was the default, now the only one.
	t.Run("maxproto=0", testIOTimeoutDeadline)
}

func testIOTimeoutDeadline(t *testing.T) {
	store := slowStore{ObjectStore: NewMemStore(), delay: time.Second}
	c, _, _ := resilienceCluster(t, ServerConfig{Store: store}, func(c *Client) {
		c.IOTimeout = 100 * time.Millisecond
		c.MaxRetries = -1
		c.Obs = obs.NewRegistry()
	})
	f, err := c.Create("slow", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.ReadAt(f, 0, make([]byte, 512))
	if err == nil {
		t.Fatal("read against stalled server succeeded")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("deadline took %v, bound is 100ms", el)
	}
	if v := c.Obs.Counter("pfsnet.client.deadline_exceeded").Value(); v == 0 {
		t.Fatal("deadline_exceeded counter not incremented")
	}
}

// TestBreakerOpensAndRecovers drives a client against a data server that
// dies: consecutive transport failures must mark the server degraded,
// and the first call after a restart is the probe that un-degrades it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	c, ds, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.MaxRetries = -1 // one attempt per call: failures count singly
		c.BreakerThreshold = 3
		c.RetryBackoff = time.Millisecond
		c.Obs = obs.NewRegistry()
	})
	addr := ds.Addr()
	f, err := c.Create("brk", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("up")); err != nil {
		t.Fatal(err)
	}
	if c.ServerDegraded(addr) {
		t.Fatal("healthy server marked degraded")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Each call is one recorded failure; the threshold run opens the
	// breaker. Later calls are probes and keep failing.
	for i := 0; i < 4; i++ {
		if err := c.WriteAt(f, 0, []byte("down")); err == nil {
			t.Fatalf("write %d against dead server succeeded", i)
		}
	}
	if !c.ServerDegraded(addr) {
		t.Fatal("server not degraded after consecutive failures")
	}
	if v := c.Obs.Counter("pfsnet.client.breaker_opens").Value(); v != 1 {
		t.Fatalf("breaker_opens = %d, want 1", v)
	}

	// Restart on the same address: the next call is the single probe,
	// succeeds, and closes the breaker.
	ds2, err := NewDataServerConfig(addr, ServerConfig{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds2.Close()
	payload := []byte("recovered")
	if err := c.WriteAt(f, 0, payload); err != nil {
		t.Fatalf("probe write after restart: %v", err)
	}
	if c.ServerDegraded(addr) {
		t.Fatal("server still degraded after successful probe")
	}
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 0, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestRetriesRecoverFromInjectedResets arms a connection-reset plan on
// the client side: every reset kills a pooled connection mid-request,
// and the retry loop must still deliver every byte.
func TestRetriesRecoverFromInjectedResets(t *testing.T) {
	plan := faults.MustParse("seed=3; reset=1/6")
	reg := obs.NewRegistry()
	plan.SetObs(reg)
	c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.FaultPlan = plan
		c.MaxRetries = 4
		c.RetryBackoff = time.Millisecond
		c.Obs = reg
	})
	f, err := c.Create("resets", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := 0; i < 40; i++ {
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if err := c.WriteAt(f, int64(i)*4096, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got := make([]byte, len(payload))
		if err := c.ReadAt(f, int64(i)*4096, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: data mismatch under resets", i)
		}
	}
	if n := plan.Counts()["reset"]; n == 0 {
		t.Fatal("plan injected no resets over 80 requests")
	}
	if v := reg.Counter("pfsnet.client.retries").Value(); v == 0 {
		t.Fatal("no retries recorded despite injected resets")
	}
	if v := reg.Counter("faults.injected.reset").Value(); v != plan.Counts()["reset"] {
		t.Fatalf("obs mirror %d != plan count %d", v, plan.Counts()["reset"])
	}
}

// TestChaosDeterminism runs the same sequential workload twice under the
// same fault plan spec: the injected-fault counts and the client's
// retry/deadline counters must be identical — the property that makes a
// chaos failure reproducible from its plan seed.
func TestChaosDeterminism(t *testing.T) {
	run := func() (map[string]int64, map[string]int64) {
		plan := faults.MustParse("seed=11; reset=1/5")
		reg := obs.NewRegistry()
		plan.SetObs(reg)
		c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
			c.FaultPlan = plan
			c.MaxRetries = 4
			c.RetryBackoff = time.Microsecond // keep the run fast
			c.Seed = 42
			c.Obs = reg
		})
		f, err := c.Create("det", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		for i := 0; i < 30; i++ {
			if err := c.WriteAt(f, int64(i)*2048, buf); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		counters := map[string]int64{}
		for _, k := range []string{
			"pfsnet.client.retries",
			"pfsnet.client.deadline_exceeded",
			"pfsnet.client.breaker_opens",
			"faults.injected.reset",
		} {
			counters[k] = reg.Counter(k).Value()
		}
		return plan.Counts(), counters
	}
	counts1, counters1 := run()
	counts2, counters2 := run()
	if fmt.Sprint(counts1) != fmt.Sprint(counts2) {
		t.Fatalf("fault counts differ across identical runs: %v vs %v", counts1, counts2)
	}
	if fmt.Sprint(counters1) != fmt.Sprint(counters2) {
		t.Fatalf("metric counters differ across identical runs: %v vs %v", counters1, counters2)
	}
	if counts1["reset"] == 0 {
		t.Fatal("plan fired nothing; determinism check is vacuous")
	}
}

// TestFallbackNegotiationUnderResets dials through a connection-reset
// plan: every redial repeats the hello on a fresh connection, and the
// data must still round-trip once the retries get through.
func TestFallbackNegotiationUnderResets(t *testing.T) {
	t.Run("v2 client, v2 server", func(t *testing.T) {
		plan := faults.MustParse("seed=5; reset=1/7")
		c, ds, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
			c.FaultPlan = plan
			c.MaxRetries = 5
			c.RetryBackoff = time.Millisecond
		})
		f, err := c.Create("fallback", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 65*1024)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := c.WriteAt(f, 0, payload); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := c.ReadAt(f, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("data mismatch under resets")
		}
		if plan.Counts()["reset"] == 0 {
			t.Fatal("plan injected no resets; the case is vacuous")
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, cn := range c.data[ds.Addr()] {
			if cn.sendq == nil {
				t.Fatalf("conn %d has no pipelined writer after the hello", i)
			}
		}
	})
}

// TestCorruptionRecovery injects read-side frame corruption into the
// client's connections. Replies to writes carry empty payloads, so every
// flipped byte lands in a frame header: the client must detect it
// (ErrCorruptFrame) or time the stall out (ErrDeadline), drop the
// connection, and retry to success — never return corrupt data and never
// hang.
func TestCorruptionRecovery(t *testing.T) {
	plan := faults.MustParse("seed=7; corrupt=1/10")
	c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.FaultPlan = plan
		c.IOTimeout = 250 * time.Millisecond
		c.MaxRetries = 6
		c.RetryBackoff = time.Millisecond
	})
	f, err := c.Create("corrupt", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 1024)
	for i := 0; i < 30; i++ {
		if err := c.WriteAt(f, int64(i)*1024, payload); err != nil {
			t.Fatalf("write %d under corruption: %v", i, err)
		}
	}
	if plan.Counts()["corrupt"] == 0 {
		t.Fatal("no corruption injected; test is vacuous")
	}
	// A clean read at the end proves the writes all landed intact.
	clean := NewClient(c.metaAddr)
	defer clean.Close()
	got := make([]byte, 1024)
	for i := 0; i < 30; i++ {
		if err := clean.ReadAt(f, int64(i)*1024, got); err != nil {
			t.Fatalf("verify read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("block %d corrupted at rest", i)
		}
	}
}

// TestRequestBudget bounds a request across retries: with the server
// down and a tight RequestTimeout, the retry loop must give up with
// ErrDeadline instead of burning all MaxRetries backoffs.
func TestRequestBudget(t *testing.T) {
	c, ds, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.MaxRetries = 1000
		c.RetryBackoff = 20 * time.Millisecond
		c.RetryBackoffMax = 20 * time.Millisecond
		c.RequestTimeout = 100 * time.Millisecond
		c.BreakerThreshold = -1 // isolate the budget mechanism
	})
	f, err := c.Create("budget", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.WriteAt(f, 0, []byte("x"))
	if err == nil {
		t.Fatal("write against dead server succeeded")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error = %v, want ErrDeadline budget exhaustion", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("budget of 100ms took %v", el)
	}
}
