package pfsnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestInteropMatrix drives the vectored client and server through an
// unaligned multi-server workload — a striped write batched per server,
// small overwrites on the single-sub path, and reads that scatter
// replies straight into the caller's buffer — and asserts the readback
// is byte-identical to what was written: the zero-copy path must be
// invisible at the payload level.
func TestInteropMatrix(t *testing.T) {
	t.Run("server=v2-vectored", func(t *testing.T) {
		t.Run("client=v2-vectored", testVectoredInterop)
	})
}

func testVectoredInterop(t *testing.T) {
	const unit = 4096
	rng := sim.NewRNG(42)
	ref := make([]byte, 10*unit+517) // ~10 units over 4 servers, unaligned tail
	for i := range ref {
		ref[i] = byte(rng.Uint64())
	}
	var addrs []string
	for i := 0; i < 4; i++ {
		ds, err := NewDataServer("127.0.0.1:0", false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", unit, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	t.Cleanup(func() { c.Close() })

	f, err := c.Create("interop", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 333, ref); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := c.WriteAt(f, 333+unit-7, ref[unit-7:unit+13]); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got := make([]byte, len(ref))
	if err := c.ReadAt(f, 333, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("full readback differs from written data")
	}
	// Unaligned span crossing a server boundary mid-read.
	span := make([]byte, 2*unit)
	if err := c.ReadAt(f, 333+unit/2, span); err != nil {
		t.Fatalf("span ReadAt: %v", err)
	}
	if !bytes.Equal(span, ref[unit/2:unit/2+2*unit]) {
		t.Fatal("span readback differs")
	}
}

// partialSeed finds a plan seed whose partial-write stride (at 1/2)
// spares write #0 and fires on write #1 — i.e. the server's hello reply
// survives and its first data response is truncated. Probed through the
// public faults API so the test does not depend on the phase formula.
func partialSeed(t *testing.T) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		p := faults.MustParse(fmt.Sprintf("seed=%d; partial=1/2", seed))
		c1, c2 := net.Pipe()
		fc := p.WrapConn(c1, "probe")
		go io.Copy(io.Discard, c2)
		_, err0 := fc.Write([]byte{1, 2})
		_, err1 := fc.Write([]byte{3, 4})
		c1.Close()
		c2.Close()
		if err0 == nil && err1 != nil {
			return seed
		}
	}
	t.Fatal("no seed with phase 1 in 64 tries")
	return 0
}

// TestPartialWriteYieldsCorruptFrame injects a partial write into the
// data server's vectored response path and asserts the client observes
// ErrCorruptFrame promptly — a truncated frame must classify as
// corruption, never hang a waiter and never pass as a short read.
func TestPartialWriteYieldsCorruptFrame(t *testing.T) {
	seed := partialSeed(t)
	plan := faults.MustParse(fmt.Sprintf("seed=%d; partial=1/2", seed))
	c, _, _ := resilienceCluster(t, ServerConfig{
		FaultPlan:  plan,
		FaultScope: "srv0",
	}, func(c *Client) {
		c.MaxRetries = -1
		c.BreakerThreshold = -1
		// Backstop only: if truncation were to hang the reader, this
		// deadline would surface as ErrDeadline and fail the Is check.
		c.IOTimeout = 2 * time.Second
	})
	f, err := c.Create("trunc", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// One large reply frame: cutting the response batch in half always
	// lands mid-frame. (Server writes: #0 hello reply, #1 this reply.)
	err = c.ReadAt(f, 0, make([]byte, 64<<10))
	if err == nil {
		t.Fatal("read over truncated response succeeded")
	}
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("error = %v, want ErrCorruptFrame", err)
	}
	if got := plan.Counts()["partial"]; got == 0 {
		t.Fatal("partial fault did not fire")
	}
}

// TestPoolRejectsForeignBuffers pins the pool's ownership guard: a
// buffer whose capacity is in the pool's range but not an exact size
// class was not shaped by getBuf and must be rejected and counted, both
// in the package-global accessor and the armed obs counter.
func TestPoolRejectsForeignBuffers(t *testing.T) {
	reg := obs.NewRegistry()
	newWireMetrics(reg, "pfsnet.test.") // arms pfsnet.pool.foreign_put
	counter := reg.Counter("pfsnet.pool.foreign_put")
	base := PoolForeignPuts()
	baseObs := counter.Value()

	putBuf(make([]byte, 1500)) // cap 1500: in range, not a power of two
	if got := PoolForeignPuts() - base; got != 1 {
		t.Fatalf("foreign put count = %d, want 1", got)
	}
	if got := counter.Value() - baseObs; got != 1 {
		t.Fatalf("obs foreign_put delta = %d, want 1", got)
	}

	// Legitimate non-pooled shapes stay silent: undersized, oversized,
	// nil, and exact size classes.
	putBuf(nil)
	putBuf(make([]byte, 16))
	putBuf(make([]byte, 0, 1<<minBufClass))
	putBuf(getBuf(8192))
	if got := PoolForeignPuts() - base; got != 1 {
		t.Fatalf("foreign put count after legitimate puts = %d, want 1", got)
	}
}

// TestWritePathNoForeignChurn guards the encoder size hints: a striped
// write's encode buffers must stay inside their size class end to end,
// so the wire path recycles them instead of leaking foreign-capacity
// garbage (the pre-vectored write path outgrew its class on every
// sub-request ≥ its initial class).
func TestWritePathNoForeignChurn(t *testing.T) {
	meta := testCluster(t, 4, 4096, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("churn", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 40000)
	base := PoolForeignPuts()
	for i := 0; i < 8; i++ {
		if err := c.WriteAt(f, int64(i)*1111, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReadAt(f, 0, make([]byte, 48000)); err != nil {
		t.Fatal(err)
	}
	if got := PoolForeignPuts() - base; got != 0 {
		t.Fatalf("wire path produced %d foreign puts, want 0", got)
	}
}

// Alloc-regression guards on the wire hot paths. The bounds are loose
// enough for scheduler noise but tight enough that reintroducing a
// per-call payload copy or a per-frame buffer allocation trips them.
// Each measured op is a full client round trip with the in-process
// server's handler allocations included.
func TestV2HotPathAllocs(t *testing.T) {
	meta := testCluster(t, 1, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("allocs", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	// Warm the conn pool and the buffer pools.
	for i := 0; i < 16; i++ {
		if err := c.WriteAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	writeAllocs := testing.AllocsPerRun(200, func() {
		if err := c.WriteAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	readAllocs := testing.AllocsPerRun(200, func() {
		if err := c.ReadAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	const maxWrite, maxRead = 20, 20
	if writeAllocs > maxWrite {
		t.Errorf("write path: %.1f allocs/op, want <= %d", writeAllocs, maxWrite)
	}
	if readAllocs > maxRead {
		t.Errorf("read path: %.1f allocs/op, want <= %d", readAllocs, maxRead)
	}
	t.Logf("allocs/op: write=%.1f read=%.1f", writeAllocs, readAllocs)
}
