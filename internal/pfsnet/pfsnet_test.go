package pfsnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// testCluster starts a meta server and n data servers on ephemeral ports
// and returns the meta address plus a cleanup function.
func testCluster(t *testing.T, n int, unit int64, bridge bool) string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ds, err := NewDataServer("127.0.0.1:0", bridge)
		if err != nil {
			t.Fatalf("data server %d: %v", i, err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", unit, addrs)
	if err != nil {
		t.Fatalf("meta server: %v", err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms.Addr()
}

func TestCreateOpenRoundTrip(t *testing.T) {
	meta := testCluster(t, 4, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if f.ID == 0 || f.Size != 1<<20 || f.Layout().Servers != 4 {
		t.Fatalf("file = %+v", f)
	}
	g, err := c.Open("data")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if g.ID != f.ID || g.Size != f.Size {
		t.Fatalf("Open mismatch: %+v vs %+v", g, f)
	}
	if _, err := c.Create("data", 1<<20); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := c.Open("missing"); err == nil {
		t.Fatal("open of missing file accepted")
	}
}

func TestWriteReadAcrossServers(t *testing.T) {
	meta := testCluster(t, 4, 4096, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rng := sim.NewRNG(7)
	buf := make([]byte, 40000) // spans ~10 units over 4 servers
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	if err := c.WriteAt(f, 1234, buf); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(buf))
	if err := c.ReadAt(f, 1234, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("read data differs from written data")
	}
	// Unwritten ranges read as zeros.
	zeros := make([]byte, 100)
	if err := c.ReadAt(f, 500000, zeros); err != nil {
		t.Fatalf("ReadAt zeros: %v", err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("unwritten range not zero")
		}
	}
}

func TestFragmentPathPreservesData(t *testing.T) {
	// iBridge client + bridge-enabled servers: a 65KB write produces a
	// 1KB fragment that lands in the data server's log; the read must
	// still return the exact bytes.
	meta := testCluster(t, 8, 64*1024, true)
	c := NewIBridgeClient(meta, 20*1024, 20*1024)
	defer c.Close()
	f, err := c.Create("data", 10<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rng := sim.NewRNG(3)
	buf := make([]byte, 65*1024)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	if err := c.WriteAt(f, 0, buf); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(buf))
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("fragment path corrupted data")
	}
}

func TestFragmentOverwriteThroughDirectPath(t *testing.T) {
	// Write a fragment (goes to the log), then overwrite the same
	// region with a large non-flagged write: the direct path must
	// supersede the log mapping.
	meta := testCluster(t, 2, 64*1024, true)
	ib := NewIBridgeClient(meta, 20*1024, 20*1024)
	defer ib.Close()
	plain := NewClient(meta)
	defer plain.Close()

	f, err := ib.Create("data", 10<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	first := bytes.Repeat([]byte{0xAA}, 65*1024)
	if err := ib.WriteAt(f, 0, first); err != nil {
		t.Fatalf("fragment write: %v", err)
	}
	f2, err := plain.Open("data")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	second := bytes.Repeat([]byte{0x55}, 130*1024)
	if err := plain.WriteAt(f2, 0, second); err != nil {
		t.Fatalf("direct write: %v", err)
	}
	got := make([]byte, len(second))
	if err := plain.ReadAt(f2, 0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, second) {
		t.Fatal("stale fragment data survived a direct overwrite")
	}
}

func TestPartialOverwriteOfFragment(t *testing.T) {
	// A direct write overlapping only part of a logged fragment must
	// preserve the non-overlapped fragment bytes.
	meta := testCluster(t, 2, 64*1024, true)
	ib := NewIBridgeClient(meta, 20*1024, 20*1024)
	defer ib.Close()
	f, err := ib.Create("data", 10<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// 65KB write: 64KB on server 0, 1KB fragment on server 1 at
	// server-local offset 0 (file offset 64KB).
	buf := bytes.Repeat([]byte{0xAA}, 65*1024)
	if err := ib.WriteAt(f, 0, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Overwrite file range [64KB, 64KB+512) — half the fragment.
	patch := bytes.Repeat([]byte{0x77}, 512)
	plain := NewClient(meta)
	defer plain.Close()
	f2, _ := plain.Open("data")
	if err := plain.WriteAt(f2, 64*1024, patch); err != nil {
		t.Fatalf("patch: %v", err)
	}
	got := make([]byte, 1024)
	if err := plain.ReadAt(f2, 64*1024, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i < 512; i++ {
		if got[i] != 0x77 {
			t.Fatalf("patched byte %d = %x", i, got[i])
		}
	}
	for i := 512; i < 1024; i++ {
		if got[i] != 0xAA {
			t.Fatalf("fragment byte %d lost: %x", i, got[i])
		}
	}
}

func TestRandomRequestFlagging(t *testing.T) {
	meta := testCluster(t, 2, 64*1024, true)
	c := NewIBridgeClient(meta, 20*1024, 20*1024)
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// A 4KB write (below the random threshold) must take the log path.
	small := bytes.Repeat([]byte{1}, 4096)
	if err := c.WriteAt(f, 100, small); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 4096)
	if err := c.ReadAt(f, 100, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, small) {
		t.Fatal("random-request path corrupted data")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	meta := testCluster(t, 2, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("data", 1000)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.WriteAt(f, 900, make([]byte, 200)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := c.ReadAt(f, -1, make([]byte, 10)); err == nil {
		t.Fatal("negative-offset read accepted")
	}
}

// TestPropertyReadbackMatchesReference drives random writes and reads
// through the iBridge-enabled cluster and cross-checks every read against
// an in-memory reference buffer.
func TestPropertyReadbackMatchesReference(t *testing.T) {
	meta := testCluster(t, 4, 8192, true)
	c := NewIBridgeClient(meta, 3000, 3000)
	defer c.Close()
	const fileSize = 1 << 18
	f, err := c.Create("data", fileSize)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ref := make([]byte, fileSize)
	rng := sim.NewRNG(99)
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(offRaw, lenRaw uint32, write bool) bool {
		off := int64(offRaw) % fileSize
		length := int64(lenRaw)%(40*1024) + 1
		if off+length > fileSize {
			length = fileSize - off
		}
		if write {
			data := make([]byte, length)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if err := c.WriteAt(f, off, data); err != nil {
				t.Logf("WriteAt: %v", err)
				return false
			}
			copy(ref[off:], data)
			return true
		}
		got := make([]byte, length)
		if err := c.ReadAt(f, off, got); err != nil {
			t.Logf("ReadAt: %v", err)
			return false
		}
		return bytes.Equal(got, ref[off:off+length])
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDataServerStats(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
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
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, make([]byte, 4096)); err != nil { // random → log
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 65536, make([]byte, 30000)); err != nil { // direct
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.Writes != 2 || st.FragmentWrites != 1 || st.LogBytes != 4096 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 5, opRead, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fr, err := readFrame(&buf)
	if err != nil || fr.tag != 5 || fr.op != opRead || len(fr.payload) != 3 {
		t.Fatalf("round trip: %v %+v", err, fr)
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 1, opRead, 1})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Oversized frame header.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1, opRead})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDecoderShortInputs(t *testing.T) {
	d := dec{b: []byte{1, 2}}
	d.u64()
	if d.err == nil {
		t.Fatal("short u64 accepted")
	}
	d2 := dec{b: []byte{0, 0, 0, 10, 'x'}}
	d2.bytes()
	if d2.err == nil {
		t.Fatal("short bytes accepted")
	}
}
