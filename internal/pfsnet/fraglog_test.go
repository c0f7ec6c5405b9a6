package pfsnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Tests of the data server's fragment log, driven through the request
// handlers directly: no listener, no client, no socket.

func writeReq(file uint64, off int64, flagged bool, data []byte) []byte {
	var e enc
	e.u64(file)
	e.i64(off)
	var flags byte
	if flagged {
		flags = 1
	}
	e.u8(flags)
	e.bytes(data)
	return e.b
}

func readReq(file uint64, off, n int64) []byte {
	var e enc
	e.u64(file)
	e.i64(off)
	e.i64(n)
	return e.b
}

func fileReq(file uint64) []byte {
	var e enc
	e.u64(file)
	return e.b
}

// readVia runs one handleRead and returns a private copy of the data.
func readVia(s *DataServer, file uint64, off, n int64) ([]byte, error) {
	reply, err := s.handleRead(readReq(file, off, n))
	if err != nil {
		return nil, err
	}
	out := bytes.Clone(reply[4:])
	putBuf(reply)
	return out, nil
}

// TestWriteOffsetOverflowRejected sends one write whose end overflows
// int64, on both store paths with the bridge on and off. The server must
// answer opError without panicking (a panic in a worker takes the whole
// server down) and must not log or store anything.
func TestWriteOffsetOverflowRejected(t *testing.T) {
	for _, bridge := range []bool{false, true} {
		for _, flagged := range []bool{false, true} {
			t.Run(fmt.Sprintf("bridge=%v/flagged=%v", bridge, flagged), func(t *testing.T) {
				s := newDataServer(ServerConfig{Bridge: bridge})
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("write at the int64 edge panicked: %v", r)
					}
				}()
				op, reply := s.dispatch(opWrite, writeReq(1, math.MaxInt64-10, flagged, make([]byte, 100)))
				putBuf(reply)
				if op != opError {
					t.Fatalf("reply opcode = %d, want opError", op)
				}
				if st := s.Stats(); st.Writes != 0 || st.LogBytes != 0 {
					t.Fatalf("rejected write was counted: %+v", st)
				}
				if n, _ := s.store.Size(1); n != 0 {
					t.Fatalf("rejected write grew the object to %d bytes", n)
				}
			})
		}
	}
}

// checkLogCounters verifies that the live-bytes and extent-count gauges
// agree with the extent index itself.
func checkLogCounters(s *DataServer) error {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	var live, exts int64
	for _, m := range s.frags {
		if m.Len() == 0 {
			return fmt.Errorf("empty extent map left in the log")
		}
		for _, e := range m.Extents() {
			live += e.N
			if int64(len(e.Val.data)) != e.N {
				return fmt.Errorf("extent [%d,+%d) holds %d bytes", e.Off, e.N, len(e.Val.data))
			}
		}
		exts += int64(m.Len())
	}
	st := s.Stats()
	if st.LogLiveBytes != live || st.LogExtents != exts {
		return fmt.Errorf("stats report %d live bytes in %d extents, index holds %d in %d",
			st.LogLiveBytes, st.LogExtents, live, exts)
	}
	return nil
}

// yieldStore yields the processor after every read, widening the window
// between a read's store access and its log overlay.
type yieldStore struct{ ObjectStore }

func (y yieldStore) ReadAt(file uint64, off int64, p []byte) error {
	err := y.ObjectStore.ReadAt(file, off, p)
	runtime.Gosched()
	return err
}

// TestFragmentLogReadRacesFlush races a read of a logged 4 KB fragment
// against a 6 KB direct overwrite of it and a full flush. Whatever the
// interleaving, each byte read must come from the fragment or from the
// overwrite — never the zeros the store held before either, which is
// what a read returns if the fragment leaves the log between the read's
// store access and its overlay and nothing makes the read look again.
func TestFragmentLogReadRacesFlush(t *testing.T) {
	s := newDataServer(ServerConfig{Bridge: true, Store: yieldStore{NewMemStore()}})
	fragment := bytes.Repeat([]byte{0xA1}, 4096)
	over := bytes.Repeat([]byte{0xB2}, 6144)
	for i := range 500 {
		file := uint64(i + 1)
		if _, err := s.handleWrite(writeReq(file, 1024, true, fragment)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var werr, ferr, rerr error
		var got []byte
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, werr = s.handleWrite(writeReq(file, 0, false, over))
		}()
		go func() {
			defer wg.Done()
			ferr = s.FlushLog()
		}()
		go func() {
			defer wg.Done()
			got, rerr = readVia(s, file, 1024, 4096)
		}()
		wg.Wait()
		for _, err := range []error{werr, ferr, rerr} {
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		for k, b := range got {
			if b != 0xA1 && b != 0xB2 {
				t.Fatalf("iteration %d: byte %d reads %#x: neither the fragment nor the overwrite", i, 1024+k, b)
			}
		}
	}
}

// TestFragmentLogBoundedUnderOverwrites overwrites one 1 KB extent
// 20,000 times through the log: superseded bytes are dropped, so the
// log holds one extent of 1024 live bytes, while LogBytes still counts
// every appended byte.
func TestFragmentLogBoundedUnderOverwrites(t *testing.T) {
	s := newDataServer(ServerConfig{Bridge: true})
	data := make([]byte, 1024)
	const writes = 20000
	for i := range writes {
		binary.BigEndian.PutUint32(data, uint32(i))
		if _, err := s.handleWrite(writeReq(7, 4096, true, data)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LogLiveBytes != 1024 || st.LogExtents != 1 {
		t.Fatalf("after %d overwrites the log holds %d bytes in %d extents, want 1024 in 1", writes, st.LogLiveBytes, st.LogExtents)
	}
	if st.LogBytes != writes*1024 {
		t.Fatalf("LogBytes = %d, want the cumulative %d", st.LogBytes, writes*1024)
	}
	got, err := readVia(s, 7, 4096, 1024)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back the last overwrite: err=%v match=%v", err, bytes.Equal(got, data))
	}

	reply, err := s.handleStat(fileReq(7))
	if err != nil {
		t.Fatal(err)
	}
	d := dec{b: reply}
	objLen, mapped, logLive := d.i64(), d.u32(), d.i64()
	if d.err != nil || objLen != 0 || mapped != 1 || logLive != 1024 {
		t.Fatalf("stat = {obj %d, extents %d, live %d} err=%v, want {0, 1, 1024}", objLen, mapped, logLive, d.err)
	}

	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LogLiveBytes != 0 || st.LogExtents != 0 || st.FlushedBytes != 1024 {
		t.Fatalf("after flush: %d live bytes, %d extents, %d flushed; want 0, 0, 1024", st.LogLiveBytes, st.LogExtents, st.FlushedBytes)
	}
}

// FuzzFragmentLog drives random flagged and direct writes, reads, and
// per-file and full flushes over two files through the handlers, and
// compares every read — and the store after a final flush — with a flat
// []byte model. Each op is five bytes: kind/file, a 16-bit offset and a
// 16-bit length.
func FuzzFragmentLog(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0, 64, 2, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 16, 4, 0, 1, 0, 8, 16, 0, 2, 0, 0, 48, 0, 3, 0, 0, 0, 0, 2, 0, 0, 48, 0})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 5*64)
		rng.Read(seed)
		f.Add(seed)
	}
	const span, maxLen = 16 << 10, 4 << 10
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := newDataServer(ServerConfig{Bridge: true})
		model := map[uint64][]byte{1: make([]byte, span+maxLen), 2: make([]byte, span+maxLen)}
		for i := 0; len(ops) >= 5; i, ops = i+1, ops[5:] {
			kind, file := ops[0]%5, uint64(1+ops[0]/5%2)
			off := int64(binary.BigEndian.Uint16(ops[1:])) % span
			n := 1 + int64(binary.BigEndian.Uint16(ops[3:]))%maxLen
			switch kind {
			case 0, 1:
				data := make([]byte, n)
				for k := range data {
					data[k] = byte(i*31 + k + 1)
				}
				if _, err := s.handleWrite(writeReq(file, off, kind == 0, data)); err != nil {
					t.Fatalf("op %d: write: %v", i, err)
				}
				copy(model[file][off:], data)
			case 2:
				got, err := readVia(s, file, off, n)
				if err != nil {
					t.Fatalf("op %d: read: %v", i, err)
				}
				if want := model[file][off : off+n]; !bytes.Equal(got, want) {
					k := 0
					for got[k] == want[k] {
						k++
					}
					t.Fatalf("op %d: read file %d [%d,+%d): byte %d is %d, model has %d", i, file, off, n, off+int64(k), got[k], want[k])
				}
			case 3:
				if _, err := s.handleFlush(fileReq(file)); err != nil {
					t.Fatalf("op %d: flush file %d: %v", i, file, err)
				}
			case 4:
				if _, err := s.handleFlush(fileReq(0)); err != nil {
					t.Fatalf("op %d: flush all: %v", i, err)
				}
			}
			if err := checkLogCounters(s); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := s.FlushLog(); err != nil {
			t.Fatal(err)
		}
		for file, want := range model {
			got := make([]byte, len(want))
			if err := s.store.ReadAt(file, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d: store after the final flush differs from the model", file)
			}
		}
	})
}

// BenchmarkFragmentOverlay times one 64 KB read against a log of N live
// 64-byte fragments spaced 128 bytes apart; the read overlaps the same
// 512 of them at every N, so ns/op should not grow with N.
func BenchmarkFragmentOverlay(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			s := newDataServer(ServerConfig{Bridge: true})
			fragment := make([]byte, 64)
			for i := range n {
				if _, err := s.handleWrite(writeReq(1, int64(i)*128, true, fragment)); err != nil {
					b.Fatal(err)
				}
			}
			req := readReq(1, int64(n)*64-32<<10, 64<<10)
			b.SetBytes(64 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				reply, err := s.handleRead(req)
				if err != nil {
					b.Fatal(err)
				}
				putBuf(reply)
			}
		})
	}
}
