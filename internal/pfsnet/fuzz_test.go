package pfsnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faults"
)

// rawFrame encodes one frame as bytes.
func rawFrame(tag uint64, op byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, tag, op, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// dialHello dials a server and completes the hello by hand, for tests
// that drive raw frames at it.
func dialHello(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(rawFrame(0, opHello, helloPayload)); err != nil {
		t.Fatal(err)
	}
	fr, err := readFrame(nc)
	if err != nil || fr.op != opOK {
		t.Fatalf("hello: %v op=%d", err, fr.op)
	}
	fr.release()
	nc.SetDeadline(time.Time{})
	return nc
}

// FuzzReadFrame feeds arbitrary byte streams through the framing layer:
// readFrame must return an error or a well-formed frame, never panic,
// and any frame that survives a decode must re-encode with writeFrame
// to exactly the bytes it was decoded from.
func FuzzReadFrame(f *testing.F) {
	// Seeds: a plain frame, a traced frame (tagTraceFlag set, context
	// ahead of the payload), the hello, and the malformed shapes from the
	// table test.
	f.Add(rawFrame(42, opWrite, []byte("payload")))
	traced := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0xABC), 0xDEF)
	f.Add(rawFrame(7|tagTraceFlag, opRead, append(traced, 1, 2, 3)))
	f.Add(rawFrame(0, opHello, helloPayload))
	for _, raw := range malformedFrames {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer fr.release()
		var buf bytes.Buffer
		if werr := writeFrame(&buf, fr.tag, fr.op, fr.payload); werr != nil {
			t.Fatalf("decoded frame does not re-encode: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encoded frame differs from the decoded bytes")
		}
		again, rerr := readFrame(&buf)
		if rerr != nil || again.tag != fr.tag || again.op != fr.op || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("re-decode mismatch: %v", rerr)
		}
		again.release()
	})
}

// malformedFrames are the byte shapes the malformed-frame tests send
// after a valid hello: a truncated length prefix, an oversize length, a
// zero length, a payload shorter than its header promises, and a
// well-formed frame with an unknown opcode.
var malformedFrames = [][]byte{
	{0, 0},
	{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1, opRead},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, opRead},
	{0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 1, opRead, 1, 2, 3},
	{0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 1, 0xEE, 9},
}

// TestServerRejectsMalformedFrames drives raw malformed byte streams at
// a live data server after a valid hello: the server must reply opError
// (unknown opcode) or close the connection cleanly (corrupt framing),
// never panic, and never leak the connection or wedge the listener.
func TestServerRejectsMalformedFrames(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	cases := []struct {
		name      string
		raw       []byte
		wantReply bool // opError reply expected; otherwise a clean close
	}{
		{"truncated length prefix", malformedFrames[0], false},
		{"oversize frame", malformedFrames[1], false},
		{"zero-length frame", malformedFrames[2], false},
		{"short payload", malformedFrames[3], false},
		{"unknown opcode", malformedFrames[4], true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := dialHello(t, ds.Addr())
			defer nc.Close()
			if _, err := nc.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			if !tc.wantReply {
				// Signal EOF so truncated streams terminate; the server
				// must close its side without a reply.
				nc.(*net.TCPConn).CloseWrite()
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			fr, err := readFrame(nc)
			if tc.wantReply {
				if err != nil {
					t.Fatalf("want opError reply, got %v", err)
				}
				if fr.op != opError {
					t.Fatalf("reply opcode = %d, want opError", fr.op)
				}
				// The connection must still be usable after the error.
				var e enc
				e.u64(1)
				if _, err := nc.Write(rawFrame(2, opStat, e.b)); err != nil {
					t.Fatalf("write after error: %v", err)
				}
				fr, err = readFrame(nc)
				if err != nil || fr.op != opOK || fr.tag != 2 {
					t.Fatalf("opStat after opError: %v op=%d tag=%d", err, fr.op, fr.tag)
				}
			} else if err == nil {
				t.Fatalf("want clean close, got reply op=%d", fr.op)
			} else if err != io.EOF && err != io.ErrUnexpectedEOF {
				// A reset is acceptable too; a deadline timeout is not —
				// that means the server neither replied nor closed.
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("server hung instead of closing: %v", err)
				}
			}
		})
	}

	// No connection leaked: every handler observed its close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds.connMu.Lock()
		n := len(ds.conns)
		ds.connMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections leaked", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server still serves a well-formed client.
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("after-garbage", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFramesThroughFaultyConns replays the malformed-frame
// table through connections wrapped with an armed fault plan (partial
// writes, corruption, latency), so the server sees the table's shapes
// further mangled mid-stream. The server must reply or close within the
// deadline — never hang, never panic — and must stay healthy for a
// clean client afterwards.
func TestMalformedFramesThroughFaultyConns(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	plan := faults.MustParse("seed=13; partial=1/4; corrupt=1/3; latency=1ms@1/2")

	hello := rawFrame(0, opHello, helloPayload)
	for round := 0; round < 4; round++ {
		for _, raw := range malformedFrames {
			nc, err := plan.Dial("fuzz", "tcp", ds.Addr(), time.Second)
			if err != nil {
				continue // injected dial fault; the point is server health
			}
			// Hello and frame in one write, which the plan may cut short
			// or mangle.
			nc.Write(append(append([]byte(nil), hello...), raw...))
			nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			// Drain the hello answer and a reply if they come; errors
			// are fine.
			if fr, err := readFrame(nc); err == nil {
				fr.release()
				if fr, err := readFrame(nc); err == nil {
					fr.release()
				}
			}
			nc.Close()
		}
	}
	if len(plan.Counts()) == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	// Every handler must observe its close: a frame mangled into a huge
	// length must not pin a connection (and with it the handler) forever.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds.connMu.Lock()
		n := len(ds.conns)
		ds.connMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections leaked after faulty garbage", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server still serves a well-formed client over a faulty conn
	// path with retries.
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("after-faulty-garbage", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}
