package pfsnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stripe"
)

// TestEncDecRoundTrip property-checks the encoder/decoder pair over
// arbitrary field sequences.
func TestEncDecRoundTrip(t *testing.T) {
	if err := quick.Check(func(a uint64, b int64, c uint32, s string, blob []byte, x byte) bool {
		var e enc
		e.u64(a)
		e.i64(b)
		e.u32(c)
		e.str(s)
		e.bytes(blob)
		e.u8(x)
		d := dec{b: e.b}
		if d.u64() != a || d.i64() != b || d.u32() != c {
			return false
		}
		if d.str() != s || !bytes.Equal(d.bytes(), blob) || d.u8() != x {
			return false
		}
		return d.err == nil && len(d.b) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderNeverPanics feeds random byte soup through every decode
// method; the decoder must flag an error rather than panic or read out
// of bounds.
func TestDecoderNeverPanics(t *testing.T) {
	if err := quick.Check(func(raw []byte, ops []uint8) bool {
		d := dec{b: raw}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				d.u8()
			case 1:
				d.u32()
			case 2:
				d.u64()
			case 3:
				d.i64()
			case 4:
				d.bytes()
			case 5:
				d.str()
			}
		}
		return true // reaching here without panic is the property
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMessageRoundTripProperty frames and unframes random messages.
func TestMessageRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(tag uint64, op byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, tag, op, payload); err != nil {
			return false
		}
		fr, err := readFrame(&buf)
		ok := err == nil && fr.tag == tag && fr.op == op && bytes.Equal(fr.payload, payload) && buf.Len() == 0
		fr.release()
		return ok
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMessageRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxMessage)
	if err := writeFrame(&buf, 1, opWrite, big); err != ErrTooLarge {
		t.Fatalf("oversize write: %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write put %d bytes on the wire", buf.Len())
	}
}

// TestHello checks the frame every connection opens with. A server
// closes a connection whose first frame is not a valid hello without
// dispatching anything, even when requests follow it; a valid hello is
// answered and the connection then serves requests; and a client whose
// hello is refused gets an error from the dial.
func TestHello(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	hello := func(magic, version uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, magic), version)
	}
	read := rawFrame(1, opRead, encodeRead(&File{ID: 1}, stripe.Sub{Length: 16}))

	rejected := []struct {
		name  string
		first []byte
	}{
		{"wrong magic", rawFrame(0, opHello, hello(helloMagic^1, protoVersion))},
		{"wrong version", rawFrame(0, opHello, hello(helloMagic, protoVersion+1))},
		{"short hello", rawFrame(0, opHello, helloPayload[:6])},
		{"read before hello", read},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			before := ds.Stats().Reads
			nc, err := net.Dial("tcp", ds.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(append(append([]byte(nil), tc.first...), read...)); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			fr, err := readFrame(nc)
			if err == nil {
				t.Fatalf("server answered opcode %d, want the connection closed", fr.op)
			}
			if isTimeout(err) {
				t.Fatalf("server neither answered nor closed: %v", err)
			}
			if got := ds.Stats().Reads; got != before {
				t.Fatalf("Reads = %d after a refused hello, want %d", got, before)
			}
		})
	}

	t.Run("valid hello", func(t *testing.T) {
		before := ds.Stats().Reads
		nc := dialHello(t, ds.Addr())
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(read); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(nc)
		if err != nil || fr.op != opOK || fr.tag != 1 {
			t.Fatalf("read after hello: %v op=%d tag=%d", err, fr.op, fr.tag)
		}
		fr.release()
		if got := ds.Stats().Reads; got != before+1 {
			t.Fatalf("Reads = %d, want %d", got, before+1)
		}
		cn, err := dialConn(ds.Addr(), dialOpts{scope: "client"})
		if err != nil {
			t.Fatalf("client dial: %v", err)
		}
		cn.close()
	})

	t.Run("client against a mismatched version", func(t *testing.T) {
		// A peer built with another protocol version refuses this
		// client's hello the way serverHello does: by closing.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		sawHello := make(chan bool, 1)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				sawHello <- false
				return
			}
			fr, err := readFrame(nc)
			sawHello <- err == nil && fr.op == opHello && bytes.Equal(fr.payload, helloPayload)
			nc.Close()
		}()
		cn, err := dialConn(ln.Addr().String(), dialOpts{scope: "client", ioTimeout: 5 * time.Second})
		if err == nil {
			cn.close()
			t.Fatal("dial succeeded against a peer that refused the hello")
		}
		if errors.Is(err, ErrDeadline) {
			t.Fatalf("dial timed out instead of failing on the close: %v", err)
		}
		if !<-sawHello {
			t.Fatal("the peer did not receive a well-formed hello")
		}
	})

}
