// Package pfsnet implements a real, runnable striped parallel file
// system over TCP: a metadata server that places files, data servers that
// store the per-server objects, and a client that performs the PVFS2-style
// decomposition of file requests into per-server sub-requests — including
// iBridge's client-side fragment flagging, carried on the wire exactly as
// the simulator models it.
//
// The data servers implement a functional analogue of the iBridge cache:
// sub-requests flagged as fragments (or small random requests) are
// appended to a log region with a mapping table, and reads are served
// from the log when mapped. This exercises the correctness of the
// fragment path end to end with real bytes; the performance analysis
// lives in the simulator (internal/cluster), since host disks are not the
// paper's devices.
//
// Wire format: every message is one frame — a 4-byte big-endian length,
// an 8-byte request tag, a 1-byte opcode, and an opcode-specific
// payload; the length counts everything after itself. Strings and byte
// blobs inside payloads are 4-byte-length-prefixed, and all integers are
// big-endian. The requester chooses the tag and the reply echoes it, so
// many requests multiplex over one connection with out-of-order replies
// — the wire-level analogue of getting many independent sub-requests in
// flight per server at once. A request whose tag carries tagTraceFlag
// prefixes its payload with a trace context (DESIGN §12).
//
// The first frame on every connection is an opHello whose payload is
// {magic u32, version u32}. The server answers opOK. A wrong magic or
// version, a short hello, or any other first frame makes the server
// close the connection without dispatching anything. Both ends are
// built from this tree, so there is nothing to negotiate.
package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"
)

// Opcodes.
const (
	opCreate byte = iota + 1
	opOpen
	opRead
	opWrite
	opStat
	opFlush
	opOK
	opError
	opHello
	// opCancel asks a server to drop a queued request (payload: target
	// tag u64). Fire-and-forget: it never receives a reply, and a client
	// only sends it for a tag it has already abandoned, so the server
	// honouring it (by never replying to the target) is
	// indistinguishable from the reply losing the race.
	opCancel
	// opReadDirect is opRead with a routing hint: the requester is a
	// hedge re-issue and the server should prefer its direct (store)
	// path over any queue-optimised handling. Semantically identical to
	// opRead — the fragment-log overlay still applies, because hedged
	// reads must return the same bytes as the original.
	opReadDirect
)

// The hello payload: the magic identifies a pfsnet peer and the version
// this frame layout.
const (
	helloMagic   uint32 = 0x69427267 // "iBrg"
	protoVersion uint32 = 2
)

// helloPayload is the encoded {helloMagic, protoVersion} every
// connection opens with.
var helloPayload = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, helloMagic), protoVersion)

// tagTraceFlag marks a request frame carrying a trace context: the
// payload is prefixed with a traceCtxSize-byte {traceID u64,
// parentSpanID u64} that the server strips before dispatch and
// attributes its spans to. Replies never carry a context and echo the
// tag with the flag cleared. Client tags are allocated sequentially from
// 1, so bit 63 is never an ordinary tag bit.
const tagTraceFlag = uint64(1) << 63

// traceCtxSize is the encoded size of the per-frame trace context:
// traceID u64 + parentSpanID u64.
const traceCtxSize = 16

// MaxMessage bounds a single message (sub-requests are at most a striping
// unit plus headers, but trace replays may write larger spans through a
// single server).
const MaxMessage = 64 << 20

// Sentinel errors. Callers and tests classify failures with errors.Is
// instead of string-matching.
var (
	// ErrCorruptFrame reports an inbound byte stream that is not a valid
	// frame: an impossible length header, a truncated payload, or an
	// opcode the protocol state machine cannot accept. ErrTooLarge and
	// ErrShort wrap it.
	ErrCorruptFrame = errors.New("pfsnet: corrupt frame")
	// ErrDeadline reports a frame exchange that exceeded the configured
	// I/O deadline (Client.IOTimeout / ServerConfig.IOTimeout).
	ErrDeadline = errors.New("pfsnet: i/o deadline exceeded")
	// ErrServerDown reports a request refused locally because the
	// per-server breaker has marked the server degraded after
	// consecutive transport failures.
	ErrServerDown = errors.New("pfsnet: server degraded")

	ErrTooLarge = fmt.Errorf("pfsnet: message exceeds MaxMessage (%w)", ErrCorruptFrame)
	ErrShort    = fmt.Errorf("pfsnet: short/corrupt message (%w)", ErrCorruptFrame)
)

// frame is one decoded wire frame. The payload is pool-backed: call
// release (or putBuf) once the bytes have been consumed.
type frame struct {
	tag     uint64
	op      byte
	payload []byte
	enq     time.Time // set by servers when queue-wait metrics or tracing are on

	// Trace context carried by a tagTraceFlag-marked request (and
	// propagated onto the matching response frame so the respond span
	// can be attributed). The context bytes stay inside payload — body
	// strips them as a view — because putBuf only accepts buffers with
	// their original pooled capacity.
	traced bool
	tcID   uint64
	tcSpan uint64
}

// release returns the payload buffer to the pool.
func (f *frame) release() {
	putBuf(f.payload)
	f.payload = nil
}

// body returns the request payload with any trace-context prefix
// stripped. The result aliases f.payload; release the frame, not the
// body.
func (f *frame) body() []byte {
	if f.traced {
		return f.payload[traceCtxSize:]
	}
	return f.payload
}

// writeFrame frames and sends one message with a single Write. The
// pipelined paths batch frames through a vecWriter instead; this form
// sends the hello and its answer.
func writeFrame(w io.Writer, tag uint64, op byte, payload []byte) error {
	if len(payload)+9 > MaxMessage {
		return ErrTooLarge
	}
	b := make([]byte, 13, 13+len(payload))
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)+9))
	binary.BigEndian.PutUint64(b[4:12], tag)
	b[12] = op
	_, err := w.Write(append(b, payload...))
	return err
}

// readFrame reads one frame into a pooled payload buffer.
func readFrame(r io.Reader) (frame, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 9 || n > MaxMessage {
		return frame{}, ErrTooLarge
	}
	fr := frame{tag: binary.BigEndian.Uint64(hdr[4:12]), op: hdr[12]}
	fr.payload = getBuf(int(n - 9))
	if _, err := io.ReadFull(r, fr.payload); err != nil {
		fr.release()
		return frame{}, wrapTruncated(err)
	}
	return fr, nil
}

// wrapTruncated maps a mid-frame EOF onto ErrCorruptFrame: the stream
// ended inside a frame the header promised, which is a truncated (and
// therefore corrupt) frame, not a clean close. Clean EOF at a frame
// boundary passes through untouched.
func wrapTruncated(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("truncated frame: %v (%w)", err, ErrCorruptFrame)
	}
	return err
}

// Payload buffer pools, in power-of-two size classes from 1 KB to 64 MB
// (≥ MaxMessage). Steady-state reads and writes recycle their payload and
// encode buffers through these instead of allocating per message.
const (
	minBufClass = 10 // 1 KB
	maxBufClass = 26 // 64 MB
)

var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// getBuf returns a length-n buffer with pooled backing storage.
func getBuf(n int) []byte {
	if n > 1<<maxBufClass {
		return make([]byte, n)
	}
	c := minBufClass
	if n > 1<<minBufClass {
		c = bits.Len(uint(n - 1))
	}
	if p, _ := bufPools[c-minBufClass].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf returns a buffer obtained from getBuf to its size-class pool.
// nil, undersized, and oversized buffers are dropped silently (they are
// the legitimate non-pooled paths: empty frames, tiny test encoders,
// >64 MB one-offs). A buffer whose capacity falls in the pool's range
// but is not an exact power-of-two size class is *foreign*: it was not
// shaped by getBuf — typically an encoder that outgrew its class, or an
// ownership-transfer bug handing the pool somebody else's memory.
// Foreign buffers are rejected, not re-classed, and counted in
// pfsnet.pool.foreign_put so the churn shows up in metrics instead of
// as quiet heap garbage.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufClass || c > 1<<maxBufClass {
		return
	}
	if c&(c-1) != 0 {
		notePoolForeignPut()
		return
	}
	b = b[:0]
	bufPools[bits.Len(uint(c))-1-minBufClass].Put(&b)
}

// newEnc returns an encoder writing into a pooled buffer; ownership of
// the finished enc.b follows the wire ownership contract (DESIGN §11):
// hand it to an owning sink exactly once, or putBuf it yourself.
func newEnc() enc { return enc{b: getBuf(0)} }

// newEncN is newEnc with a capacity hint: the encoder starts in the
// size class that fits n bytes, so encoding n bytes never outgrows the
// class (outgrowing reallocates to a foreign capacity the pool must
// reject — see putBuf).
func newEncN(n int) enc { return enc{b: getBuf(n)[:0]} }

// enc is a tiny append-style encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) { e.bytes([]byte(v)) }

// dec is the matching decoder; it records the first error.
type dec struct {
	b   []byte
	err error
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.err = ErrShort
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.err = ErrShort
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// errorPayload encodes an error reply into a pooled buffer.
func errorPayload(err error) []byte {
	e := newEnc()
	e.str(err.Error())
	return e.b
}

// remoteError is an error the server reported (as opposed to a transport
// failure): the request reached the server, so retrying is pointless.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return fmt.Sprintf("pfsnet: remote error: %s", e.msg) }

// replyError decodes an opError payload.
func replyError(payload []byte) error {
	d := dec{b: payload}
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	return remoteError{msg: msg}
}

// serverHello reads the first frame of a connection and answers a
// valid hello with opOK. Any other first frame is an error: the caller
// closes the connection without dispatching anything.
func serverHello(nc net.Conn, br *bufio.Reader) error {
	fr, err := readFrame(br)
	if err != nil {
		return err
	}
	ok := fr.op == opHello && bytes.Equal(fr.payload, helloPayload)
	tag := fr.tag
	fr.release()
	if !ok {
		return fmt.Errorf("pfsnet: connection did not open with a valid hello (%w)", ErrCorruptFrame)
	}
	return writeFrame(nc, tag, opOK, nil)
}

// isTimeout reports whether err is a net-level deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// wrapTimeout maps net-level timeout errors onto ErrDeadline so callers
// can classify them with errors.Is; other errors pass through unchanged.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%v (%w)", err, ErrDeadline)
	}
	return err
}
