package pfsnet

import (
	"encoding/binary"
	"net"
)

// BuffersWriter is the vectored-submission hook the wire path probes
// for before falling back to net.Buffers.WriteTo. A *net.TCPConn needs
// no hook (WriteTo reaches writev directly); conn wrappers that cannot
// see package net's internal buffersWriter interface — the faults
// injector's conn, for one — implement this method instead, apply their
// policy to the batch as a unit, and forward the buffers to the wrapped
// conn so the real writev still happens underneath.
//
// The contract mirrors net.Buffers.WriteTo: the implementation consumes
// *v (the caller must not reuse the buffers afterwards) and returns the
// total bytes written.
type BuffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

const (
	// arenaChunk is the size of one header arena chunk. It comes from
	// the same pool as wire payloads.
	arenaChunk = 64 << 10
	// smallPayloadMax is the coalescing threshold: payloads at or below
	// it are copied into the arena right behind their header, so a burst
	// of small frames (write/flush acks, stat replies, read requests)
	// becomes one contiguous iovec instead of a header/payload pair
	// each. Larger payloads ride as their own iovec, zero-copy.
	smallPayloadMax = 256
)

// vecWriter accumulates wire frames and submits them to the connection
// in one vectored write (writev on TCP): frame headers and small
// payloads are packed into pooled arena chunks, large payloads are
// referenced in place, and a flush hands the whole iovec list to the
// kernel in a single syscall — no per-frame copy into an intermediate
// stream buffer, no per-frame syscall.
//
// Ownership: writeFrame takes ownership of its payload (the wire
// ownership contract, DESIGN §11). Coalesced payloads are released
// immediately after the copy; referenced payloads are released by the
// flush (or abandon) that disposes of the iovec list. A vecWriter is
// single-owner: exactly one goroutine may use it.
type vecWriter struct {
	nc     net.Conn
	wm     *wireMetrics
	chunks [][]byte // pooled arena chunks; the last one is active
	used   int      // bytes used in the active chunk
	seg    int      // start of the open (not yet queued) segment
	bufs   net.Buffers
	owned  [][]byte // pooled large payloads released at flush
	frames int      // frames queued since the last flush
}

func newVecWriter(nc net.Conn, wm *wireMetrics) *vecWriter {
	return &vecWriter{nc: nc, wm: wm}
}

// closeSeg queues the active chunk's open segment as an iovec.
func (w *vecWriter) closeSeg() {
	if len(w.chunks) > 0 && w.used > w.seg {
		cur := w.chunks[len(w.chunks)-1]
		w.bufs = append(w.bufs, cur[w.seg:w.used])
		w.seg = w.used
	}
}

// ensure makes room for n contiguous arena bytes, rotating to a fresh
// chunk when the active one cannot fit them.
func (w *vecWriter) ensure(n int) {
	if len(w.chunks) > 0 && w.used+n <= len(w.chunks[len(w.chunks)-1]) {
		return
	}
	w.closeSeg()
	w.chunks = append(w.chunks, getBuf(arenaChunk))
	w.used, w.seg = 0, 0
}

// writeFrame queues one frame for the next flush. Ownership of payload
// transfers to the writer on entry — error included — and the writer
// releases it exactly once.
func (w *vecWriter) writeFrame(tag uint64, op byte, payload []byte) error {
	var hdr [13]byte
	if len(payload)+9 > MaxMessage {
		putBuf(payload)
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+9))
	binary.BigEndian.PutUint64(hdr[4:12], tag)
	hdr[12] = op
	return w.enqueue(hdr[:], payload)
}

// writeFrameCtx queues one request frame carrying a trace context:
// tagTraceFlag set on the tag, {traceID, parentSpanID} written into
// the arena right behind the header so the context always travels in
// the same iovec as the header. Same ownership contract as writeFrame.
func (w *vecWriter) writeFrameCtx(tag uint64, op byte, tcID, tcSpan uint64, payload []byte) error {
	var hdr [13 + traceCtxSize]byte
	if len(payload)+9+traceCtxSize > MaxMessage {
		putBuf(payload)
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+9+traceCtxSize))
	binary.BigEndian.PutUint64(hdr[4:12], tag|tagTraceFlag)
	hdr[12] = op
	binary.BigEndian.PutUint64(hdr[13:21], tcID)
	binary.BigEndian.PutUint64(hdr[21:29], tcSpan)
	return w.enqueue(hdr[:], payload)
}

// enqueue adds one header+payload pair to the batch, coalescing small
// payloads into the arena and referencing large ones zero-copy.
func (w *vecWriter) enqueue(hdr, payload []byte) error {
	if len(payload) <= smallPayloadMax {
		w.ensure(len(hdr) + len(payload))
		cur := w.chunks[len(w.chunks)-1]
		w.used += copy(cur[w.used:], hdr)
		w.used += copy(cur[w.used:], payload)
		putBuf(payload)
	} else {
		w.ensure(len(hdr))
		cur := w.chunks[len(w.chunks)-1]
		w.used += copy(cur[w.used:], hdr)
		w.closeSeg()
		w.bufs = append(w.bufs, payload)
		w.owned = append(w.owned, payload)
		w.wm.onCopyAvoided(len(payload))
	}
	w.frames++
	return nil
}

// flush submits every queued frame in one vectored write and releases
// the batch's buffers. A no-op when nothing is queued.
func (w *vecWriter) flush() error {
	w.closeSeg()
	if len(w.bufs) == 0 {
		return nil
	}
	// WriteTo consumes the iovec list, looping until everything is
	// written or the conn errors; on error the conn is dead and the
	// caller tears it down, so the buffers are released either way.
	var err error
	bufs := w.bufs
	if bw, ok := w.nc.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(&bufs)
	} else {
		_, err = bufs.WriteTo(w.nc)
	}
	w.wm.onWritev(w.frames)
	w.reset()
	return err
}

// abandon releases every queued buffer without writing — the owner's
// exit path for a conn that died with frames still batched.
func (w *vecWriter) abandon() { w.reset() }

// reset releases the batch's pooled memory and clears the queue.
func (w *vecWriter) reset() {
	for _, b := range w.owned {
		putBuf(b)
	}
	for _, c := range w.chunks {
		putBuf(c)
	}
	w.owned = w.owned[:0]
	w.chunks = w.chunks[:0]
	w.bufs = w.bufs[:0]
	w.used, w.seg, w.frames = 0, 0, 0
}
