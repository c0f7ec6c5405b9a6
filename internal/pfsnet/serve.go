package pfsnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// connServer is the connection layer the data and metadata servers
// share: the accept loop, the set of open connections, and the one
// per-connection serve path. Each connection opens with the hello; then
// a demux goroutine feeds tagged frames into a bounded worker pool, the
// workers run handle concurrently, and a single response writer streams
// the tagged replies back through a vecWriter, flushing only when its
// queue runs dry — so a burst of small acks and read replies coalesces
// into one writev submission.
type connServer struct {
	name      string // log prefix
	ln        net.Listener
	workers   int
	ioTimeout time.Duration
	wm        *wireMetrics
	tracer    *obs.XTracer
	// handle executes one request and returns the reply opcode and its
	// pooled payload.
	handle func(op byte, payload []byte) (byte, []byte)

	connSeq         atomic.Int64 // per-connection trace-scope numbering
	cancelsReceived atomic.Int64
	cancelsHonored  atomic.Int64

	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// serve starts accepting connections on ln.
func (cs *connServer) serve(ln net.Listener) {
	cs.ln = ln
	cs.quit = make(chan struct{})
	cs.conns = make(map[net.Conn]struct{})
	cs.wg.Add(1)
	go cs.accept()
}

// shutdown stops accepting, severs every open connection and waits for
// the handlers to finish. Only the first call acts: it reports true and
// the listener's close error; later calls report false.
func (cs *connServer) shutdown() (bool, error) {
	var first bool
	cs.closeOnce.Do(func() { close(cs.quit); first = true })
	if !first {
		return false, nil
	}
	err := cs.ln.Close()
	// Snapshot under the lock, sever outside it: Close on a TCP conn
	// can block, and handlers need connMu to unregister themselves.
	cs.connMu.Lock()
	conns := make([]net.Conn, 0, len(cs.conns))
	for c := range cs.conns {
		//lint:allow detmaprange severing connections; close order is immaterial
		conns = append(conns, c)
	}
	cs.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	cs.wg.Wait()
	return true, err
}

func (cs *connServer) accept() {
	defer cs.wg.Done()
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			select {
			case <-cs.quit:
			default:
				log.Printf("%s: accept: %v", cs.name, err)
			}
			return
		}
		cs.connMu.Lock()
		cs.conns[conn] = struct{}{}
		cs.connMu.Unlock()
		cs.wg.Add(1)
		go cs.serveConn(conn)
	}
}

// serveConn runs one connection: the hello, then the pipeline. This
// goroutine is the demux.
func (cs *connServer) serveConn(conn net.Conn) {
	defer cs.wg.Done()
	defer func() {
		cs.connMu.Lock()
		delete(cs.conns, conn)
		cs.connMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	if cs.ioTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(cs.ioTimeout))
	}
	if serverHello(conn, br) != nil {
		return
	}
	scope := fmt.Sprintf("conn%d", cs.connSeq.Add(1))
	jobs := make(chan frame, cs.workers*2)
	resp := make(chan frame, cs.workers*2)

	// Cancellation set: the demux intercepts opCancel frames and records
	// the target tags here; workers consult it right before dispatch and
	// drop cancelled work without a reply (safe because a client only
	// cancels tags it has already abandoned). Frame order on the wire
	// guarantees the target request was demuxed — and is queued or done —
	// before its cancel arrives.
	cancels := &cancelSet{tags: make(map[uint64]struct{})}

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		cs.respond(conn, resp, scope)
	}()

	var workerWG sync.WaitGroup
	for i := 0; i < cs.workers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for fr := range jobs {
				if cancels.take(fr.tag) {
					// Cancelled while queued: drop without executing or
					// replying — the client abandoned this tag before it
					// sent the cancel.
					cs.cancelsHonored.Add(1)
					fr.release()
					continue
				}
				cs.wm.observeQueueWait(fr.enq)
				traced := cs.tracer != nil && fr.traced && !fr.enq.IsZero()
				var t0 time.Time
				if traced {
					t0 = time.Now()
					cs.tracer.Span(fr.tcID, cs.tracer.NewID(), fr.tcSpan, "queue-wait", scope, fr.enq, t0.Sub(fr.enq))
				}
				op, reply := cs.handle(fr.op, fr.body())
				out := frame{tag: fr.tag, op: op, payload: reply}
				if traced {
					now := time.Now()
					cs.tracer.Span(fr.tcID, cs.tracer.NewID(), fr.tcSpan, "store", scope, t0, now.Sub(t0))
					// The reply frame reuses the trace fields so the
					// response writer can close a "respond" span when the
					// flush that carries this reply completes.
					out.traced = true
					out.tcID, out.tcSpan = fr.tcID, fr.tcSpan
					out.enq = now
				}
				fr.release()
				resp <- out
			}
		}()
	}

	for {
		if cs.ioTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(cs.ioTimeout))
		}
		fr, err := readFrame(br)
		if err != nil {
			break
		}
		if fr.tag&tagTraceFlag != 0 {
			fr.tag &^= tagTraceFlag
			if len(fr.payload) < traceCtxSize {
				// A context too short to exist is a protocol violation,
				// not a request — drop the connection.
				fr.release()
				break
			}
			fr.traced = true
			fr.tcID = binary.BigEndian.Uint64(fr.payload[:8])
			fr.tcSpan = binary.BigEndian.Uint64(fr.payload[8:16])
		}
		cs.wm.onRx(len(fr.payload))
		if fr.op == opCancel {
			// Fire-and-forget by contract: never enters the worker pool,
			// never generates a reply.
			d := dec{b: fr.body()}
			if target := d.u64(); d.err == nil {
				cs.cancelsReceived.Add(1)
				cancels.add(target)
			}
			fr.release()
			continue
		}
		if cs.wm != nil || (cs.tracer != nil && fr.traced) {
			fr.enq = time.Now()
		}
		jobs <- fr // bounded: backpressure falls back onto TCP
	}
	close(jobs)
	workerWG.Wait()
	close(resp)
	writerWG.Wait()
}

// respCtx is the trace context a response writer holds between queueing
// a traced reply and the flush that actually puts it on the wire.
type respCtx struct {
	tcID, tcSpan uint64
	start        time.Time
}

// flushRespSpans closes one "respond" span per traced reply carried by
// the flush that just completed.
func (cs *connServer) flushRespSpans(pending []respCtx, scope string) []respCtx {
	if len(pending) == 0 {
		return pending
	}
	now := time.Now()
	for _, rc := range pending {
		cs.tracer.Span(rc.tcID, cs.tracer.NewID(), rc.tcSpan, "respond", scope, rc.start, now.Sub(rc.start))
	}
	return pending[:0]
}

// respond streams tagged replies back through the vectored writer:
// ownership of each reply payload transfers to the writer (DESIGN §11),
// small acks pack into arena chunks, large read replies ride as their
// own iovec, and the accumulated batch reaches the kernel in one writev
// when the queue runs dry.
func (cs *connServer) respond(conn net.Conn, resp chan frame, scope string) {
	vw := newVecWriter(conn, cs.wm)
	defer vw.abandon()
	broken := false
	var pending []respCtx
	for fr := range resp {
		if broken {
			putBuf(fr.payload)
			continue
		}
		n := len(fr.payload)
		if cs.tracer != nil && fr.traced {
			pending = append(pending, respCtx{fr.tcID, fr.tcSpan, fr.enq})
		}
		if vw.writeFrame(fr.tag, fr.op, fr.payload) != nil {
			broken = true
			conn.Close() // unblock the demux reader promptly
			continue
		}
		cs.wm.onTx(n)
		if len(resp) == 0 {
			if cs.ioTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(cs.ioTimeout))
			}
			if vw.flush() != nil {
				broken = true
				conn.Close()
				continue
			}
			pending = cs.flushRespSpans(pending, scope)
		}
	}
}

// cancelSet is the per-connection set of cancelled request tags. The
// demux goroutine adds, workers take; the map is bounded because honored
// cancels delete their entry and the set is cleared wholesale past
// cancelSetMax — by then the targets have long left the worker queue, so
// stale entries only waste memory. Tag reuse is impossible within a
// connection (tags are a monotonic u64).
type cancelSet struct {
	mu   sync.Mutex
	tags map[uint64]struct{}
}

// cancelSetMax bounds a connection's cancelled-tag set; see cancelSet.
const cancelSetMax = 1024

func (cs *cancelSet) add(tag uint64) {
	cs.mu.Lock()
	if len(cs.tags) >= cancelSetMax {
		clear(cs.tags)
	}
	cs.tags[tag] = struct{}{}
	cs.mu.Unlock()
}

// take reports whether tag was cancelled, consuming the entry.
func (cs *cancelSet) take(tag uint64) bool {
	cs.mu.Lock()
	_, ok := cs.tags[tag]
	if ok {
		delete(cs.tags, tag)
	}
	cs.mu.Unlock()
	return ok
}
