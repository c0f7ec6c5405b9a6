package pfsnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/sketch"
	"repro/internal/stripe"
)

// Client accesses a pfsnet file system: it asks the metadata server for
// file placement, decomposes reads and writes into per-server
// sub-requests (flagging fragments when a threshold is configured), and
// issues the sub-requests concurrently over a small per-server
// connection pool.
//
// Every pooled connection is pipelined: a single writer goroutine
// drains a send queue into a vectored writer — frame headers and small
// payloads packed into pooled arena chunks, large payloads referenced in
// place — and submits each burst with one writev, while a single reader
// goroutine demuxes tagged replies to the waiting callers (scattering
// read data straight into the caller's buffer). Payload
// buffers follow the wire ownership contract (DESIGN §11): the caller
// encodes into a pooled buffer and hands it to the connection, which
// releases it exactly once.
type Client struct {
	metaAddr string
	// FragmentThreshold enables iBridge client-side flagging when > 0.
	FragmentThreshold int64
	// RandomThreshold flags whole small requests as regular random.
	RandomThreshold int64
	// PoolSize is the number of connections kept per data server
	// (default 1). With pipelining one connection multiplexes many
	// requests, and sharing it lets the corked vectored writer batch
	// concurrent sub-requests into single writev submissions — on small
	// requests the syscall count, not bandwidth, is the bottleneck.
	// Raising it can help very large transfers spread TCP windows.
	PoolSize int
	// Obs, when set before the first request, receives wire-level
	// metrics under "pfsnet.client.*" (frames, bytes, in-flight depth,
	// send-queue wait, writev batching) and the resilience metrics
	// (retries, deadline_exceeded, breaker state). It also arms the
	// per-server latency sketches and their
	// "pfsnet.client.server.<addr>.<class>.{p50,p95,p99}" gauges.
	Obs *obs.Registry
	// Tracer, when set before the first request, records a parent span
	// per ReadAt/WriteAt and propagates its {traceID, parentSpanID}
	// context to data servers in traced frames (tagTraceFlag). Nil costs
	// one pointer test per request.
	Tracer *obs.XTracer
	// TrackLatency arms the per-server windowed latency sketches even
	// without a metrics registry, so LatencySnapshot works standalone
	// (the straggler-aware read path's input).
	TrackLatency bool
	// SlowLog, when set before the first request, receives one JSON
	// line per ReadAt/WriteAt whose latency exceeds the op class's
	// sketch-derived p99 (after slowLogMinSamples observations warm the
	// sketch), with per-fragment server timings — a "wide event" for
	// tail debugging.
	SlowLog io.Writer

	// DialTimeout bounds connection establishment (0 = no timeout).
	DialTimeout time.Duration
	// IOTimeout bounds each frame exchange on a connection: the hello,
	// and how long a pending reply may remain unanswered before the
	// connection is declared dead with ErrDeadline. 0 disables I/O
	// deadlines.
	IOTimeout time.Duration
	// RequestTimeout bounds one data sub-request across all retry
	// attempts (0 = no bound beyond the per-attempt IOTimeout).
	RequestTimeout time.Duration
	// MaxRetries is the number of additional attempts after a transport
	// failure of an idempotent data sub-request. NewClient defaults it
	// to 2; set -1 to disable retries.
	MaxRetries int
	// RetryBackoff is the base pause before the first retry; each
	// further attempt doubles it up to RetryBackoffMax, plus
	// deterministic jitter drawn from Seed. NewClient defaults these to
	// 2ms and 100ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// BreakerThreshold is the run of consecutive transport failures
	// after which a data server is marked degraded: further requests
	// fail fast with ErrServerDown while a single probe per window
	// checks for recovery. NewClient defaults it to 4; set -1 to
	// disable the breaker.
	BreakerThreshold int
	// Seed feeds the deterministic retry jitter (and is the knob that
	// makes two chaos runs sleep identically).
	Seed uint64
	// FaultPlan, when set before the first request, injects the plan's
	// connection faults into every connection this client dials;
	// FaultScope labels them (default "client"). Hedge connections are
	// labelled FaultScope+"-hedge", so a scoped latency clause can slow
	// the primary path while the hedge path stays fast — the
	// deterministic straggler for the A/B experiments.
	FaultPlan  *faults.Plan
	FaultScope string

	// Hedge enables straggler-aware hedged reads (set before the first
	// request): each read sub-request on a pipelined connection arms a
	// timer at the (server, read) sketch's HedgeQuantile; if the primary
	// has not answered by then, the read is re-issued on a separate
	// hedge connection as opReadDirect, the first reply wins, and the
	// loser is abandoned and cancelled server-side. Writes never hedge —
	// only reads are idempotent under duplicated execution order.
	// Disabled, the read path is bit-identical to the unhedged client.
	Hedge bool
	// HedgeQuantile is the sketch quantile the hedge timer fires at
	// (default 0.95). The delay is clamped to
	// [HedgeDelayFloor, HedgeDelayCap].
	HedgeQuantile float64
	// HedgeDelay, when positive, fixes the hedge timer outright,
	// bypassing the sketch — the knob that makes hedge timing
	// deterministic in tests and chaos runs.
	HedgeDelay time.Duration
	// HedgeDelayFloor/HedgeDelayCap bound the sketch-derived hedge delay
	// (defaults 2ms and 1s). A cold sketch falls back to the server's
	// T_i load hint scaled conservatively, or to the cap.
	HedgeDelayFloor time.Duration
	HedgeDelayCap   time.Duration
	// HedgeBudget caps hedges in flight across the whole client
	// (default 16) so a cluster-wide slowdown cannot double offered
	// load: with no token available the read falls open to a plain
	// unhedged wait and hedges_suppressed counts it. -1 removes the cap.
	HedgeBudget int

	attempts  atomic.Uint64 // retry-jitter sequence
	openCount atomic.Int64  // breakers currently open, for the gauge

	hedgeOnce sync.Once    // arms the token bucket from HedgeBudget
	hedgeTok  atomic.Int64 // hedge tokens currently available

	mu       sync.Mutex
	wm       *wireMetrics
	rm       *resilienceMetrics
	hm       *hedgeMetrics
	meta     *conn
	data     map[string][]*conn
	hdata    map[string]*conn // hedge connections, one per server
	next     map[string]int
	breakers map[string]*breaker

	// hintMu guards the T_i load-hint vector (server address → expected
	// service time, milliseconds) the metadata server broadcasts on
	// Create/Open replies; cold sketches fall back to it for issue
	// ordering and hedge delays.
	hintMu sync.Mutex
	hints  map[string]float64

	// latMu guards the lazily created latency sketches; slowMu
	// serializes SlowLog writes so concurrent slow events cannot
	// interleave JSON lines.
	latMu    sync.Mutex
	sketches map[latKey]*sketch.Sketch
	parentSk map[string]*sketch.Sketch
	slowMu   sync.Mutex
}

// Resilience defaults applied by NewClient. Overridable per client; -1
// disables the corresponding mechanism.
const (
	defaultMaxRetries       = 2
	defaultRetryBackoff     = 2 * time.Millisecond
	defaultRetryBackoffMax  = 100 * time.Millisecond
	defaultBreakerThreshold = 4
)

var errConnClosed = errors.New("pfsnet: connection closed")

// conn is one pooled connection. After the hello it runs a writer and a
// reader goroutine and multiplexes tagged calls.
type conn struct {
	nc        net.Conn
	wm        *wireMetrics
	br        *bufio.Reader
	ioTimeout time.Duration

	sendq   chan *wireCall
	dead    chan struct{}
	pendMu  sync.Mutex
	pending map[uint64]*wireCall
	nextTag uint64
	failed  error // set once, under pendMu, when the conn dies
}

// wireCall is one in-flight tagged request. Batch submission links
// calls through next: the chain is registered as a unit and the head
// alone crosses the send queue, so a striped request costs one channel
// operation and one flush however many sub-requests it fans into.
type wireCall struct {
	tag     uint64
	op      byte
	payload []byte    // pooled; owned by the conn once started
	next    *wireCall // rest of a batch chain
	enq     time.Time // for the queue-wait metric; zero when obs is off
	done    chan struct{}

	// tcID/tcSpan, when tcID is nonzero, make the writer emit this call
	// as a traced frame (trace context behind the header).
	tcID, tcSpan uint64

	// scatter, when non-nil, asks the reader to deposit a successful
	// read reply's data directly here instead of a pooled intermediate;
	// scattered reports it did, scatterN how many bytes.
	scatter   []byte
	scattered bool
	scatterN  int

	replyOp byte
	reply   []byte // pooled; the waiter releases it
	err     error
}

const connBufSize = 64 << 10

// dialOpts carries the per-client connection settings into dialConn.
type dialOpts struct {
	wm          *wireMetrics
	dialTimeout time.Duration
	ioTimeout   time.Duration
	plan        *faults.Plan
	scope       string
}

// dialOpts snapshots the client's connection settings (set before the
// first request, per the field contracts, so reading them unlocked is
// race-free).
func (c *Client) dialOpts(wm *wireMetrics) dialOpts {
	scope := c.FaultScope
	if scope == "" {
		scope = "client"
	}
	return dialOpts{
		wm:          wm,
		dialTimeout: c.DialTimeout,
		ioTimeout:   c.IOTimeout,
		plan:        c.FaultPlan,
		scope:       scope,
	}
}

// dialConn connects to addr, exchanges the hello and starts the
// connection's pipeline. The dial is bounded by o.dialTimeout and the
// hello by o.ioTimeout; a fault plan, when armed, injects its dial
// refusals and wraps the new connection.
func dialConn(addr string, o dialOpts) (*conn, error) {
	nc, err := o.plan.Dial(o.scope, "tcp", addr, o.dialTimeout)
	if err != nil {
		return nil, wrapTimeout(err)
	}
	c := &conn{
		nc:        nc,
		wm:        o.wm,
		br:        bufio.NewReaderSize(nc, connBufSize),
		ioTimeout: o.ioTimeout,
	}
	if c.ioTimeout > 0 {
		nc.SetDeadline(time.Now().Add(c.ioTimeout))
	}
	if err := c.hello(); err != nil {
		nc.Close()
		return nil, wrapTimeout(err)
	}
	if c.ioTimeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	c.sendq = make(chan *wireCall, 128)
	c.dead = make(chan struct{})
	c.pending = make(map[uint64]*wireCall)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// hello sends the opening frame in one write and waits for the
// server's opOK. A server that rejects the hello closes the connection,
// which surfaces here as a read error.
func (c *conn) hello() error {
	if err := writeFrame(c.nc, 0, opHello, helloPayload); err != nil {
		return err
	}
	fr, err := readFrame(c.br)
	if err != nil {
		return fmt.Errorf("pfsnet: hello: %w", wrapTruncated(err))
	}
	defer fr.release()
	if fr.op != opOK {
		return fmt.Errorf("pfsnet: hello answered with opcode %d (%w)", fr.op, ErrCorruptFrame)
	}
	return nil
}

// releaseChain returns every payload of a batch chain to the pool.
func releaseChain(w *wireCall) {
	for ; w != nil; w = w.next {
		putBuf(w.payload)
		w.payload = nil
	}
}

// drainSendq releases the payloads of calls still queued when the conn
// dies, so a killed conn cannot race a caller that has already been
// failed by kill and moved on.
func drainSendq(sendq chan *wireCall) {
	for {
		select {
		case w := <-sendq:
			releaseChain(w)
		default:
			return
		}
	}
}

// writeLoop drains the send queue onto the wire through a vecWriter:
// frame headers and small payloads pack into arena chunks, large
// payloads are referenced zero-copy, and each burst goes to the kernel
// in a single writev when the queue runs dry. The loop owns each queued
// call's payload (ownership transferred at start/startBatch) and
// releases it exactly once — after the write, or on exit for calls
// still queued when the conn dies.
func (c *conn) writeLoop() {
	vw := newVecWriter(c.nc, c.wm)
	defer vw.abandon()
	defer drainSendq(c.sendq)
	for {
		select {
		case <-c.dead:
			return
		case w := <-c.sendq:
			for ; w != nil; w = w.next {
				c.wm.observeQueueWait(w.enq)
				n := len(w.payload)
				var err error
				if w.tcID != 0 {
					err = vw.writeFrameCtx(w.tag, w.op, w.tcID, w.tcSpan, w.payload)
				} else {
					err = vw.writeFrame(w.tag, w.op, w.payload)
				}
				w.payload = nil
				if err != nil {
					releaseChain(w.next)
					c.kill(err)
					return
				}
				c.wm.onTx(n)
			}
			if len(c.sendq) == 0 {
				if c.ioTimeout > 0 {
					c.nc.SetWriteDeadline(time.Now().Add(c.ioTimeout))
				}
				if err := vw.flush(); err != nil {
					c.kill(wrapTimeout(err))
					return
				}
			}
		}
	}
}

// pendingCount returns the number of registered in-flight calls.
func (c *conn) pendingCount() int {
	c.pendMu.Lock()
	n := len(c.pending)
	c.pendMu.Unlock()
	return n
}

// readLoop demuxes tagged replies to their waiting callers, scattering
// read data directly into caller buffers when the call asked for it.
// With an I/O timeout configured it arms a read deadline whenever
// replies are outstanding: a deadline expiring with calls pending means
// the server has gone quiet mid-exchange, and the conn is killed with
// ErrDeadline so every waiter unblocks promptly instead of stalling
// forever.
func (c *conn) readLoop() {
	for {
		if c.ioTimeout > 0 {
			if c.pendingCount() > 0 {
				c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
			} else {
				c.nc.SetReadDeadline(time.Time{})
			}
		}
		var hdr [13]byte
		if nr, err := io.ReadFull(c.br, hdr[:]); err != nil {
			if isTimeout(err) && nr == 0 && c.pendingCount() == 0 {
				// The deadline outlived the exchange it guarded; the conn
				// is idle and at a frame boundary, so keep serving it.
				continue
			}
			c.kill(wrapTimeout(wrapTruncated(err)))
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n < 9 || n > MaxMessage {
			c.kill(ErrTooLarge)
			return
		}
		tag := binary.BigEndian.Uint64(hdr[4:12])
		op := hdr[12]
		plen := int(n) - 9
		// Claim the waiter before touching the payload: once the tag is
		// out of pending, kill can no longer race this goroutine for the
		// call, so scattering into the caller's buffer is single-writer
		// and done is closed exactly once.
		c.pendMu.Lock()
		w := c.pending[tag]
		delete(c.pending, tag)
		np := len(c.pending)
		c.pendMu.Unlock()
		if w != nil && w.scatter != nil && op == opOK && plen >= 4 && plen-4 <= len(w.scatter) {
			if err := c.scatterInto(w, plen); err != nil {
				w.err = err
				close(w.done)
				c.kill(err)
				return
			}
			c.wm.onRx(plen)
			c.wm.onScatter(w.scatterN)
			c.wm.setInflight(np)
			close(w.done)
			continue
		}
		payload := getBuf(plen)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			putBuf(payload)
			err = wrapTimeout(wrapTruncated(err))
			if w != nil {
				w.err = err
				close(w.done)
			}
			c.kill(err)
			return
		}
		c.wm.onRx(plen)
		if w == nil {
			putBuf(payload) // reply for an abandoned tag
			continue
		}
		c.wm.setInflight(np)
		w.replyOp = op
		w.reply = payload
		close(w.done)
	}
}

// scatterInto reads a read-reply payload (u32 length + data) of plen
// bytes directly into w.scatter, bypassing the pooled intermediate. The
// caller guarantees plen-4 fits the scatter buffer.
func (c *conn) scatterInto(w *wireCall, plen int) error {
	var lp [4]byte
	if _, err := io.ReadFull(c.br, lp[:]); err != nil {
		return wrapTimeout(wrapTruncated(err))
	}
	dn := int(binary.BigEndian.Uint32(lp[:]))
	if dn != plen-4 {
		return fmt.Errorf("pfsnet: read reply blob of %d bytes does not fill its frame (%w)", dn, ErrCorruptFrame)
	}
	if _, err := io.ReadFull(c.br, w.scatter[:dn]); err != nil {
		return wrapTimeout(wrapTruncated(err))
	}
	w.replyOp = opOK
	w.scattered = true
	w.scatterN = dn
	return nil
}

// kill marks the conn dead, closes the socket, and fails every pending
// call so no waiter ever hangs on a broken connection.
func (c *conn) kill(err error) {
	c.pendMu.Lock()
	if c.failed != nil {
		c.pendMu.Unlock()
		return
	}
	c.failed = err
	close(c.dead)
	waiters := make([]*wireCall, 0, len(c.pending))
	for tag, w := range c.pending {
		delete(c.pending, tag)
		//lint:allow detmaprange waiters each unblock independently; completion order is unobservable
		waiters = append(waiters, w)
	}
	c.pendMu.Unlock()
	// Socket close and waiter wake-ups happen outside pendMu: Close can
	// block in the kernel, and a woken waiter may immediately issue a
	// follow-up call that needs the lock.
	c.nc.Close()
	for _, w := range waiters {
		w.err = err
		close(w.done)
	}
	c.wm.setInflight(0)
}

// close shuts the connection down. Pending calls fail with
// errConnClosed.
func (c *conn) close() { c.kill(errConnClosed) }

// call performs one request/reply exchange. Ownership of payload (a
// pooled buffer) transfers to the conn on entry — the conn releases it
// exactly once, on every path. The pooled reply belongs to the caller,
// who putBufs it once decoded.
func (c *conn) call(op byte, payload []byte) ([]byte, error) {
	reply, _, err := c.exchange(op, payload, nil, 0, 0)
	return reply, err
}

// exchange is call with an optional scatter destination (a non-nil dst
// asks for a successful read reply's data to land directly in dst, in
// which case the reply is nil and the int result is the byte count) and
// an optional trace context (tcID nonzero).
func (c *conn) exchange(op byte, payload, dst []byte, tcID, tcSpan uint64) ([]byte, int, error) {
	w := &wireCall{op: op, payload: payload, scatter: dst, done: make(chan struct{}), tcID: tcID, tcSpan: tcSpan}
	if err := c.start(w); err != nil {
		return nil, 0, err
	}
	<-w.done
	return c.finishCall(w)
}

// start registers w and hands it (payload ownership included) to the
// writer. On a failed conn the payload is released and the conn's
// terminal error returned; otherwise w.done will be closed by the
// reader or by kill.
func (c *conn) start(w *wireCall) error {
	c.pendMu.Lock()
	if c.failed != nil {
		err := c.failed
		c.pendMu.Unlock()
		putBuf(w.payload)
		w.payload = nil
		return err
	}
	c.nextTag++
	w.tag = c.nextTag
	c.pending[w.tag] = w
	n := len(c.pending)
	c.pendMu.Unlock()
	c.wm.setInflight(n)
	if c.wm != nil {
		w.enq = time.Now()
	}
	select {
	case c.sendq <- w:
		// The writer (or its exit drain) now owns w.payload.
	case <-c.dead:
		// kill covers every registered call, including this one; the
		// payload never reached the writer.
		putBuf(w.payload)
		w.payload = nil
	}
	c.armReadDeadline()
	return nil
}

// startBatch registers a whole batch of calls and hands the chain to
// the writer through a single send-queue operation, so every frame of a
// striped request lands in one corked flush. Ownership of every payload
// transfers on entry, success or failure.
func (c *conn) startBatch(calls []*wireCall) error {
	c.pendMu.Lock()
	if c.failed != nil {
		err := c.failed
		c.pendMu.Unlock()
		for _, w := range calls {
			putBuf(w.payload)
			w.payload = nil
		}
		return err
	}
	var enq time.Time
	if c.wm != nil {
		enq = time.Now()
	}
	for i, w := range calls {
		c.nextTag++
		w.tag = c.nextTag
		w.enq = enq
		c.pending[w.tag] = w
		if i+1 < len(calls) {
			w.next = calls[i+1]
		}
	}
	n := len(c.pending)
	c.pendMu.Unlock()
	c.wm.setInflight(n)
	select {
	case c.sendq <- calls[0]:
	case <-c.dead:
		releaseChain(calls[0])
	}
	c.armReadDeadline()
	return nil
}

// armReadDeadline pushes the reader's deadline out to cover a freshly
// started exchange. SetReadDeadline interrupts a Read already blocked
// with no deadline, so this re-arms a reader idling on a quiet conn.
func (c *conn) armReadDeadline() {
	if c.ioTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
}

// finishCall maps a completed wireCall to (reply, scatteredBytes, error).
func (c *conn) finishCall(w *wireCall) ([]byte, int, error) {
	if w.err != nil {
		return nil, 0, w.err
	}
	if w.scattered {
		return nil, w.scatterN, nil
	}
	reply, err := finishReply(w.replyOp, w.reply)
	return reply, 0, err
}

// finishReply maps a reply frame to (payload, error), releasing the
// pooled payload on the error paths.
func finishReply(op byte, payload []byte) ([]byte, error) {
	switch op {
	case opOK:
		return payload, nil
	case opError:
		err := replyError(payload)
		putBuf(payload)
		return nil, err
	default:
		putBuf(payload)
		return nil, fmt.Errorf("pfsnet: unexpected reply opcode %d (%w)", op, ErrCorruptFrame)
	}
}

// File is an open pfsnet file handle.
type File struct {
	ID      uint64
	Name    string
	Size    int64
	layout  stripe.Layout
	servers []string
}

// Layout returns the file's striping layout.
func (f *File) Layout() stripe.Layout { return f.layout }

// NewClient returns a client of the file system whose metadata server is
// at metaAddr, with the default resilience policy armed (bounded retries
// with backoff, per-server breaker; no deadlines unless configured).
func NewClient(metaAddr string) *Client {
	return &Client{
		metaAddr:         metaAddr,
		PoolSize:         1,
		MaxRetries:       defaultMaxRetries,
		RetryBackoff:     defaultRetryBackoff,
		RetryBackoffMax:  defaultRetryBackoffMax,
		BreakerThreshold: defaultBreakerThreshold,
		data:             make(map[string][]*conn),
		next:             make(map[string]int),
		breakers:         make(map[string]*breaker),
	}
}

// NewIBridgeClient returns a client with fragment flagging enabled at the
// given thresholds (20 KB in the paper).
func NewIBridgeClient(metaAddr string, fragmentThreshold, randomThreshold int64) *Client {
	c := NewClient(metaAddr)
	c.FragmentThreshold = fragmentThreshold
	c.RandomThreshold = randomThreshold
	return c
}

// Close closes all pooled connections. It always returns nil.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta != nil {
		c.meta.close()
		c.meta = nil
	}
	for addr, pool := range c.data {
		for _, cn := range pool {
			cn.close()
		}
		delete(c.data, addr)
	}
	for addr, cn := range c.hdata {
		cn.close()
		delete(c.hdata, addr)
	}
	return nil
}

// wireMetricsLocked lazily resolves the client's wire metrics (c.mu
// held).
func (c *Client) wireMetricsLocked() *wireMetrics {
	if c.wm == nil && c.Obs != nil {
		c.wm = newWireMetrics(c.Obs, "pfsnet.client.")
	}
	return c.wm
}

// resMetrics lazily resolves the client's resilience metrics; nil when
// Obs is unset (all methods on a nil *resilienceMetrics are no-ops).
func (c *Client) resMetrics() *resilienceMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rm == nil && c.Obs != nil {
		c.rm = newResilienceMetrics(c.Obs)
	}
	return c.rm
}

// breakerFor returns addr's breaker, creating it lazily; nil when the
// breaker is disabled (every method on a nil *breaker is a no-op).
func (c *Client) breakerFor(addr string) *breaker {
	if c.BreakerThreshold < 0 {
		return nil
	}
	th := c.BreakerThreshold
	if th == 0 {
		th = defaultBreakerThreshold
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breakers == nil {
		c.breakers = make(map[string]*breaker)
	}
	b := c.breakers[addr]
	if b == nil {
		b = &breaker{threshold: th}
		c.breakers[addr] = b
	}
	return b
}

// ServerDegraded reports whether the client's breaker currently marks
// the data server at addr degraded.
func (c *Client) ServerDegraded(addr string) bool {
	c.mu.Lock()
	b := c.breakers[addr]
	c.mu.Unlock()
	return b.isOpen()
}

// latKey identifies one per-server, per-op-class latency sketch.
type latKey struct {
	addr, class string
}

// slowLogMinSamples is the sketch warm-up before slow-request wide
// events fire: below it the p99 estimate is noise and every early
// request would log itself.
const slowLogMinSamples = 20

// opClass names the latency class of a data opcode.
func opClass(op byte) string {
	switch op {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opFlush:
		return "flush"
	default:
		return "other"
	}
}

// latArmed reports whether per-server latency sketches are on. Reads
// fields set before the first request, so it is race-free unlocked.
// Hedging arms them implicitly: the hedge timer is a sketch quantile.
func (c *Client) latArmed() bool { return c.TrackLatency || c.Obs != nil || c.Hedge }

// sketchFor returns the windowed latency sketch for (addr, class),
// creating it — and, when a registry is attached, its three quantile
// gauges — on first use. Nil when latency tracking is off: the hot
// path pays two pointer tests and nothing else.
func (c *Client) sketchFor(addr, class string) *sketch.Sketch {
	if !c.latArmed() {
		return nil
	}
	k := latKey{addr, class}
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.sketches == nil {
		c.sketches = make(map[latKey]*sketch.Sketch)
	}
	sk := c.sketches[k]
	if sk == nil {
		sk = sketch.New(0, 0)
		c.sketches[k] = sk
		if c.Obs != nil {
			prefix := "pfsnet.client.server." + addr + "." + class + "."
			for _, g := range []struct {
				name string
				q    float64
			}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
				q := g.q
				c.Obs.RegisterFunc(prefix+g.name, func() float64 { return sk.Quantile(q) })
			}
		}
	}
	return sk
}

// parentSketch returns the whole-request latency sketch for an op
// class — the reference distribution slow-request events compare
// against. Kept separate from the per-server sketches so fan-out
// requests do not skew per-server tails.
func (c *Client) parentSketch(class string) *sketch.Sketch {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.parentSk == nil {
		c.parentSk = make(map[string]*sketch.Sketch)
	}
	sk := c.parentSk[class]
	if sk == nil {
		sk = sketch.New(0, 0)
		c.parentSk[class] = sk
	}
	return sk
}

// ServerLatency is one row of LatencySnapshot: the recent (windowed)
// latency quantiles the client has observed against one data server
// for one op class, in milliseconds.
type ServerLatency struct {
	Server string
	Class  string
	Count  int64
	P50    float64
	P95    float64
	P99    float64
}

// LatencySnapshot returns the client's current per-server latency
// estimates, sorted by (Server, Class). The straggler-aware read path
// consumes this to pick hedging targets; tests use it to see a skewed
// server separate from its peers.
func (c *Client) LatencySnapshot() []ServerLatency {
	c.latMu.Lock()
	keys := make([]latKey, 0, len(c.sketches))
	for k := range c.sketches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return keys[i].class < keys[j].class
	})
	sks := make([]*sketch.Sketch, len(keys))
	for i, k := range keys {
		sks[i] = c.sketches[k]
	}
	c.latMu.Unlock()
	rows := make([]ServerLatency, len(keys))
	for i, k := range keys {
		qs := sks[i].Quantiles(0.50, 0.95, 0.99)
		rows[i] = ServerLatency{
			Server: k.addr, Class: k.class,
			Count: sks[i].Count(),
			P50:   qs[0], P95: qs[1], P99: qs[2],
		}
	}
	return rows
}

// FragTiming is one fragment (sub-request) line of a slow-request wide
// event: which server it went to, where, how long it took.
type FragTiming struct {
	Server string  `json:"server"`
	Off    int64   `json:"off"`
	Len    int64   `json:"len"`
	MS     float64 `json:"ms"`
	Err    string  `json:"err,omitempty"`
}

// parentReq is the per-ReadAt/WriteAt context threaded through the
// fan-out: the trace ids propagated to servers, and the per-fragment
// timings a slow-request event reports. Nil when neither tracing nor
// the slow log is armed — every touch point is pointer-guarded.
type parentReq struct {
	op    string
	class string
	trace uint64
	span  uint64
	start time.Time

	hedgesFired atomic.Int64
	hedgesWon   atomic.Int64

	mu    sync.Mutex
	frags []FragTiming
}

// noteHedge records a hedge fired under this parent request (won=false
// at issue time, won=true when the hedge reply beats the primary) for
// the slow-log wide event.
func (pr *parentReq) noteHedge(won bool) {
	if pr == nil {
		return
	}
	if won {
		pr.hedgesWon.Add(1)
	} else {
		pr.hedgesFired.Add(1)
	}
}

func (pr *parentReq) addFrag(server string, sub stripe.Sub, d time.Duration, err error) {
	if pr == nil {
		return
	}
	ft := FragTiming{Server: server, Off: sub.ServerOff, Len: sub.Length, MS: float64(d) / 1e6}
	if err != nil {
		ft.Err = err.Error()
	}
	pr.mu.Lock()
	pr.frags = append(pr.frags, ft)
	pr.mu.Unlock()
}

// startParent opens the per-request context, or returns nil when no
// observer wants it.
func (c *Client) startParent(op, class string) *parentReq {
	if c.Tracer == nil && c.SlowLog == nil {
		return nil
	}
	pr := &parentReq{op: op, class: class, start: time.Now()}
	if c.Tracer != nil {
		pr.trace = c.Tracer.NewID()
		pr.span = c.Tracer.NewID()
	}
	return pr
}

// slowEvent is the JSON shape of one slow-request wide event.
type slowEvent struct {
	TS    string  `json:"ts"`
	Op    string  `json:"op"`
	Trace string  `json:"trace,omitempty"`
	Off   int64   `json:"off"`
	Len   int64   `json:"len"`
	MS    float64 `json:"ms"`
	P99MS float64 `json:"p99_ms"`
	Err   string  `json:"err,omitempty"`
	// Hedge counters for this request: fired counts every hedge issued,
	// won those whose reply beat the primary.
	HedgesFired int64        `json:"hedges_fired,omitempty"`
	HedgesWon   int64        `json:"hedges_won,omitempty"`
	Frags       []FragTiming `json:"frags,omitempty"`
}

// finishParent closes the per-request context: it emits the client
// parent span and, when the request ran past the op class's current
// p99 (sampled before this request joins the distribution, so one
// slow request cannot raise its own bar), one wide-event JSON line
// with the per-fragment timings.
func (c *Client) finishParent(pr *parentReq, off, length int64, err error) {
	if pr == nil {
		return
	}
	dur := time.Since(pr.start)
	c.Tracer.Span(pr.trace, pr.span, 0, pr.op, pr.class, pr.start, dur)
	if c.SlowLog == nil {
		return
	}
	sk := c.parentSketch(pr.class)
	ms := float64(dur) / 1e6
	n := sk.Count()
	p99 := sk.Quantile(0.99)
	sk.Observe(ms)
	if n < slowLogMinSamples || ms <= p99 {
		return
	}
	pr.mu.Lock()
	frags := append([]FragTiming(nil), pr.frags...)
	pr.mu.Unlock()
	sort.Slice(frags, func(i, j int) bool {
		if frags[i].Server != frags[j].Server {
			return frags[i].Server < frags[j].Server
		}
		return frags[i].Off < frags[j].Off
	})
	ev := slowEvent{
		TS: time.Now().UTC().Format(time.RFC3339Nano),
		Op: pr.op, Off: off, Len: length,
		MS: ms, P99MS: p99, Frags: frags,
		HedgesFired: pr.hedgesFired.Load(),
		HedgesWon:   pr.hedgesWon.Load(),
	}
	if pr.trace != 0 {
		ev.Trace = fmt.Sprintf("%016x", pr.trace)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	line, jerr := json.Marshal(ev)
	if jerr != nil {
		return
	}
	line = append(line, '\n')
	c.slowMu.Lock()
	c.SlowLog.Write(line) //lint:allow lockio slowMu exists only to keep wide-event lines atomic; cold path, past-p99 requests only
	c.slowMu.Unlock()
}

func (c *Client) metaConn() (*conn, error) {
	c.mu.Lock()
	if c.meta != nil {
		cn := c.meta
		c.mu.Unlock()
		return cn, nil
	}
	wm := c.wireMetricsLocked()
	c.mu.Unlock()
	// Dial outside the lock: the hello is a network round trip.
	cn, err := dialConn(c.metaAddr, c.dialOpts(wm))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta != nil { // lost a dial race; keep the winner
		cn.close()
		return c.meta, nil
	}
	c.meta = cn
	return cn, nil
}

// dataConn returns a pooled connection to addr, dialling lazily and
// rotating round-robin through the pool.
func (c *Client) dataConn(addr string) (*conn, error) {
	c.mu.Lock()
	size := c.PoolSize
	if size <= 0 {
		size = 1
	}
	pool := c.data[addr]
	if len(pool) >= size {
		i := c.next[addr] % len(pool)
		c.next[addr] = i + 1
		cn := pool[i]
		c.mu.Unlock()
		return cn, nil
	}
	wm := c.wireMetricsLocked()
	c.mu.Unlock()
	cn, err := dialConn(addr, c.dialOpts(wm))
	c.mu.Lock()
	defer c.mu.Unlock()
	pool = c.data[addr]
	if err != nil {
		if len(pool) > 0 {
			return pool[0], nil // degrade to what we have
		}
		return nil, err
	}
	if len(pool) >= size { // lost a dial race and the pool filled up
		cn.close()
		i := c.next[addr] % len(pool)
		c.next[addr] = i + 1
		return pool[i], nil
	}
	c.data[addr] = append(pool, cn)
	return cn, nil
}

// dropDataConn discards a broken pooled connection so the next call
// redials.
func (c *Client) dropDataConn(addr string, cn *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.data[addr]
	for i, have := range pool {
		if have == cn {
			cn.close()
			c.data[addr] = append(pool[:i], pool[i+1:]...)
			return
		}
	}
}

// dataCall performs one request against a data server under the client's
// resilience policy: up to MaxRetries additional attempts on transport
// failures (read and write sub-requests are idempotent, so retries are
// safe), bounded exponential backoff with deterministic jitter between
// attempts, a RequestTimeout budget across the whole sequence, and a
// per-server breaker that fails fast with ErrServerDown once addr has
// accumulated consecutive transport failures. Server-reported (remote)
// errors are never retried — the request reached the server, which also
// proves the server alive, so they count as breaker successes.
//
// encode builds the request payload; it runs once per attempt because
// ownership of the encoded buffer transfers to the connection (DESIGN
// §11), so a retry needs a fresh one. dst, when non-nil, enables the
// scatter-read path of conn.exchange.
func (c *Client) dataCall(addr string, op byte, encode func() []byte, dst []byte, pr *parentReq) ([]byte, int, error) {
	rm := c.resMetrics()
	b := c.breakerFor(addr)
	sk := c.sketchFor(addr, opClass(op))
	retries := c.MaxRetries
	if retries < 0 {
		retries = 0
	}
	var deadline time.Time
	if c.RequestTimeout > 0 {
		deadline = time.Now().Add(c.RequestTimeout)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		probe, err := b.acquire(addr)
		if err != nil {
			rm.onFastFail()
			return nil, 0, err
		}
		var t0 time.Time
		if sk != nil {
			t0 = time.Now()
		}
		reply, n, err := c.tryDataCall(addr, op, encode, dst, pr)
		if err == nil {
			if sk != nil {
				// One observation per successful attempt: what this server
				// actually delivered, not the whole retry sequence.
				sk.Observe(float64(time.Since(t0)) / 1e6)
			}
			c.recordOutcome(b, rm, probe, true)
			return reply, n, nil
		}
		if _, isRemote := err.(remoteError); isRemote {
			c.recordOutcome(b, rm, probe, true)
			return nil, 0, err
		}
		c.recordOutcome(b, rm, probe, false)
		if errors.Is(err, ErrDeadline) {
			rm.onDeadline()
		}
		lastErr = err
		if attempt >= retries {
			return nil, 0, lastErr
		}
		d := c.backoffDelay(attempt)
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			rm.onDeadline()
			return nil, 0, fmt.Errorf("pfsnet: %s: request budget exhausted after %d attempts (%w): %v",
				addr, attempt+1, ErrDeadline, lastErr)
		}
		rm.onRetry()
		if d > 0 {
			time.Sleep(d)
		}
	}
}

// tryDataCall is one attempt of a data request: take a pooled conn,
// exchange, and drop the conn from the pool if the transport failed
// under it so the next attempt redials.
func (c *Client) tryDataCall(addr string, op byte, encode func() []byte, dst []byte, pr *parentReq) ([]byte, int, error) {
	cn, err := c.dataConn(addr)
	if err != nil {
		return nil, 0, err
	}
	var tcID, tcSpan uint64
	if pr != nil {
		tcID, tcSpan = pr.trace, pr.span
	}
	var reply []byte
	var n int
	if c.hedgeEligible(op) {
		reply, n, err = c.hedgedExchange(addr, cn, encode, dst, tcID, tcSpan, pr)
	} else {
		reply, n, err = cn.exchange(op, encode(), dst, tcID, tcSpan)
	}
	if err != nil {
		if _, isRemote := err.(remoteError); !isRemote {
			c.dropDataConn(addr, cn)
		}
		return nil, 0, err
	}
	return reply, n, nil
}

// recordOutcome feeds an attempt result to the breaker and keeps the
// open-breaker metrics in step with its state transitions.
func (c *Client) recordOutcome(b *breaker, rm *resilienceMetrics, probe, ok bool) {
	opened, closed := b.record(probe, ok)
	if opened {
		rm.onOpen(c.openCount.Add(1))
	}
	if closed {
		rm.onClose(c.openCount.Add(-1))
	}
}

// backoffDelay computes the pause before the retry following attempt
// (0-based): RetryBackoff·2^attempt capped at RetryBackoffMax, plus
// deterministic jitter of up to half the step drawn from the client
// Seed and a global attempt sequence — bounded exponential backoff
// whose timing is a pure function of the client's failure history.
func (c *Client) backoffDelay(attempt int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		return 0
	}
	maxd := c.RetryBackoffMax
	if maxd <= 0 {
		maxd = defaultRetryBackoffMax
	}
	d := base << uint(min(attempt, 20))
	if d <= 0 || d > maxd {
		d = maxd
	}
	n := c.attempts.Add(1)
	jitter := time.Duration(faults.Mix64(c.Seed^n) % uint64(d/2+1))
	return d + jitter
}

func (c *Client) fileFromReply(name string, payload []byte) (*File, error) {
	d := dec{b: payload}
	f := &File{Name: name}
	f.ID = d.u64()
	f.Size = d.i64()
	unit := d.i64()
	n := d.u32()
	for i := uint32(0); i < n; i++ {
		f.servers = append(f.servers, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	// Optional trailing T_i load-hint vector (count u32 + float64 bits
	// per server, stripe order). Decoders ignore trailing payload bytes
	// by protocol contract, so servers that predate hints send nothing
	// and this block is skipped; a malformed vector is dropped rather
	// than failing the open.
	if len(d.b) >= 4 {
		hd := dec{b: d.b}
		hn := hd.u32()
		if int(hn) == len(f.servers) {
			hints := make(map[string]float64, hn)
			for i := uint32(0); i < hn; i++ {
				hints[f.servers[i]] = math.Float64frombits(hd.u64())
			}
			if hd.err == nil {
				c.SetLoadHints(hints)
			}
		}
	}
	f.layout = stripe.Layout{Unit: unit, Servers: len(f.servers)}
	return f, f.layout.Validate()
}

// metaCall performs one metadata request; ownership of payload transfers
// in (released here on the paths that never reach a connection). On a
// transport failure the cached metadata connection is discarded so the
// next call redials instead of failing forever against a dead socket.
func (c *Client) metaCall(op byte, payload []byte) ([]byte, error) {
	mc, err := c.metaConn()
	if err != nil {
		putBuf(payload)
		return nil, err
	}
	reply, err := mc.call(op, payload)
	if err != nil {
		if _, isRemote := err.(remoteError); !isRemote {
			c.mu.Lock()
			if c.meta == mc {
				c.meta = nil
			}
			c.mu.Unlock()
			mc.close()
		}
		return nil, err
	}
	return reply, nil
}

// Create creates a file of the given size.
func (c *Client) Create(name string, size int64) (*File, error) {
	e := newEnc()
	e.str(name)
	e.i64(size)
	reply, err := c.metaCall(opCreate, e.b)
	if err != nil {
		return nil, err
	}
	f, err := c.fileFromReply(name, reply)
	putBuf(reply)
	return f, err
}

// Open opens an existing file.
func (c *Client) Open(name string) (*File, error) {
	e := newEnc()
	e.str(name)
	reply, err := c.metaCall(opOpen, e.b)
	if err != nil {
		return nil, err
	}
	f, err := c.fileFromReply(name, reply)
	putBuf(reply)
	return f, err
}

// subs decomposes a request, applying fragment flagging when configured.
func (c *Client) subs(f *File, off, length int64) []stripe.Sub {
	if c.FragmentThreshold > 0 {
		return f.layout.DecomposeFlagged(off, length, c.FragmentThreshold)
	}
	return f.layout.Decompose(off, length)
}

// groupByServer splits subs into per-server groups, preserving the
// sub-request order within each group.
func groupByServer(subs []stripe.Sub, nsrv int) [][]stripe.Sub {
	per := make([][]stripe.Sub, nsrv)
	for _, sub := range subs {
		per[sub.Server] = append(per[sub.Server], sub)
	}
	groups := per[:0]
	for _, g := range per {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// writeHdrSize is the encoded size of a write sub-request around its
// data: file u64 + off i64 + flags u8 + blob length prefix u32.
const writeHdrSize = 8 + 8 + 1 + 4

// encodeWrite builds one write sub-request payload in a pooled buffer
// sized for the whole message, so the single user-data copy lands
// directly in the buffer the wire will own.
func encodeWrite(f *File, off int64, p []byte, sub stripe.Sub, random bool) []byte {
	e := newEncN(writeHdrSize + int(sub.Length))
	e.u64(f.ID)
	e.i64(sub.ServerOff)
	var flags byte
	if sub.Fragment || random {
		flags |= 1
	}
	e.u8(flags)
	e.bytes(p[sub.FileOff-off : sub.FileOff-off+sub.Length])
	return e.b
}

// encodeRead builds one read sub-request payload.
func encodeRead(f *File, sub stripe.Sub) []byte {
	e := newEncN(24)
	e.u64(f.ID)
	e.i64(sub.ServerOff)
	e.i64(sub.Length)
	return e.b
}

// writeSub issues one write sub-request through the resilient path.
func (c *Client) writeSub(f *File, off int64, p []byte, sub stripe.Sub, random bool, pr *parentReq) error {
	addr := f.servers[sub.Server]
	var t0 time.Time
	if pr != nil {
		t0 = time.Now()
	}
	reply, _, err := c.dataCall(addr, opWrite, func() []byte {
		return encodeWrite(f, off, p, sub, random)
	}, nil, pr)
	putBuf(reply)
	if pr != nil {
		pr.addFrag(addr, sub, time.Since(t0), err)
	}
	return err
}

// writeSubs runs write sub-requests through the resilient per-sub path,
// concurrently when there are several.
func (c *Client) writeSubs(f *File, off int64, p []byte, subs []stripe.Sub, random bool, pr *parentReq) error {
	if len(subs) == 1 {
		return c.writeSub(f, off, p, subs[0], random, pr)
	}
	errs := make(chan error, len(subs))
	for _, sub := range subs {
		sub := sub
		go func() {
			errs <- c.writeSub(f, off, p, sub, random, pr)
		}()
	}
	var first error
	for range subs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// batchConn returns a pipelined conn to addr for batch submission, with
// addr's breaker. A nil conn means batching does not apply — breaker
// open (the per-sub path owns the probe/fail-fast semantics) or dial
// failure — and the caller falls back to per-sub calls.
func (c *Client) batchConn(addr string) (*conn, *breaker) {
	b := c.breakerFor(addr)
	if b.isOpen() {
		return nil, b
	}
	cn, err := c.dataConn(addr)
	if err != nil {
		return nil, b
	}
	return cn, b
}

// writeGroup issues one server's write sub-requests. On a pipelined
// connection with a healthy breaker the whole group is registered as
// one chain and flushed in a single vectored write; subs whose batched
// attempt hit a transport failure are retried through the fully
// resilient per-sub path.
func (c *Client) writeGroup(f *File, off int64, p []byte, subs []stripe.Sub, random bool, pr *parentReq) error {
	if len(subs) == 1 {
		return c.writeSub(f, off, p, subs[0], random, pr)
	}
	addr := f.servers[subs[0].Server]
	cn, b := c.batchConn(addr)
	if cn == nil {
		return c.writeSubs(f, off, p, subs, random, pr)
	}
	sk := c.sketchFor(addr, "write")
	var tcID, tcSpan uint64
	if pr != nil {
		tcID, tcSpan = pr.trace, pr.span
	}
	calls := make([]*wireCall, len(subs))
	for i, sub := range subs {
		calls[i] = &wireCall{
			op:      opWrite,
			payload: encodeWrite(f, off, p, sub, random),
			done:    make(chan struct{}),
			tcID:    tcID,
			tcSpan:  tcSpan,
		}
	}
	var t0 time.Time
	if sk != nil || pr != nil {
		t0 = time.Now()
	}
	if err := cn.startBatch(calls); err != nil {
		return c.writeSubs(f, off, p, subs, random, pr)
	}
	rm := c.resMetrics()
	var retry []stripe.Sub
	var first error
	for i, w := range calls {
		<-w.done
		reply, _, err := cn.finishCall(w)
		var el time.Duration
		if sk != nil || pr != nil {
			el = time.Since(t0)
		}
		if err == nil {
			putBuf(reply)
			if sk != nil {
				sk.Observe(float64(el) / 1e6)
			}
			pr.addFrag(addr, subs[i], el, nil)
			c.recordOutcome(b, rm, false, true)
			continue
		}
		if _, isRemote := err.(remoteError); isRemote {
			pr.addFrag(addr, subs[i], el, err)
			c.recordOutcome(b, rm, false, true)
			if first == nil {
				first = err
			}
			continue
		}
		// Transport failure: the per-sub retry path records this sub's
		// fragment timing, so don't double-count it here.
		retry = append(retry, subs[i])
	}
	if len(retry) > 0 {
		c.dropDataConn(addr, cn)
		c.recordOutcome(b, rm, false, false)
		if err := c.writeSubs(f, off, p, retry, random, pr); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteAt writes p at offset off, striping it over the data servers. It
// is synchronous: it returns once every data server has acknowledged its
// sub-request. Each server's sub-requests go out as one batched flush;
// servers proceed in parallel.
func (c *Client) WriteAt(f *File, off int64, p []byte) error {
	if err := c.checkRange(f, off, int64(len(p))); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	pr := c.startParent("WriteAt", "write")
	err := c.writeAt(f, off, p, pr)
	c.finishParent(pr, off, int64(len(p)), err)
	return err
}

func (c *Client) writeAt(f *File, off int64, p []byte, pr *parentReq) error {
	random := c.RandomThreshold > 0 && int64(len(p)) < c.RandomThreshold
	subs := c.subs(f, off, int64(len(p)))
	if len(subs) == 1 {
		return c.writeSub(f, off, p, subs[0], random, pr)
	}
	groups := groupByServer(subs, len(f.servers))
	if len(groups) == 1 {
		return c.writeGroup(f, off, p, groups[0], random, pr)
	}
	c.orderGroups(f, groups, "write")
	errs := make(chan error, len(groups))
	for _, g := range groups {
		g := g
		go func() {
			errs <- c.writeGroup(f, off, p, g, random, pr)
		}()
	}
	var first error
	for range groups {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// finishRead validates a read result: either n bytes were already
// scattered into dst (reply nil), or reply is the pooled payload to
// decode and copy out — released here on every path.
func finishRead(reply []byte, n int, dst []byte, want int64) error {
	if reply == nil {
		if int64(n) != want {
			return fmt.Errorf("pfsnet: short read: %d of %d bytes", n, want)
		}
		return nil
	}
	d := dec{b: reply}
	data := d.bytes()
	if d.err != nil {
		putBuf(reply)
		return d.err
	}
	if int64(len(data)) != want {
		putBuf(reply)
		return fmt.Errorf("pfsnet: short read: %d of %d bytes", len(data), want)
	}
	copy(dst, data)
	putBuf(reply)
	return nil
}

// readSub issues one read sub-request through the resilient path,
// scattering the reply directly into p on pipelined connections.
func (c *Client) readSub(f *File, off int64, p []byte, sub stripe.Sub, pr *parentReq) error {
	addr := f.servers[sub.Server]
	dst := p[sub.FileOff-off : sub.FileOff-off+sub.Length]
	var t0 time.Time
	if pr != nil {
		t0 = time.Now()
	}
	reply, n, err := c.dataCall(addr, opRead, func() []byte {
		return encodeRead(f, sub)
	}, dst, pr)
	if pr != nil {
		pr.addFrag(addr, sub, time.Since(t0), err)
	}
	if err != nil {
		return err
	}
	return finishRead(reply, n, dst, sub.Length)
}

// readSubs runs read sub-requests through the resilient per-sub path,
// concurrently when there are several.
func (c *Client) readSubs(f *File, off int64, p []byte, subs []stripe.Sub, pr *parentReq) error {
	if len(subs) == 1 {
		return c.readSub(f, off, p, subs[0], pr)
	}
	errs := make(chan error, len(subs))
	for _, sub := range subs {
		sub := sub
		go func() {
			errs <- c.readSub(f, off, p, sub, pr)
		}()
	}
	var first error
	for range subs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readGroup issues one server's read sub-requests, batched over one
// pipelined connection when possible (replies scatter straight into p);
// subs whose batched attempt hit a transport failure are retried
// through the fully resilient per-sub path.
func (c *Client) readGroup(f *File, off int64, p []byte, subs []stripe.Sub, pr *parentReq) error {
	if len(subs) == 1 {
		return c.readSub(f, off, p, subs[0], pr)
	}
	addr := f.servers[subs[0].Server]
	cn, b := c.batchConn(addr)
	if cn == nil {
		return c.readSubs(f, off, p, subs, pr)
	}
	sk := c.sketchFor(addr, "read")
	var tcID, tcSpan uint64
	if pr != nil {
		tcID, tcSpan = pr.trace, pr.span
	}
	calls := make([]*wireCall, len(subs))
	for i, sub := range subs {
		calls[i] = &wireCall{
			op:      opRead,
			payload: encodeRead(f, sub),
			scatter: p[sub.FileOff-off : sub.FileOff-off+sub.Length],
			done:    make(chan struct{}),
			tcID:    tcID,
			tcSpan:  tcSpan,
		}
	}
	var t0 time.Time
	if sk != nil || pr != nil {
		t0 = time.Now()
	}
	if err := cn.startBatch(calls); err != nil {
		return c.readSubs(f, off, p, subs, pr)
	}
	rm := c.resMetrics()
	var retry []stripe.Sub
	var first error
	for i, w := range calls {
		sub := subs[i]
		if c.Hedge {
			c.awaitHedged(cn, w, addr, func() []byte { return encodeRead(f, sub) }, pr)
		} else {
			<-w.done
		}
		reply, n, err := cn.finishCall(w)
		var el time.Duration
		if sk != nil || pr != nil {
			el = time.Since(t0)
		}
		if err != nil {
			if _, isRemote := err.(remoteError); isRemote {
				pr.addFrag(addr, sub, el, err)
				c.recordOutcome(b, rm, false, true)
				if first == nil {
					first = err
				}
			} else {
				// Transport failure: the per-sub retry path records this
				// sub's fragment timing, so don't double-count it here.
				retry = append(retry, sub)
			}
			continue
		}
		if sk != nil {
			sk.Observe(float64(el) / 1e6)
		}
		pr.addFrag(addr, sub, el, nil)
		c.recordOutcome(b, rm, false, true)
		dst := p[sub.FileOff-off : sub.FileOff-off+sub.Length]
		if err := finishRead(reply, n, dst, sub.Length); err != nil && first == nil {
			first = err
		}
	}
	if len(retry) > 0 {
		c.dropDataConn(addr, cn)
		c.recordOutcome(b, rm, false, false)
		if err := c.readSubs(f, off, p, retry, pr); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReadAt reads len(p) bytes at offset off into p. Each server's
// sub-requests go out as one batched flush and their replies scatter
// directly into p; servers proceed in parallel.
func (c *Client) ReadAt(f *File, off int64, p []byte) error {
	if err := c.checkRange(f, off, int64(len(p))); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	pr := c.startParent("ReadAt", "read")
	err := c.readAt(f, off, p, pr)
	c.finishParent(pr, off, int64(len(p)), err)
	return err
}

func (c *Client) readAt(f *File, off int64, p []byte, pr *parentReq) error {
	subs := c.subs(f, off, int64(len(p)))
	if len(subs) == 1 {
		return c.readSub(f, off, p, subs[0], pr)
	}
	groups := groupByServer(subs, len(f.servers))
	if len(groups) == 1 {
		return c.readGroup(f, off, p, groups[0], pr)
	}
	c.orderGroups(f, groups, "read")
	errs := make(chan error, len(groups))
	for _, g := range groups {
		g := g
		go func() {
			errs <- c.readGroup(f, off, p, g, pr)
		}()
	}
	var first error
	for range groups {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush asks every data server to drain its fragment log for f back to
// the object store (pass nil to flush everything on every server).
// Returns the total bytes written back.
func (c *Client) Flush(f *File) (int64, error) {
	var servers []string
	var id uint64
	if f != nil {
		servers = f.servers
		id = f.ID
	} else {
		// Without a file we have no server list; flush via the cached
		// data connections.
		c.mu.Lock()
		for addr := range c.data {
			servers = append(servers, addr)
		}
		c.mu.Unlock()
		// Flush in a stable order so multi-server error/byte totals do
		// not depend on connection-map iteration order.
		sort.Strings(servers)
	}
	var total int64
	for _, addr := range servers {
		reply, _, err := c.dataCall(addr, opFlush, func() []byte {
			e := newEnc()
			e.u64(id)
			return e.b
		}, nil, nil)
		if err != nil {
			return total, err
		}
		d := dec{b: reply}
		total += d.i64()
		putBuf(reply)
		if d.err != nil {
			return total, d.err
		}
	}
	return total, nil
}

func (c *Client) checkRange(f *File, off, length int64) error {
	if off < 0 || length < 0 || off+length > f.Size {
		return fmt.Errorf("pfsnet: request [%d,+%d) outside file %q of size %d", off, length, f.Name, f.Size)
	}
	return nil
}
