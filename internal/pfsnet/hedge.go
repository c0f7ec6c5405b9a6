package pfsnet

import (
	"sort"
	"time"

	"repro/internal/stripe"
)

// Straggler-aware hedged reads (DESIGN §13).
//
// A striped read completes only when its slowest fragment server does,
// so the client attacks the tail from two directions: it issues the
// predicted-slowest server group first (orderGroups), and it arms a
// per-sub-request hedge timer at a sketch quantile of that server's
// recent read latency (awaitHedged). A timer that fires re-issues the
// read on a dedicated hedge connection as opReadDirect while the
// primary stays in flight. The first reply wins; the loser is abandoned
// (its tag removed from the conn's pending map, so its late reply takes
// the readLoop's pooled-discard path) and cancelled server-side with a
// fire-and-forget opCancel so queued work is dropped instead of
// executed.
//
// Buffer ownership under races (DESIGN §11): a hedge never scatters —
// its reply always lands in a pooled buffer — so the primary remains
// the only writer into the caller's destination. Whichever reply loses
// is released exactly once: by the readLoop's abandoned-tag discard if
// the abandon won the race, or right here if the loser's waiter was
// already claimed.

const (
	defaultHedgeQuantile   = 0.95
	defaultHedgeDelayFloor = 2 * time.Millisecond
	defaultHedgeDelayCap   = time.Second
	defaultHedgeBudget     = 16
	// hedgeMinSamples is the sketch warm-up before its quantile drives
	// the hedge timer; colder sketches fall back to the T_i load hint.
	hedgeMinSamples = 8
	// hedgeHintMultiplier scales a T_i load hint (expected service time)
	// into a hedge delay: hedging at ~2x the expected service time
	// roughly mimics a p95 trigger without latency history.
	hedgeHintMultiplier = 2
)

// hedgeEligible reports whether this attempt should run under a hedge
// timer: hedging on, and a read (writes are not idempotent under
// duplicated execution order).
func (c *Client) hedgeEligible(op byte) bool {
	return c.Hedge && op == opRead
}

// hedgeMetricsRef lazily resolves the client's hedge metrics. Unlike
// resMetrics it exists without a registry — the local atomics feed
// HedgeStats either way.
func (c *Client) hedgeMetricsRef() *hedgeMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hm == nil {
		c.hm = newHedgeMetrics(c.Obs)
	}
	return c.hm
}

// HedgeStats is a snapshot of the client's hedging counters.
type HedgeStats struct {
	Armed       int64 // hedge timers started
	Fired       int64 // hedges issued to the wire
	Won         int64 // hedge replies that beat the primary
	Wasted      int64 // fired hedges whose primary won anyway
	Suppressed  int64 // hedges skipped for lack of a budget token
	CancelsSent int64 // opCancel frames issued for losing requests
}

// HedgeStats returns the client's hedging counters. All zero when
// hedging is disabled.
func (c *Client) HedgeStats() HedgeStats {
	c.mu.Lock()
	m := c.hm
	c.mu.Unlock()
	if m == nil {
		return HedgeStats{}
	}
	return HedgeStats{
		Armed:       m.armed.Load(),
		Fired:       m.fired.Load(),
		Won:         m.won.Load(),
		Wasted:      m.wasted.Load(),
		Suppressed:  m.suppressed.Load(),
		CancelsSent: m.cancelsSent.Load(),
	}
}

// hedgedExchange is conn.exchange for an eligible read: it starts the
// primary call (scattering into dst as usual) and waits under a hedge
// timer.
func (c *Client) hedgedExchange(addr string, cn *conn, encode func() []byte, dst []byte, tcID, tcSpan uint64, pr *parentReq) ([]byte, int, error) {
	w := &wireCall{op: opRead, payload: encode(), scatter: dst, done: make(chan struct{}), tcID: tcID, tcSpan: tcSpan}
	if err := cn.start(w); err != nil {
		return nil, 0, err
	}
	c.awaitHedged(cn, w, addr, encode, pr)
	return cn.finishCall(w)
}

// awaitHedged waits for a started primary read call, hedging it if the
// timer fires first. On return w is complete: either the primary's own
// result, or — when the hedge won — the hedge reply grafted onto w, so
// the caller's finishCall/finishRead path is identical either way.
func (c *Client) awaitHedged(cn *conn, w *wireCall, addr string, encode func() []byte, pr *parentReq) {
	hm := c.hedgeMetricsRef()
	hm.onArmed()
	timer := time.NewTimer(c.hedgeDelayFor(addr))
	select {
	case <-w.done:
		timer.Stop()
		return
	case <-timer.C:
	}
	if !c.acquireHedge() {
		// Budget exhausted: fail open to a plain unhedged wait.
		hm.onSuppressed()
		<-w.done
		return
	}
	defer c.releaseHedge()
	hc, err := c.hedgeConn(addr)
	if err != nil {
		// No hedge path: degrade to waiting on the primary.
		<-w.done
		return
	}
	// The hedge never scatters: its reply lands in a pooled buffer so
	// the primary stays the sole writer into the caller's destination
	// even when both replies arrive.
	w2 := &wireCall{op: opReadDirect, payload: encode(), done: make(chan struct{})}
	if pr != nil {
		w2.tcID, w2.tcSpan = pr.trace, pr.span
	}
	traced := c.Tracer != nil && pr != nil
	var t0 time.Time
	if traced {
		t0 = time.Now()
		c.Tracer.InstantNow("hedge.fired", addr)
	}
	if hc.start(w2) != nil {
		<-w.done
		return
	}
	hm.onFired()
	pr.noteHedge(false)
	won := false
	defer func() {
		if traced {
			c.Tracer.Span(pr.trace, c.Tracer.NewID(), pr.span, "hedge", addr, t0, time.Since(t0))
		}
		if won {
			hm.onWon()
			pr.noteHedge(true)
		} else {
			hm.onWasted()
		}
	}()
	select {
	case <-w.done:
		// Primary won. Abandon the hedge so its late reply is discarded
		// by the hedge conn's readLoop, and ask the server to drop it.
		if hc.abandon(w2) {
			if hc.sendCancel(w2.tag) {
				hm.onCancelSent()
			}
			return
		}
		// The hedge conn's reader claimed w2 before the abandon landed:
		// its reply is (about to be) complete and nothing downstream
		// will ever look at it. Wait out the close and release the
		// pooled reply here — the losing copy is freed exactly once
		// (DESIGN §11), on whichever side owns it after the race.
		<-w2.done
		putBuf(w2.reply)
		w2.reply = nil
		return
	case <-w2.done:
	}
	if w2.err != nil {
		// The hedge conn died under the hedge; drop it so the next
		// hedge redials, and fall back to the primary.
		c.dropHedgeConn(addr, hc)
		<-w.done
		return
	}
	if w2.replyOp != opOK {
		// Remote error on the hedge path: release its payload and wait
		// out the primary, which remains authoritative.
		putBuf(w2.reply)
		w2.reply = nil
		<-w.done
		return
	}
	// The hedge reply is good. Try to abandon the primary; if the
	// reader already claimed it we must wait for it to complete and
	// arbitrate.
	if !cn.abandon(w) {
		<-w.done
		if w.err == nil && (w.scattered || w.replyOp == opOK) {
			// Double-reply race and the primary also succeeded: keep the
			// primary (it may have scattered into the caller's buffer
			// already) and release the hedge reply exactly once here.
			putBuf(w2.reply)
			w2.reply = nil
			return
		}
		// Primary lost the race (conn death or remote error): the hedge
		// reply saves the request. Release any primary error payload
		// before grafting.
		putBuf(w.reply)
		w.reply = nil
	} else if cn.sendCancel(w.tag) {
		hm.onCancelSent()
	}
	// Graft the hedge result onto the primary call: downstream
	// finishCall/finishRead handles it exactly as a pooled (unscattered)
	// primary reply.
	w.err = nil
	w.scattered = false
	w.scatterN = 0
	w.replyOp = w2.replyOp
	w.reply = w2.reply
	w2.reply = nil
	won = true
}

// abandon removes w from the conn's pending map, if it is still there.
// True means this caller now owns w's fate: the readLoop will discard
// w's late reply into the pool (the abandoned-tag path) and nothing
// will ever close w.done. False means the reader or kill already
// claimed w — the caller must wait on w.done and arbitrate.
func (c *conn) abandon(w *wireCall) bool {
	c.pendMu.Lock()
	_, ok := c.pending[w.tag]
	if ok {
		delete(c.pending, w.tag)
	}
	c.pendMu.Unlock()
	return ok
}

// sendCancel asks the peer to drop the queued request with the given
// tag. Fire-and-forget: opCancel never gets a reply, so the call is not
// registered in pending — it just rides the send queue. Returns whether
// the cancel was handed to the writer.
func (c *conn) sendCancel(target uint64) bool {
	e := newEncN(8)
	e.u64(target)
	w := &wireCall{op: opCancel, payload: e.b}
	c.pendMu.Lock()
	if c.failed != nil {
		c.pendMu.Unlock()
		putBuf(w.payload)
		return false
	}
	c.nextTag++
	w.tag = c.nextTag
	c.pendMu.Unlock()
	select {
	case c.sendq <- w:
		return true
	case <-c.dead:
		putBuf(w.payload)
		return false
	}
}

// hedgeConn returns the dedicated hedge connection to addr, dialing it
// on first use. Hedges ride their own connection so a primary path
// stalled in the kernel (or under an injected latency plan scoped to
// the primary) cannot stall the hedge; the fault scope is
// FaultScope+"-hedge" so plans can treat the two paths differently.
func (c *Client) hedgeConn(addr string) (*conn, error) {
	c.mu.Lock()
	if cn := c.hdata[addr]; cn != nil {
		c.mu.Unlock()
		return cn, nil
	}
	wm := c.wireMetricsLocked()
	c.mu.Unlock()
	o := c.dialOpts(wm)
	o.scope += "-hedge"
	cn, err := dialConn(addr, o)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if have := c.hdata[addr]; have != nil { // lost a dial race; keep the winner
		cn.close()
		return have, nil
	}
	if c.hdata == nil {
		c.hdata = make(map[string]*conn)
	}
	c.hdata[addr] = cn
	return cn, nil
}

// dropHedgeConn discards a broken hedge connection so the next hedge
// redials.
func (c *Client) dropHedgeConn(addr string, cn *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hdata[addr] == cn {
		delete(c.hdata, addr)
		cn.close()
	}
}

// hedgeDelayFor computes the hedge timer for addr: the fixed HedgeDelay
// when set; else the read sketch's HedgeQuantile once warmed, falling
// back to the server's T_i load hint scaled by hedgeHintMultiplier, and
// to the cap with no signal at all — clamped to [floor, cap] either
// way so a cold or degenerate estimate cannot hedge instantly or never.
func (c *Client) hedgeDelayFor(addr string) time.Duration {
	if c.HedgeDelay > 0 {
		return c.HedgeDelay
	}
	lo := c.HedgeDelayFloor
	if lo <= 0 {
		lo = defaultHedgeDelayFloor
	}
	hi := c.HedgeDelayCap
	if hi <= 0 {
		hi = defaultHedgeDelayCap
	}
	if hi < lo {
		hi = lo
	}
	clamp := func(d time.Duration) time.Duration {
		if d < lo {
			return lo
		}
		if d > hi {
			return hi
		}
		return d
	}
	q := c.HedgeQuantile
	if q <= 0 || q >= 1 {
		q = defaultHedgeQuantile
	}
	if sk := c.sketchFor(addr, "read"); sk != nil && sk.Count() >= hedgeMinSamples {
		return clamp(time.Duration(sk.Quantile(q) * float64(time.Millisecond)))
	}
	if hint := c.loadHintFor(addr); hint > 0 {
		return clamp(time.Duration(hint * hedgeHintMultiplier * float64(time.Millisecond)))
	}
	return hi
}

// hedgeTokens arms the hedge budget on first use (reads HedgeBudget,
// set before the first request).
func (c *Client) hedgeTokens() *Client {
	c.hedgeOnce.Do(func() {
		n := c.HedgeBudget
		if n == 0 {
			n = defaultHedgeBudget
		}
		if n > 0 {
			c.hedgeTok.Store(int64(n))
		}
	})
	return c
}

// acquireHedge takes a hedge token, or reports that none is available —
// the budget that keeps a cluster-wide slowdown from doubling offered
// load. A negative HedgeBudget removes the cap.
func (c *Client) acquireHedge() bool {
	if c.HedgeBudget < 0 {
		return true
	}
	t := &c.hedgeTokens().hedgeTok
	for {
		n := t.Load()
		if n <= 0 {
			return false
		}
		if t.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// releaseHedge returns a hedge token.
func (c *Client) releaseHedge() {
	if c.HedgeBudget < 0 {
		return
	}
	c.hedgeTok.Add(1)
}

// SetLoadHints installs the T_i load-hint vector (server address →
// expected service time, milliseconds). The client also learns it
// automatically from metadata replies that carry one; cold sketches
// fall back to it for issue ordering and hedge delays.
func (c *Client) SetLoadHints(h map[string]float64) {
	cp := make(map[string]float64, len(h))
	for k, v := range h {
		cp[k] = v
	}
	c.hintMu.Lock()
	c.hints = cp
	c.hintMu.Unlock()
}

// LoadHints returns a copy of the client's current T_i load-hint
// vector; nil when none has been installed.
func (c *Client) LoadHints() map[string]float64 {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	if c.hints == nil {
		return nil
	}
	cp := make(map[string]float64, len(c.hints))
	for k, v := range c.hints {
		cp[k] = v
	}
	return cp
}

// hintsArmed reports whether a load-hint vector is installed.
func (c *Client) hintsArmed() bool {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	return len(c.hints) > 0
}

// loadHintFor returns addr's T_i load hint in milliseconds, 0 when
// unknown.
func (c *Client) loadHintFor(addr string) float64 {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	return c.hints[addr]
}

// orderGroups sorts server groups slowest-predicted-first in place, so
// the group expected to finish last is submitted first and its server
// gets a head start — the completion time of a striped request is the
// max over groups, and issue order is the one lever the client holds
// before the wire. The prediction is sketch-p95 × queued bytes, seeded
// by the T_i load hint while the sketch is cold. A stable sort with
// deterministic inputs keeps the order reproducible; with neither
// hedging nor hints armed this is a no-op, preserving the unhedged
// client's exact submission order.
func (c *Client) orderGroups(f *File, groups [][]stripe.Sub, class string) {
	if len(groups) < 2 || (!c.Hedge && !c.hintsArmed()) {
		return
	}
	type scored struct {
		g    []stripe.Sub
		cost float64
	}
	sc := make([]scored, len(groups))
	for i, g := range groups {
		addr := f.servers[g[0].Server]
		est := 1.0
		if sk := c.sketchFor(addr, class); sk != nil && sk.Count() > 0 {
			if p := sk.Quantile(0.95); p > 0 {
				est = p
			}
		} else if hint := c.loadHintFor(addr); hint > 0 {
			est = hint
		}
		var bytes int64
		for _, sub := range g {
			bytes += sub.Length
		}
		sc[i] = scored{g: g, cost: est * float64(bytes)}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].cost > sc[j].cost })
	for i := range sc {
		groups[i] = sc[i].g
	}
}
