// Fixture: pooled payload buffers touched after their ownership was
// handed to the pool or the conn writer — every shape bufown exists to
// catch.
package pos

func putBuf(b []byte)     {}
func getBuf(n int) []byte { return make([]byte, n) }
func sink(args ...any)    {}
func cond() bool          { return false }

type vecWriter struct{}

func (w *vecWriter) writeFrame(tag uint64, op byte, payload []byte) error { return nil }

type conn struct{}

func (c *conn) exchange(op byte, payload, dst []byte) ([]byte, int, error) { return nil, 0, nil }
func (c *conn) call(op byte, payload []byte) ([]byte, error)               { return nil, nil }

type Client struct{}

func (c *Client) metaCall(op byte, payload []byte) ([]byte, error) { return nil, nil }

// UseAfterPut is the plain use-after-free: the pool may have already
// reissued b to another goroutine.
func UseAfterPut() {
	b := getBuf(64)
	putBuf(b)
	sink(len(b)) // want `b used after its ownership was handed to putBuf`
}

// UseAfterWriteFrame touches the payload after the vectored writer took
// it; the writer recycles small payloads immediately.
func UseAfterWriteFrame(w *vecWriter, payload []byte) {
	w.writeFrame(1, 3, payload)
	sink(payload[0]) // want `payload used after its ownership was handed to vecWriter\.writeFrame`
}

// UseAfterExchange reads the request buffer after the conn's writer
// goroutine took it.
func UseAfterExchange(c *conn, payload []byte) error {
	_, _, err := c.exchange(3, payload, nil)
	if err != nil {
		sink(len(payload)) // want `payload used after its ownership was handed to conn\.exchange`
	}
	return err
}

// UseAfterMetaCall re-sends the same pooled buffer — the retry must
// re-encode instead.
func UseAfterMetaCall(c *Client, e []byte) {
	c.metaCall(1, e)
	c.metaCall(1, e) // want `e used after its ownership was handed to Client\.metaCall`
}

// BranchJoin hands off on one fall-through branch only: the join point
// must treat the buffer as dead.
func BranchJoin(b []byte) {
	if cond() {
		putBuf(b)
	}
	sink(b) // want `b used after its ownership was handed to putBuf`
}

// LoopCarried releases at the bottom of an iteration and reads at the
// top of the next without rebinding.
func LoopCarried(bufs [][]byte) {
	b := getBuf(8)
	for i := 0; i < len(bufs); i++ {
		sink(b[0]) // want `b used after its ownership was handed to putBuf`
		putBuf(b)
	}
}

// DeadArg passes an already-released buffer onward as an argument.
func DeadArg(c *conn, b []byte) {
	putBuf(b)
	c.call(2, b) // want `b used after its ownership was handed to putBuf`
}

// FieldHandoff tracks selector chains, not just plain identifiers.
type holder struct{ payload []byte }

func FieldHandoff(h *holder) {
	putBuf(h.payload)
	sink(cap(h.payload)) // want `h\.payload used after its ownership was handed to putBuf`
}
