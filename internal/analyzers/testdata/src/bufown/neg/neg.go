// Fixture: the disciplined ownership patterns from the wire path —
// capture-before-handoff, rebind-after-release, deferred release,
// terminating branches, per-iteration rebinding, and a documented
// waiver. Must be clean.
package neg

func putBuf(b []byte)     {}
func getBuf(n int) []byte { return make([]byte, n) }
func sink(args ...any)    {}
func cond() bool          { return false }

type vecWriter struct{}

func (w *vecWriter) writeFrame(tag uint64, op byte, payload []byte) error { return nil }

type conn struct{}

func (c *conn) call(op byte, payload []byte) ([]byte, error) { return nil, nil }

// CaptureThenHandoff snapshots what it needs before the transfer — the
// writeLoop pattern (n := len(w.payload) before writeFrame).
func CaptureThenHandoff(w *vecWriter, payload []byte) {
	n := len(payload)
	w.writeFrame(1, 3, payload)
	sink(n)
}

// RebindRevives: after b = nil (or a fresh getBuf) the old handoff no
// longer covers the name — the start/kill pattern (putBuf; w.payload =
// nil).
func RebindRevives() {
	b := getBuf(64)
	putBuf(b)
	b = getBuf(128)
	sink(len(b))
}

// DeferredRelease runs at function exit: uses between the defer
// statement and the return are the whole point.
func DeferredRelease(c *conn, payload []byte) {
	defer putBuf(payload)
	sink(len(payload))
}

// TerminatingBranch releases only on the early-exit path, so the code
// after the join never sees a dead buffer (the dispatch pattern).
func TerminatingBranch(b []byte) []byte {
	if cond() {
		putBuf(b)
		return nil
	}
	return b
}

// ElseKeepsOwnership mirrors vecWriter.writeFrame itself: the small
// branch releases, the large branch retains — each path is consistent
// and nothing follows the join.
func ElseKeepsOwnership(own *[][]byte, payload []byte) {
	if len(payload) <= 256 {
		putBuf(payload)
	} else {
		*own = append(*own, payload)
	}
}

// RangeRebinds: the loop variable is rebound every iteration, so the
// release at the bottom never covers the next element (the
// vecWriter.reset pattern).
func RangeRebinds(owned [][]byte) {
	for _, b := range owned {
		sink(len(b))
		putBuf(b)
	}
}

// UnnamedArgs: expressions with no stable name are not trackable and
// must stay silent (the pool test patterns).
func UnnamedArgs(bufs [][]byte) {
	putBuf(getBuf(64))
	putBuf(nil)
	putBuf(bufs[0])
}

// Waiver: a deliberate post-handoff read documented in place.
func Waiver() {
	b := getBuf(64)
	putBuf(b)
	//lint:allow bufown fixture: deliberate post-handoff read under test
	sink(len(b))
}
