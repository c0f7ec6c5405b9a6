package pfsnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extent"
	"repro/internal/faults"
	"repro/internal/obs"
)

// DurableStore is the optional crash-consistency extension of
// ObjectStore that logstore.LogStore implements. A data server whose
// store satisfies it folds the store's record appends into the fault
// plan's ssdfail write count (so `ssdfail=srvN@K` specs written against
// the legacy fragment log apply unchanged to log-backed servers) and
// fails the store's device together with the bridge log when the
// scheduled failure trips.
type DurableStore interface {
	ObjectStore
	// RecordAppends returns the number of acknowledged log-record
	// appends since the store opened.
	RecordAppends() int64
	// FailDevice simulates the store's log device failing: the store
	// degrades to serving from memory, losing durability but no bytes.
	FailDevice() error
}

// DataServer stores the per-server striped objects and serves read/write
// sub-requests over TCP. When Bridge is enabled, flagged sub-requests
// (fragments and regular random requests) go to the fragment log — the
// functional analogue of iBridge's SSD cache — and are written back to
// the object store only by a flush.
//
// The fragment log is one extent index (internal/extent) per file: each
// live extent holds a private copy of the bytes a write carried. A newer
// write supersedes the bytes it overlaps, which are dropped on the spot,
// so the log indexes at most one copy of each logical byte (a trimmed
// extent keeps its buffer until the rest of it goes). Reads overlay
// the extents in their range, found by binary search, on top of the
// store's bytes.
//
// Each connection runs the shared pipeline (connServer): a demux
// goroutine feeds tagged frames into a bounded worker pool, the workers
// execute handlers concurrently, and a single response-writer goroutine
// streams the tagged replies back. Server state is split so independent
// requests do not serialize behind one lock: the fragment log is guarded
// by the read-write logMu, counters are atomic, and the read and write
// paths do their object-store I/O with no lock held (DESIGN §8). A
// direct write that overlaps logged fragments runs in two phases: it
// first inserts a copy of the overlapped span under a fresh id, then
// writes the store unlocked, then punches whatever still carries its id.
// Because a read's store access and its overlay are not atomic, logGen
// counts every event that moves bytes out of the log (a flush or a
// punch) and a read that sees it change retries its store read. Flush is
// the one path that writes the store under logMu.
type DataServer struct {
	connServer
	bridge  bool
	store   ObjectStore
	durable DurableStore // non-nil when store is crash-consistent (logstore)

	// SSD-device failure state: when the fault plan schedules a device
	// failure for this server (or FailSSD is called), the fragment log is
	// drained once and the server degrades gracefully to the direct
	// store path — iBridge's cache is an accelerator, so losing it must
	// cost performance, never bytes.
	plan         *faults.Plan
	ssdDown      atomic.Bool
	ssdFailAfter int64 // fragment-log writes until the device fails; 0 = never

	// logMu guards the fragment log: frags, fragSeq, and the bumps of
	// logGen (which readers may load without it).
	logMu   sync.RWMutex
	frags   map[uint64]*extent.Map[frag] // per-file extent index; no empty maps
	fragSeq uint64                       // last id handed to a direct write's span
	logGen  atomic.Uint64                // bumped whenever log bytes leave the log

	ctr dataCounters
}

// ServerConfig configures a data server beyond the common defaults.
type ServerConfig struct {
	// Bridge enables the iBridge fragment log.
	Bridge bool
	// Store is the backing object store (default: in-memory).
	Store ObjectStore
	// Workers bounds the per-connection handler pool. Default:
	// max(4, GOMAXPROCS).
	Workers int
	// Obs, when set, receives wire-level metrics under
	// "pfsnet.server.*".
	Obs *obs.Registry
	// Tracer, when set, records server-side spans (queue-wait, store,
	// respond) under the trace context of requests that carry one on
	// the wire; a nil tracer costs one pointer test.
	Tracer *obs.XTracer
	// IOTimeout, when positive, bounds each frame read and reply write
	// on every connection so a stalled or half-open peer cannot pin a
	// handler goroutine forever. 0 (the default) disables deadlines.
	IOTimeout time.Duration
	// FaultPlan, when set, wraps the listener with the plan's connection
	// faults and arms the plan's SSD-device failure for FaultScope.
	FaultPlan *faults.Plan
	// FaultScope is this server's name in the fault plan (e.g. "srv0").
	FaultScope string
}

// DataStats counts server activity.
type DataStats struct {
	Reads, Writes  int64
	FragmentWrites int64
	FragmentReads  int64
	// LogBytes is the cumulative number of bytes flagged writes appended
	// to the fragment log; LogLiveBytes and LogExtents are what the log
	// holds now, after supersession and flushes.
	LogBytes           int64
	LogLiveBytes       int64
	LogExtents         int64
	Flushes            int64
	FlushedBytes       int64
	ReadBytes, WrBytes int64
	// CancelsReceived counts opCancel frames the demux accepted;
	// CancelsHonored counts queued requests dropped before dispatch
	// because an opCancel for their tag arrived first (the difference is
	// cancels that lost the race with their own request); DirectReads
	// counts opReadDirect requests (hedge re-issues).
	CancelsReceived int64
	CancelsHonored  int64
	DirectReads     int64
}

// dataCounters is the lock-free mirror of DataStats: handlers running in
// parallel update it without sharing the log lock.
type dataCounters struct {
	reads, writes      atomic.Int64
	fragmentWrites     atomic.Int64
	fragmentReads      atomic.Int64
	logBytes           atomic.Int64
	logLive            atomic.Int64
	logExtents         atomic.Int64
	flushes            atomic.Int64
	flushedBytes       atomic.Int64
	readBytes, wrBytes atomic.Int64
	directReads        atomic.Int64
}

// frag is the value of a fragment-log extent: a private copy of the
// bytes a write carried, and the id of the direct write whose span it
// is (0 for flagged writes).
type frag struct {
	data []byte
	id   uint64
}

// Trim implements extent.Value. A trimmed fragment shares its original's
// buffer.
func (f frag) Trim(skip, n int64) frag {
	return frag{data: f.data[skip : skip+n : skip+n], id: f.id}
}

// NewDataServer starts a data server listening on addr (use
// "127.0.0.1:0" for an ephemeral port) with an in-memory object store.
// bridge enables the fragment log.
func NewDataServer(addr string, bridge bool) (*DataServer, error) {
	return NewDataServerConfig(addr, ServerConfig{Bridge: bridge})
}

// NewDataServerWithStore starts a data server over the given object
// store (e.g. a FileStore for on-disk objects).
func NewDataServerWithStore(addr string, bridge bool, store ObjectStore) (*DataServer, error) {
	return NewDataServerConfig(addr, ServerConfig{Bridge: bridge, Store: store})
}

// NewDataServerConfig starts a data server with explicit configuration.
func NewDataServerConfig(addr string, cfg ServerConfig) (*DataServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newDataServer(cfg)
	s.serve(cfg.FaultPlan.WrapListener(ln, cfg.FaultScope))
	return s, nil
}

// newDataServer builds the server state without a listener; the request
// handlers run against it directly.
func newDataServer(cfg ServerConfig) *DataServer {
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = max(4, runtime.GOMAXPROCS(0))
	}
	s := &DataServer{
		connServer: connServer{
			name:      "pfsnet data",
			workers:   workers,
			ioTimeout: cfg.IOTimeout,
			wm:        newWireMetrics(cfg.Obs, "pfsnet.server."),
			tracer:    cfg.Tracer,
		},
		bridge: cfg.Bridge,
		store:  store,
		plan:   cfg.FaultPlan,
		frags:  make(map[uint64]*extent.Map[frag]),
	}
	s.handle = s.dispatch
	if ds, ok := store.(DurableStore); ok {
		s.durable = ds
	}
	if n, ok := cfg.FaultPlan.SSDFailWrites(cfg.FaultScope); ok {
		s.ssdFailAfter = n
	}
	return s
}

// Addr returns the server's listen address.
func (s *DataServer) Addr() string { return s.ln.Addr().String() }

// Stats returns a copy of the server statistics.
func (s *DataServer) Stats() DataStats {
	return DataStats{
		Reads:           s.ctr.reads.Load(),
		Writes:          s.ctr.writes.Load(),
		FragmentWrites:  s.ctr.fragmentWrites.Load(),
		FragmentReads:   s.ctr.fragmentReads.Load(),
		LogBytes:        s.ctr.logBytes.Load(),
		LogLiveBytes:    s.ctr.logLive.Load(),
		LogExtents:      s.ctr.logExtents.Load(),
		Flushes:         s.ctr.flushes.Load(),
		FlushedBytes:    s.ctr.flushedBytes.Load(),
		ReadBytes:       s.ctr.readBytes.Load(),
		WrBytes:         s.ctr.wrBytes.Load(),
		CancelsReceived: s.cancelsReceived.Load(),
		CancelsHonored:  s.cancelsHonored.Load(),
		DirectReads:     s.ctr.directReads.Load(),
	}
}

// Close stops the server, flushes the log, and waits for connection
// handlers to finish. Open client connections are severed (clients with
// retry logic redial transparently). Close is idempotent: chaos drivers
// crash servers that a deferred cleanup later closes again.
func (s *DataServer) Close() error {
	first, err := s.shutdown()
	if !first {
		return nil
	}
	if ferr := s.FlushLog(); ferr != nil && err == nil {
		err = ferr
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// FlushLog drains every live log extent back to the object store, in
// (file, offset) order — the iBridge writeback at program termination.
func (s *DataServer) FlushLog() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.flushLocked(0, true)
}

// flushLocked writes back live extents in ascending offset order and
// drops them from the log (logMu held). If all is false, only extents
// of the given file are drained. A file leaves the log only once all of
// its extents are in the store, so a failed flush loses nothing.
func (s *DataServer) flushLocked(file uint64, all bool) error {
	files := []uint64{file}
	if all {
		files = files[:0]
		for f := range s.frags {
			files = append(files, f)
		}
		slices.Sort(files)
	}
	for _, f := range files {
		m := s.frags[f]
		if m == nil {
			continue
		}
		var n int64
		for _, e := range m.Extents() {
			if err := s.store.WriteAt(f, e.Off, e.Val.data); err != nil {
				return err
			}
			n += e.N
		}
		delete(s.frags, f)
		s.logGen.Add(1)
		s.ctr.logLive.Add(-n)
		s.ctr.logExtents.Add(-int64(m.Len()))
		s.ctr.flushedBytes.Add(n)
	}
	s.ctr.flushes.Add(1)
	return nil
}

// dispatch executes one request and returns the reply opcode and pooled
// payload.
func (s *DataServer) dispatch(op byte, payload []byte) (byte, []byte) {
	var reply []byte
	var err error
	switch op {
	case opWrite:
		reply, err = s.handleWrite(payload)
	case opRead:
		reply, err = s.handleRead(payload)
	case opReadDirect:
		reply, err = s.handleReadDirect(payload)
	case opStat:
		reply, err = s.handleStat(payload)
	case opFlush:
		reply, err = s.handleFlush(payload)
	default:
		err = fmt.Errorf("pfsnet data: bad opcode %d", op)
	}
	if err != nil {
		putBuf(reply)
		return opError, errorPayload(err)
	}
	return opOK, reply
}

// handleWrite payload: file u64, off i64, flags u8 (1 = fragment/random), data bytes.
func (s *DataServer) handleWrite(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	flags := d.u8()
	data := d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if off < 0 || off > math.MaxInt64-int64(len(data)) {
		return nil, fmt.Errorf("pfsnet data: bad write [%d,+%d)", off, len(data))
	}
	s.ctr.writes.Add(1)
	s.ctr.wrBytes.Add(int64(len(data)))
	if s.bridge && flags&1 != 0 && !s.ssdDown.Load() {
		return nil, s.logFragment(file, off, data)
	}
	// Direct path. The write supersedes any logged bytes it overlaps,
	// but the store write runs outside logMu, so it takes two phases
	// around it: coverSpan and punch.
	var id uint64
	var lo, hi int64
	if s.bridge {
		id, lo, hi = s.coverSpan(file, off, data)
	}
	if err := s.store.WriteAt(file, off, data); err != nil {
		// The span stays logged: the log then holds the write's bytes
		// there, as a store that failed partway would.
		return nil, err
	}
	if id != 0 {
		s.punch(file, lo, hi-lo, id)
	}
	// Log-backed stores append a record per write, and those appends
	// count toward the scheduled device failure exactly like legacy
	// fragment-log writes — `ssdfail=srvN@K` fault specs apply
	// unchanged whichever store backs the server.
	if s.durable != nil && s.ssdFailAfter > 0 && !s.ssdDown.Load() && s.ssdWriteCount() >= s.ssdFailAfter {
		if err := s.FailSSD(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// ssdWriteCount is the write count the fault plan's ssdfail trigger
// compares against: bridge fragment-log writes plus — for a
// crash-consistent store — the store's own record appends.
func (s *DataServer) ssdWriteCount() int64 {
	n := s.ctr.fragmentWrites.Load()
	if s.durable != nil {
		n += s.durable.RecordAppends()
	}
	return n
}

// failSSDLocked executes the SSD-device failure (logMu held): the
// fragment log is written back once and the server switches to the
// direct store path for all subsequent flagged writes — graceful
// degradation, the pfsnet analogue of the sim bridge handing fragments
// back to the HDD.
func (s *DataServer) failSSDLocked() error {
	if s.ssdDown.Swap(true) {
		return nil
	}
	s.plan.NoteSSDFail()
	if err := s.flushLocked(0, true); err != nil {
		return err
	}
	if s.durable != nil {
		// The same simulated device backs the bridge log and the
		// durable store, so the store's log fails with it: the drained
		// fragments above landed while the device still answered, and
		// the store now degrades to its in-memory overlay (DESIGN §10 —
		// durability lost, bytes kept).
		return s.durable.FailDevice()
	}
	return nil
}

// FailSSD fails this server's SSD (fragment log) device immediately:
// the log is drained back to the object store and all further flagged
// writes take the direct path. Safe to call more than once.
func (s *DataServer) FailSSD() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.failSSDLocked()
}

// SSDFailed reports whether the SSD device has failed (by schedule or
// FailSSD) and the server is running degraded.
func (s *DataServer) SSDFailed() bool { return s.ssdDown.Load() }

// logFragment is the iBridge path of a flagged write: its bytes become
// a log extent, and the older bytes they overlap are dropped.
func (s *DataServer) logFragment(file uint64, off int64, data []byte) error {
	buf := slices.Clone(data) // data lives in the pooled request frame
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.insertLocked(file, off, frag{data: buf})
	s.ctr.fragmentWrites.Add(1)
	s.ctr.logBytes.Add(int64(len(data)))
	if s.ssdFailAfter > 0 && s.ssdWriteCount() >= s.ssdFailAfter {
		// The scheduled device failure trips on this write: drain the
		// log (this write included) and degrade to the direct path.
		return s.failSSDLocked()
	}
	return nil
}

// coverSpan is the first phase of a direct write of data at off: the
// span from the first to the last logged byte the write overlaps is
// replaced in the log by a copy of the new bytes, under a fresh id.
// It returns the id and the span [lo, hi); id 0 means the write
// overlaps nothing logged.
func (s *DataServer) coverSpan(file uint64, off int64, data []byte) (id uint64, lo, hi int64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	m := s.frags[file]
	if m == nil {
		return 0, 0, 0
	}
	lo, hi = -1, -1
	m.Each(off, int64(len(data)), func(e extent.Extent[frag]) {
		if lo < 0 {
			lo = e.Off
		}
		hi = e.End()
	})
	if hi <= lo {
		return 0, 0, 0
	}
	s.fragSeq++
	s.insertLocked(file, lo, frag{data: slices.Clone(data[lo-off : hi-off]), id: s.fragSeq})
	return s.fragSeq, lo, hi
}

// punch is the last phase of a direct write, run once the store holds
// its bytes: it removes the parts of file's [off, off+n) that still
// carry the write's id. A flagged write that landed in between
// superseded those bytes with newer ones, which stay. A read whose
// store access predates the store write must now retry, so a punch
// that removes anything bumps logGen.
func (s *DataServer) punch(file uint64, off, n int64, id uint64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	m := s.frags[file]
	if m == nil {
		return // flushed meanwhile
	}
	before := m.Len()
	removed := m.Punch(off, n, func(v frag) bool { return v.id == id })
	if removed == 0 {
		return
	}
	s.logGen.Add(1)
	s.ctr.logLive.Add(-removed)
	s.ctr.logExtents.Add(int64(m.Len() - before))
	if m.Len() == 0 {
		delete(s.frags, file)
	}
}

// overlay copies file's logged extents in [off, off+len(out)) over out,
// which holds the store's bytes, and reports true — unless log bytes
// have left for the store since the caller loaded gen, before reading
// the store: out may then predate them, and the caller must read the
// store again.
func (s *DataServer) overlay(file uint64, off int64, out []byte, gen uint64) bool {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	if s.logGen.Load() != gen {
		return false
	}
	var overlaid int64
	if m := s.frags[file]; m != nil {
		m.Each(off, int64(len(out)), func(e extent.Extent[frag]) {
			copy(out[e.Off-off:], e.Val.data)
			overlaid++
		})
	}
	s.ctr.fragmentReads.Add(overlaid)
	return true
}

// insertLocked makes v the logged contents of file at off, dropping the
// bytes it supersedes (logMu held).
func (s *DataServer) insertLocked(file uint64, off int64, v frag) {
	m := s.frags[file]
	if m == nil {
		m = new(extent.Map[frag])
		s.frags[file] = m
	}
	before := m.Len()
	n := int64(len(v.data))
	s.ctr.logLive.Add(n - m.Insert(off, n, v))
	s.ctr.logExtents.Add(int64(m.Len() - before))
}

// handleReadDirect is opRead with the hedge routing hint: a re-issued
// read racing a cancelled (or straggling) primary. Semantically
// identical to a plain read — the fragment-log overlay still applies,
// so hedged reads return exactly the bytes the primary would have.
// The hint only feeds the direct-read counter today; a future elastic
// layer can use it to prefer a replica or the HDD path.
func (s *DataServer) handleReadDirect(payload []byte) ([]byte, error) {
	s.ctr.directReads.Add(1)
	return s.handleRead(payload)
}

// handleRead payload: file u64, off i64, length i64.
// Reply: data bytes.
func (s *DataServer) handleRead(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	length := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if off < 0 || length < 0 || length > MaxMessage-64 {
		return nil, fmt.Errorf("pfsnet data: bad read [%d,+%d)", off, length)
	}
	s.ctr.reads.Add(1)
	s.ctr.readBytes.Add(length)
	// The reply is built in place — length prefix then data — so the
	// store reads straight into the pooled wire buffer with no
	// intermediate copy.
	reply := getBuf(4 + int(length))
	binary.BigEndian.PutUint32(reply[:4], uint32(length))
	out := reply[4:]
	gen := s.logGen.Load()
	if err := s.store.ReadAt(file, off, out); err != nil {
		putBuf(reply)
		return nil, err
	}
	// Overlay the logged extents: they are newer than the store's bytes.
	for s.bridge && !s.overlay(file, off, out, gen) {
		gen = s.logGen.Load()
		if err := s.store.ReadAt(file, off, out); err != nil {
			putBuf(reply)
			return nil, err
		}
	}
	return reply, nil
}

// handleStat payload: file u64. Reply: objectLen i64, the file's live
// log extents u32, and the live bytes in the whole log i64.
func (s *DataServer) handleStat(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	objLen, err := s.store.Size(file)
	if err != nil {
		return nil, err
	}
	var mapped uint32
	s.logMu.RLock()
	if m := s.frags[file]; m != nil {
		mapped = uint32(m.Len())
	}
	s.logMu.RUnlock()
	e := newEnc()
	e.i64(objLen)
	e.u32(mapped)
	e.i64(s.ctr.logLive.Load())
	return e.b, nil
}

// handleFlush payload: file u64 (0 = all files). Reply: flushed bytes i64.
func (s *DataServer) handleFlush(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	before := s.ctr.flushedBytes.Load()
	if err := s.flushLocked(file, file == 0); err != nil {
		return nil, err
	}
	e := newEnc()
	e.i64(s.ctr.flushedBytes.Load() - before)
	return e.b, nil
}
