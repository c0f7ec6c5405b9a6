package pfsnet

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stripe"
)

// MetaServer is the metadata service: it owns the namespace and the
// striping layout, and tells clients which data servers hold a file.
type MetaServer struct {
	connServer
	unit    int64
	servers []string // data server addresses, in stripe order

	mu     sync.Mutex
	files  map[string]fileMeta
	nextID uint64
	// loadHints is the T_i broadcast vector (expected service time per
	// data server, milliseconds, stripe order). When set, Create/Open
	// replies carry it as trailing payload bytes old clients ignore;
	// hedging clients consume it for cold-start issue ordering.
	loadHints []float64
}

type fileMeta struct {
	id   uint64
	size int64
}

// MetaConfig configures a metadata server beyond the common defaults.
type MetaConfig struct {
	// IOTimeout, when positive, bounds each frame read and reply write
	// so a stalled peer cannot pin a handler goroutine. 0 = off.
	IOTimeout time.Duration
	// FaultPlan, when set, wraps the listener with the plan's
	// connection faults; FaultScope names this server in the plan.
	FaultPlan  *faults.Plan
	FaultScope string
	// Obs, when set, receives wire-level metrics under "pfsnet.meta.*".
	Obs *obs.Registry
}

// NewMetaServer starts a metadata server on addr for a file system
// striped over the given data server addresses with the given unit.
func NewMetaServer(addr string, unit int64, dataServers []string) (*MetaServer, error) {
	return NewMetaServerConfig(addr, unit, dataServers, MetaConfig{})
}

// NewMetaServerConfig starts a metadata server with explicit
// configuration.
func NewMetaServerConfig(addr string, unit int64, dataServers []string, cfg MetaConfig) (*MetaServer, error) {
	if unit <= 0 {
		unit = stripe.DefaultUnit
	}
	if len(dataServers) == 0 {
		return nil, fmt.Errorf("pfsnet meta: no data servers")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MetaServer{
		// Metadata requests are a handful per file and serialize on s.mu
		// anyway; one worker keeps replies in arrival order.
		connServer: connServer{
			name:      "pfsnet meta",
			workers:   1,
			ioTimeout: cfg.IOTimeout,
			wm:        newWireMetrics(cfg.Obs, "pfsnet.meta."),
		},
		unit:    unit,
		servers: append([]string(nil), dataServers...),
		files:   make(map[string]fileMeta),
		nextID:  1,
	}
	s.handle = s.dispatch
	s.serve(cfg.FaultPlan.WrapListener(ln, cfg.FaultScope))
	return s, nil
}

// Addr returns the server's listen address.
func (s *MetaServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server, severing open client connections. It is
// idempotent, like DataServer.Close.
func (s *MetaServer) Close() error {
	_, err := s.shutdown()
	return err
}

// dispatch executes one metadata request.
func (s *MetaServer) dispatch(op byte, payload []byte) (byte, []byte) {
	var reply []byte
	var err error
	switch op {
	case opCreate:
		reply, err = s.handleCreate(payload)
	case opOpen:
		reply, err = s.handleOpen(payload)
	default:
		err = fmt.Errorf("pfsnet meta: bad opcode %d", op)
	}
	if err != nil {
		putBuf(reply)
		return opError, errorPayload(err)
	}
	return opOK, reply
}

// SetLoadHints installs the T_i broadcast vector: one expected service
// time (milliseconds) per data server, in stripe order. A vector whose
// length does not match the server list is rejected; nil clears the
// broadcast. Subsequent Create/Open replies carry it to clients.
func (s *MetaServer) SetLoadHints(hints []float64) error {
	if hints != nil && len(hints) != len(s.servers) {
		return fmt.Errorf("pfsnet meta: %d load hints for %d servers", len(hints), len(s.servers))
	}
	cp := append([]float64(nil), hints...)
	s.mu.Lock()
	s.loadHints = cp
	s.mu.Unlock()
	return nil
}

// fileReplyLocked encodes id, size, unit, and the data server list,
// plus — when a T_i broadcast is installed — the trailing load-hint
// vector (count u32, float64 bits per server). Decoders ignore trailing
// payload bytes, so pre-hint clients parse the reply unchanged.
func (s *MetaServer) fileReplyLocked(m fileMeta) []byte {
	e := newEnc()
	e.u64(m.id)
	e.i64(m.size)
	e.i64(s.unit)
	e.u32(uint32(len(s.servers)))
	for _, srv := range s.servers {
		e.str(srv)
	}
	if len(s.loadHints) > 0 {
		e.u32(uint32(len(s.loadHints)))
		for _, h := range s.loadHints {
			e.u64(math.Float64bits(h))
		}
	}
	return e.b
}

// handleCreate payload: name str, size i64.
func (s *MetaServer) handleCreate(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	name := d.str()
	size := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if size <= 0 {
		return nil, fmt.Errorf("pfsnet meta: size %d must be positive", size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("pfsnet meta: file %q exists", name)
	}
	m := fileMeta{id: s.nextID, size: size}
	s.nextID++
	s.files[name] = m
	return s.fileReplyLocked(m), nil
}

// handleOpen payload: name str.
func (s *MetaServer) handleOpen(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	name := d.str()
	if d.err != nil {
		return nil, d.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("pfsnet meta: file %q not found", name)
	}
	return s.fileReplyLocked(m), nil
}
