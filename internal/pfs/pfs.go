// Package pfs implements a simulated striped parallel file system in the
// mould of PVFS2: a set of data servers each backed by a storage stack, a
// metadata service that places files, and a client that decomposes file
// requests into per-server sub-requests and issues them concurrently.
//
// The package defines the Store interface through which a data server
// serves block-level I/O; the stock system binds it to a disk behind a
// merging elevator (stores.go), and internal/core binds it to the iBridge
// hybrid disk+SSD stack. Requests flagged by the client as fragments carry
// their sibling-server list, exactly the information the paper's modified
// io_datafile_setup_msgpairs passes to pvfs2-server.
package pfs

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// IORequest is one sub-request as seen by a data server's storage stack,
// already translated to the server's block address space.
type IORequest struct {
	Op     device.Op
	FileID int
	// ID identifies the parent file request this sub-request belongs
	// to, for request-flow tracing; all sub-requests of one parent
	// share it. Zero when tracing is off.
	ID      int64
	LBN     int64 // first sector on the server's disk
	Sectors int64
	Bytes   int64 // exact byte length before sector rounding
	// Fragment is the client-side iBridge flag: this sub-request is a
	// small piece of a parent that spans multiple servers.
	Fragment bool
	// Siblings are the other servers serving the same parent request
	// (set only when Fragment).
	Siblings []int
	// Random marks a regular random request in the paper's sense: the
	// whole parent request is smaller than the random threshold.
	Random bool
	// Server is the id of the data server this request was routed to.
	Server int
	// Origin is the issuing process context, for CFQ grouping.
	Origin int32
}

// Request returns the block-level request for the device layer.
func (r *IORequest) Request() device.Request {
	return device.Request{Op: r.Op, LBN: r.LBN, Sectors: r.Sectors, Origin: r.Origin}
}

func (r *IORequest) String() string {
	tag := ""
	if r.Fragment {
		tag = " frag"
	}
	if r.Random {
		tag += " rand"
	}
	return fmt.Sprintf("srv%d %s lbn=%d sectors=%d%s", r.Server, r.Op, r.LBN, r.Sectors, tag)
}

// Store is a data server's storage stack: it serves block-level requests,
// blocking the calling process in virtual time.
type Store interface {
	// Serve executes r to completion.
	Serve(p *sim.Proc, r *IORequest)
	// Flush writes out any buffered dirty state (iBridge's SSD cache);
	// the stock stores are write-through and Flush is a no-op. The
	// paper includes this flush in measured execution time "to make
	// our comparison fair and conservative".
	Flush(p *sim.Proc)
}

// NetModel is the interconnect model: per-message latency plus a byte
// cost. The evaluation platform's QDR InfiniBand is far from being the
// bottleneck, so a simple latency+bandwidth model suffices.
type NetModel struct {
	Latency     sim.Duration
	BytesPerSec float64
}

// DefaultNet models one rail of 4X QDR InfiniBand.
func DefaultNet() NetModel {
	return NetModel{Latency: 5 * sim.Microsecond, BytesPerSec: 3.2e9}
}

// Delay returns the one-way transfer time for a payload of n bytes.
func (m NetModel) Delay(n int64) sim.Duration {
	d := m.Latency
	if m.BytesPerSec > 0 {
		d += sim.Duration(float64(n) / m.BytesPerSec * float64(sim.Second))
	}
	return d
}

// File is an open striped file.
type File struct {
	ID   int
	Name string
	Size int64
	// bases[s] is the first LBN of this file's object on server s.
	bases []int64
}

// FileSystem is the simulated parallel file system: layout metadata plus
// the data servers. It plays the role of the PVFS2 metadata server for
// placement.
type FileSystem struct {
	e       *sim.Engine
	layout  stripe.Layout
	net     NetModel
	servers []*Server
	files   map[string]*File
	nextID  int
	stats   Stats

	// Observability (nil when off): request counters/latency histograms,
	// request-flow tracer, and the client's trace lane.
	m       *obs.PFSMetrics
	tr      *obs.XTracer
	scope   string // "run<N>/client"
	nextReq int64  // parent request id source (only advanced when tracing)
}

// SetObs installs the observability sinks (any may be nil); run labels
// the cluster instance in trace lanes. Call before issuing requests; it
// propagates the tracer to the data servers.
func (fs *FileSystem) SetObs(m *obs.PFSMetrics, tr *obs.XTracer, run int32) {
	fs.m = m
	fs.tr = tr
	fs.scope = fmt.Sprintf("run%d/client", run)
	for _, srv := range fs.servers {
		srv.m = m
		srv.tr = tr
		srv.scope = fmt.Sprintf("run%d/srv%d", run, srv.id)
	}
}

// Stats aggregates client-observed request statistics.
type Stats struct {
	Requests  int64
	Bytes     [2]int64     // per device.Op
	Latency   sim.Duration // sum of request service times
	SubCount  int64
	Fragments int64
}

// AvgServiceTime returns the mean client-observed request service time
// (the Table III metric).
func (s *Stats) AvgServiceTime() sim.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.Latency / sim.Duration(s.Requests)
}

// TotalBytes returns bytes moved in both directions.
func (s *Stats) TotalBytes() int64 { return s.Bytes[device.Read] + s.Bytes[device.Write] }

// Config assembles a FileSystem.
type Config struct {
	Layout   stripe.Layout
	Net      NetModel
	Handlers int // concurrent I/O jobs per data server
}

// NewFileSystem builds the file system over the given per-server stores.
func NewFileSystem(e *sim.Engine, cfg Config, stores []Store) (*FileSystem, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if len(stores) != cfg.Layout.Servers {
		return nil, fmt.Errorf("pfs: %d stores for %d servers", len(stores), cfg.Layout.Servers)
	}
	if cfg.Handlers <= 0 {
		cfg.Handlers = 32
	}
	if cfg.Net.BytesPerSec == 0 && cfg.Net.Latency == 0 {
		cfg.Net = DefaultNet()
	}
	fs := &FileSystem{
		e:      e,
		layout: cfg.Layout,
		net:    cfg.Net,
		files:  make(map[string]*File),
	}
	fs.servers = make([]*Server, cfg.Layout.Servers)
	for i := range fs.servers {
		fs.servers[i] = newServer(e, i, stores[i], cfg.Handlers)
	}
	return fs, nil
}

// Layout returns the striping layout.
func (fs *FileSystem) Layout() stripe.Layout { return fs.layout }

// Net returns the interconnect model.
func (fs *FileSystem) Net() NetModel { return fs.net }

// Servers returns the data servers.
func (fs *FileSystem) Servers() []*Server { return fs.servers }

// Stats returns the aggregated client statistics.
func (fs *FileSystem) Stats() *Stats { return &fs.stats }

// Create allocates a file of the given size, placing one contiguous
// extent per data server (the Ext2-style extent allocation of the
// evaluation platform's server-local file systems).
func (fs *FileSystem) Create(name string, size int64) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("pfs: file %q exists", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("pfs: file size %d must be positive", size)
	}
	f := &File{ID: fs.nextID, Name: name, Size: size, bases: make([]int64, fs.layout.Servers)}
	fs.nextID++
	perServer := fs.layout.ServerBytes(size)
	for s, srv := range fs.servers {
		base, err := srv.allocate(perServer[s])
		if err != nil {
			return nil, fmt.Errorf("pfs: create %q: %w", name, err)
		}
		f.bases[s] = base
	}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file by name.
func (fs *FileSystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: file %q not found", name)
	}
	return f, nil
}

// Flush flushes every server's store (dirty SSD cache data), blocking p
// until all servers complete.
func (fs *FileSystem) Flush(p *sim.Proc) {
	done := sim.NewCounter(fs.e, len(fs.servers))
	for _, srv := range fs.servers {
		srv := srv
		fs.e.Go(fmt.Sprintf("flush:srv%d", srv.id), func(fp *sim.Proc) {
			srv.store.Flush(fp)
			done.Done()
		})
	}
	done.Wait(p)
}
