package pfs

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Server is one data server: a job queue drained by a pool of handler
// processes (modelling the pvfs2-server daemon's concurrent I/O jobs),
// each of which pushes the job's block request into the server's storage
// stack.
type Server struct {
	e        *sim.Engine
	id       int
	store    Store
	jobs     *sim.Queue[*job]
	handlers int

	// Extent allocation: files receive contiguous LBN ranges with an
	// allocation-group gap between them, like Ext2 block groups.
	nextLBN  int64
	capacity int64

	served int64

	// Observability sinks, installed by FileSystem.SetObs (nil when off).
	m     *obs.PFSMetrics
	tr    *obs.XTracer
	scope string // trace lane, "run<N>/srv<id>"
}

type job struct {
	req  *IORequest
	done func()
}

// allocGap is the spacing in sectors between consecutive file extents,
// so that distinct files are not artificially adjacent on disk.
const allocGap = 1 << 16 // 32 MB

func newServer(e *sim.Engine, id int, store Store, handlers int) *Server {
	s := &Server{
		e:        e,
		id:       id,
		store:    store,
		jobs:     sim.NewQueue[*job](e),
		handlers: handlers,
		nextLBN:  allocGap,
		capacity: 1 << 31, // sectors; 1 TB per server
	}
	for h := 0; h < handlers; h++ {
		e.Go(fmt.Sprintf("srv%d-h%d", id, h), s.handle)
	}
	return s
}

// ID returns the server index.
func (s *Server) ID() int { return s.id }

// Store returns the server's storage stack.
func (s *Server) Store() Store { return s.store }

// Served returns the number of sub-requests this server has completed.
func (s *Server) Served() int64 { return s.served }

// allocate reserves a contiguous extent of the given byte length and
// returns its first LBN.
func (s *Server) allocate(bytes int64) (int64, error) {
	sectors := (bytes + device.SectorSize - 1) / device.SectorSize
	if s.nextLBN+sectors > s.capacity {
		return 0, fmt.Errorf("server %d: out of space", s.id)
	}
	base := s.nextLBN
	s.nextLBN += sectors + allocGap
	return base, nil
}

// enqueue submits a job to the server; done runs (in engine-callback
// context) when the job's I/O completes.
func (s *Server) enqueue(req *IORequest, done func()) {
	s.jobs.Push(&job{req: req, done: done})
}

// handle is one handler process: it drains the job queue forever (the
// process is terminated by the engine at the end of the simulation).
func (s *Server) handle(p *sim.Proc) {
	for {
		j, ok := s.jobs.Pop(p)
		if !ok {
			return
		}
		start := p.Now()
		s.store.Serve(p, j.req)
		if s.m != nil {
			s.m.SubServe.ObserveDur(p.Now().Sub(start))
		}
		if s.tr != nil {
			s.tr.Span(uint64(j.req.ID), 0, 0, flowName(j.req), s.scope, time.Unix(0, int64(start)), time.Duration(p.Now().Sub(start)))
		}
		s.served++
		j.done()
	}
}

// flowName labels a sub-request's serve span with a static string (no
// per-request formatting on the traced path).
func flowName(r *IORequest) string {
	if r.Op == device.Read {
		if r.Fragment {
			return "read-frag"
		}
		if r.Random {
			return "read-rand"
		}
		return "read"
	}
	if r.Fragment {
		return "write-frag"
	}
	if r.Random {
		return "write-rand"
	}
	return "write"
}
