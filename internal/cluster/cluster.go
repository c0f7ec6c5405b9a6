// Package cluster assembles a full simulated storage cluster — data
// servers with their devices and storage stacks, the metadata exchange,
// and the parallel file system — for one experiment run, and collects the
// metrics the paper's tables and figures report.
package cluster

import (
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stripe"
)

// Mode selects the storage stack at every data server.
type Mode int

// The three system configurations the paper compares.
const (
	// Stock is the baseline: all I/O to the hard disk (Figures 2–4
	// "stock system", Figure 10 "Disk-only").
	Stock Mode = iota
	// IBridge is the paper's scheme: disk plus SSD cache for fragments
	// and regular random requests.
	IBridge
	// SSDOnly stores everything on the SSD at its file location
	// (Figure 10's "SSD-only").
	SSDOnly
)

func (m Mode) String() string {
	switch m {
	case Stock:
		return "stock"
	case IBridge:
		return "ibridge"
	default:
		return "ssd-only"
	}
}

// Config describes one cluster instance.
type Config struct {
	// Servers is the number of data servers (8 on the paper's testbed).
	Servers int
	// StripeUnit is the striping unit in bytes (64 KB default).
	StripeUnit int64
	// Handlers bounds concurrent I/O jobs per server.
	Handlers int
	Mode     Mode
	// IBridge configures the bridges when Mode == IBridge.
	IBridge core.Config
	// FragmentThreshold and RandomThreshold are the client-side
	// thresholds (20 KB defaults); used only in IBridge mode.
	FragmentThreshold int64
	RandomThreshold   int64
	HDD               hdd.Spec
	SSD               ssd.Spec
	Net               pfs.NetModel
	// Readahead wraps every server's store with kernel-style
	// sequential readahead (128 KB windows). Off by default: the
	// calibrated experiments model the paper's flushed-cache
	// methodology; the ext-readahead experiment turns it on.
	Readahead bool
	// Trace attaches blktrace collectors to the disk queues.
	Trace bool
	Seed  uint64
	// Obs is the observability sink shared by all cluster instances of
	// one run (metrics registry, request-flow tracer, T_i telemetry).
	// nil disables instrumentation entirely — the zero-cost path.
	Obs *obs.Set
	// Faults, when set, applies the plan's simulated-device clauses:
	// duration-triggered `ssdfail=srvN@DUR` clauses schedule an SSD
	// failure on server N's bridge at virtual time DUR (IBridge mode
	// only; the bridge degrades to the disk path). Wire-level clauses
	// are ignored here — the simulated cluster has no sockets.
	Faults *faults.Plan
}

// DefaultConfig mirrors the paper's evaluation platform: 8 data servers,
// 64 KB striping unit, the Table II devices, and iBridge defaults.
func DefaultConfig() Config {
	return Config{
		Servers:    8,
		StripeUnit: stripe.DefaultUnit,
		// PVFS2's Trove layer performs synchronous file I/O with a
		// small number of concurrent operations per server; the block
		// queue never sees the whole client population at once.
		Handlers:          4,
		Mode:              Stock,
		IBridge:           core.DefaultConfig(),
		FragmentThreshold: 20 * 1024,
		RandomThreshold:   20 * 1024,
		HDD:               hdd.DefaultSpec(),
		SSD:               ssd.DefaultSpec(),
		Net:               pfs.DefaultNet(),
		Seed:              1,
	}
}

// Cluster is one assembled simulation instance. A Cluster runs exactly
// one workload (engines are single-use); construct a fresh Cluster per
// data point.
type Cluster struct {
	Engine     *sim.Engine
	FS         *pfs.FileSystem
	Disks      []*hdd.Disk
	SSDs       []*ssd.SSD
	Bridges    []*core.Bridge
	Collectors []*blktrace.Collector
	Exchange   *core.Exchange
	cfg        Config
}

// New builds a cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: %d servers", cfg.Servers)
	}
	if cfg.StripeUnit <= 0 {
		cfg.StripeUnit = stripe.DefaultUnit
	}
	e := sim.New()
	c := &Cluster{Engine: e, cfg: cfg}
	// Resolve the observability bundles once; every accessor is nil-safe
	// and returns a nil concrete pointer when disabled, so components see
	// either a live sink or the zero-cost nil. The explicit != nil guards
	// before Set*Probe calls keep a typed nil from becoming a non-nil
	// interface value.
	run := cfg.Obs.NextRun()
	tr := cfg.Obs.Tracer()
	hddM := cfg.Obs.DeviceMetrics("hdd")
	ssdM := cfg.Obs.DeviceMetrics("ssd")
	diskQM := cfg.Obs.QueueMetrics("iosched.hdd")
	ssdQM := cfg.Obs.QueueMetrics("iosched.ssd")
	bridgeM := cfg.Obs.BridgeMetrics()
	if em := cfg.Obs.EngineMetrics(); em != nil {
		e.SetProbe(em)
	}
	// Per-component generators are derived independently of cluster
	// mode so that e.g. disk i draws the same rotational latencies in
	// stock and iBridge runs — A/B comparisons differ only in
	// mechanism, not in noise.
	componentRNG := func(kind uint64, i int) *sim.RNG {
		return sim.NewRNG(cfg.Seed*0x9E3779B97F4A7C15 + kind*0x1000193 + uint64(i))
	}
	stores := make([]pfs.Store, cfg.Servers)
	if cfg.Mode == IBridge {
		c.Exchange = core.NewExchange(e, cfg.IBridge.ReportPeriod)
	}
	for i := 0; i < cfg.Servers; i++ {
		var tracer iosched.Tracer
		if cfg.Trace {
			col := blktrace.New(fmt.Sprintf("srv%d", i))
			c.Collectors = append(c.Collectors, col)
			tracer = col
		}
		disk := hdd.New(e, fmt.Sprintf("hdd%d", i), cfg.HDD, componentRNG(1, i))
		if hddM != nil {
			disk.SetProbe(hddM)
		}
		c.Disks = append(c.Disks, disk)
		diskQ := iosched.New(e, disk, iosched.DiskDefaults(), tracer)
		diskQ.SetMetrics(diskQM)
		switch cfg.Mode {
		case Stock:
			stores[i] = pfs.NewDiskStore(diskQ)
		case SSDOnly:
			sd := ssd.New(e, fmt.Sprintf("ssd%d", i), cfg.SSD)
			if ssdM != nil {
				sd.SetProbe(ssdM)
			}
			c.SSDs = append(c.SSDs, sd)
			sq := iosched.New(e, sd, iosched.SSDDefaults(), tracer)
			sq.SetMetrics(ssdQM)
			stores[i] = pfs.NewSSDStore(sq)
		case IBridge:
			sd := ssd.New(e, fmt.Sprintf("ssd%d", i), cfg.SSD)
			if ssdM != nil {
				sd.SetProbe(ssdM)
			}
			c.SSDs = append(c.SSDs, sd)
			ssdQ := iosched.New(e, sd, iosched.SSDDefaults(), nil)
			ssdQ.SetMetrics(ssdQM)
			b := core.NewBridge(e, cfg.IBridge, i, disk, diskQ, ssdQ, c.Exchange, componentRNG(2, i))
			b.SetObs(bridgeM, tr, run)
			c.Bridges = append(c.Bridges, b)
			stores[i] = b
			if at, ok := cfg.Faults.SSDFailAt(fmt.Sprintf("srv%d", i)); ok {
				br, plan := b, cfg.Faults
				// FailSSD records the failure instant ("ssd-failed") on the
				// bridge's trace lane at its virtual fire time.
				e.Go(fmt.Sprintf("ssdfail%d", i), func(p *sim.Proc) {
					p.Sleep(sim.Duration(at))
					br.FailSSD(p)
					plan.NoteSSDFail()
				})
			}
		}
	}
	if cfg.Readahead {
		for i := range stores {
			stores[i] = pfs.NewReadaheadStore(stores[i])
		}
	}
	if c.Exchange != nil {
		// The T_i telemetry hook rides the metadata-server broadcast
		// tick: each broadcast snapshots the T vector plus the bridges'
		// cumulative decision counters. Installed before Start so the
		// first tick is observed.
		if ts := cfg.Obs.TiSampler(fmt.Sprintf("run%d-%s", run, cfg.Mode)); ts != nil {
			bridges := c.Bridges
			c.Exchange.SetSampler(func(now sim.Time, view []float64) {
				var snap obs.TiSnapshot
				for _, b := range bridges {
					st := b.Stats()
					snap.BoostedOffloads += st.BoostedOffloads
					snap.PlainOffloads += st.PlainOffloads
					snap.Hits += st.Hits
					snap.Misses += st.Misses
					snap.Evictions += st.Evictions
				}
				ts.Sample(now, view, snap)
			})
		}
		c.Exchange.Start()
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{
		Layout:   stripe.Layout{Unit: cfg.StripeUnit, Servers: cfg.Servers},
		Net:      cfg.Net,
		Handlers: cfg.Handlers,
	}, stores)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		fs.SetObs(cfg.Obs.PFSMetrics(), tr, run)
	}
	c.FS = fs
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Client returns a client appropriate for the cluster mode: with
// iBridge's fragment flagging when the bridges are present.
func (c *Cluster) Client() *pfs.Client {
	if c.cfg.Mode == IBridge {
		return pfs.NewIBridgeClient(c.FS, c.cfg.FragmentThreshold, c.cfg.RandomThreshold)
	}
	return pfs.NewClient(c.FS)
}

// Workload is the body of one experiment: it runs inside a driver
// process, spawning rank processes as needed, and returns when all
// application I/O has completed.
type Workload func(c *Cluster, p *sim.Proc)

// Result carries the metrics of one run.
type Result struct {
	// Elapsed is application time: start to last rank completion.
	Elapsed sim.Duration
	// FlushTime is the additional time to write dirty cached data back
	// after the program terminated (the paper includes it: "to make
	// our comparison fair and conservative").
	FlushTime sim.Duration
	// Bytes is application bytes moved (both directions).
	Bytes int64
	// Requests and AvgServiceTime are client-observed (Table III).
	Requests       int64
	AvgServiceTime sim.Duration
	// SSDFraction is the fraction of server bytes served at the SSD.
	SSDFraction float64
	// PeakSSDUsage is cluster-wide peak cache occupancy in bytes.
	PeakSSDUsage int64
	// Bridge aggregates iBridge statistics across servers.
	Bridge core.Stats
	// Blocks is the merged block-level dispatch distribution (nil
	// unless Config.Trace).
	Blocks *blktrace.Collector
}

// ThroughputMBps returns application throughput over Elapsed+FlushTime in
// MB/s (decimal, as the paper reports).
func (r Result) ThroughputMBps() float64 {
	total := r.Elapsed + r.FlushTime
	if total <= 0 {
		return 0
	}
	return float64(r.Bytes) / total.Seconds() / 1e6
}

// Run executes w on the cluster and gathers metrics. It may be called
// once per Cluster.
func (c *Cluster) Run(w Workload) (Result, error) {
	var res Result
	c.Engine.Go("driver", func(p *sim.Proc) {
		w(c, p)
		res.Elapsed = sim.Duration(p.Now())
		c.FS.Flush(p)
		res.FlushTime = sim.Duration(p.Now()) - res.Elapsed
		c.Engine.Halt()
	})
	if err := c.Engine.Run(); err != nil {
		return res, err
	}
	st := c.FS.Stats()
	res.Bytes = st.TotalBytes()
	res.Requests = st.Requests
	res.AvgServiceTime = st.AvgServiceTime()
	for _, b := range c.Bridges {
		res.Bridge.Add(b.Stats())
	}
	if len(c.Bridges) > 0 {
		res.SSDFraction = res.Bridge.SSDFraction()
		res.PeakSSDUsage = res.Bridge.PeakUsage
	}
	if len(c.Collectors) > 0 {
		merged := blktrace.New("cluster")
		for _, col := range c.Collectors {
			merged.Merge(col)
		}
		res.Blocks = merged
	}
	return res, nil
}

// DiskStats aggregates device statistics across all disks.
func (c *Cluster) DiskStats() device.Stats {
	var agg device.Stats
	for _, d := range c.Disks {
		s := d.Stats()
		for op := range agg.Ops {
			agg.Ops[op] += s.Ops[op]
			agg.Bytes[op] += s.Bytes[op]
			agg.SeqOps[op] += s.SeqOps[op]
		}
		agg.BusyTime += s.BusyTime
		agg.SeekTime += s.SeekTime
		agg.Seeks += s.Seeks
	}
	return agg
}
