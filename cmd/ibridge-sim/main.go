// Command ibridge-sim runs a single what-if mpi-io-test experiment on the
// simulated cluster with every knob exposed, for exploring configurations
// beyond the paper's tables.
//
// Examples:
//
//	ibridge-sim -mode ibridge -size 65536 -procs 64 -write
//	ibridge-sim -mode stock -size 65536 -shift 10240 -servers 4
//	ibridge-sim -mode ibridge -threshold 40960 -ssd 2147483648 -blktrace
//	ibridge-sim -mode ibridge -metrics -trace trace.json -obs-sample-ms 500
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		mode      = flag.String("mode", "ibridge", "storage mode: stock, ibridge, ssdonly")
		servers   = flag.Int("servers", 8, "data servers")
		unit      = flag.Int64("unit", 64*1024, "striping unit bytes")
		procs     = flag.Int("procs", 64, "MPI processes")
		size      = flag.Int64("size", 65*1024, "request size bytes")
		shift     = flag.Int64("shift", 0, "request offset shift bytes (Pattern III)")
		fileMB    = flag.Int64("file", 128, "data volume in MiB")
		write     = flag.Bool("write", false, "write instead of read")
		warm      = flag.Bool("warm", false, "run an unmeasured warm pass first (read caching)")
		barrier   = flag.Bool("barrier", false, "barrier between iterations")
		threshold = flag.Int64("threshold", 20*1024, "fragment/random threshold bytes")
		ssdBytes  = flag.Int64("ssd", 1<<30, "per-server SSD cache bytes")
		readahead = flag.Bool("readahead", false, "enable server-side readahead")
		blktrace  = flag.Bool("blktrace", false, "print the block-level request size distribution")
		metrics   = flag.Bool("metrics", false, "print the metrics registry and T_i time series after the run")
		traceTo   = flag.String("trace", "", "write a Chrome trace_event JSON request-flow trace to this file")
		obsMS     = flag.Int("obs-sample-ms", 0, "minimum virtual ms between T_i samples (0: every broadcast tick)")
		jitterUS  = flag.Int64("jitter", 2000, "per-rank think time bound in microseconds")
		seed      = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()

	cfg := cluster.DefaultConfig()
	switch *mode {
	case "stock":
		cfg.Mode = cluster.Stock
	case "ibridge":
		cfg.Mode = cluster.IBridge
	case "ssdonly":
		cfg.Mode = cluster.SSDOnly
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	cfg.Servers = *servers
	cfg.StripeUnit = *unit
	cfg.FragmentThreshold = *threshold
	cfg.RandomThreshold = *threshold
	cfg.IBridge.SSDCapacity = *ssdBytes
	cfg.Readahead = *readahead
	cfg.Trace = *blktrace
	cfg.Seed = *seed
	set := obs.New(obs.Config{
		Metrics:     *metrics,
		Trace:       *traceTo != "",
		SampleEvery: sim.Duration(*obsMS) * sim.Millisecond,
	})
	cfg.Obs = set

	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep := &workload.Report{}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs:       *procs,
		RequestSize: *size,
		Shift:       *shift,
		FileBytes:   *fileMB << 20,
		Write:       *write,
		Barrier:     *barrier,
		Warm:        *warm,
		Jitter:      sim.Duration(*jitterUS) * sim.Microsecond,
		Seed:        *seed,
		Report:      rep,
	}))
	if err != nil {
		log.Fatal(err)
	}

	op := "read"
	if *write {
		op = "write"
	}
	fmt.Printf("mode=%s servers=%d unit=%d procs=%d %s size=%d shift=%d volume=%dMiB\n",
		*mode, *servers, *unit, *procs, op, *size, *shift, *fileMB)
	if *warm {
		fmt.Printf("measured pass:  %8.1f MB/s over %v\n", rep.ThroughputMBps(), rep.Elapsed())
	}
	fmt.Printf("whole run:      %8.1f MB/s (elapsed %v + flush %v)\n",
		res.ThroughputMBps(), res.Elapsed, res.FlushTime)
	fmt.Printf("requests:       %d, avg service time %v\n", res.Requests, res.AvgServiceTime)
	if cfg.Mode == cluster.IBridge {
		fmt.Printf("iBridge:        %.1f%% of bytes served at SSD; admissions %v; hits %d; writeback %d MB; peak usage %d MB\n",
			res.SSDFraction*100, res.Bridge.Admissions, res.Bridge.Hits,
			res.Bridge.WritebackBytes>>20, res.PeakSSDUsage>>20)
	}
	ds := c.DiskStats()
	fmt.Printf("disks:          %d ops, %d repositionings, busy %.0f%%\n",
		ds.TotalOps(), ds.Seeks, 100*ds.BusyTime.Seconds()/float64(cfg.Servers)/(res.Elapsed+res.FlushTime).Seconds())
	if *blktrace && res.Blocks != nil {
		fmt.Println()
		fmt.Print(res.Blocks.Render())
	}
	if *metrics {
		fmt.Println()
		set.WriteMetrics(os.Stdout)
		set.WriteTiSeries(os.Stdout)
	}
	// Tracer() is non-nil exactly when -trace enabled it above.
	if tr := set.Tracer(); tr != nil && *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteChromeX(f, tr.Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load in chrome://tracing)\n",
			tr.Len(), *traceTo)
	}
}
