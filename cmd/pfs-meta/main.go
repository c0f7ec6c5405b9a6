// Command pfs-meta runs the pfsnet metadata server.
//
// Usage:
//
//	pfs-meta -listen 127.0.0.1:7000 -unit 65536 \
//	    -servers 127.0.0.1:7001,127.0.0.1:7002
//
// The server runs the same per-connection serve path as the data
// servers (hello, then pipelined tagged frames) with a single worker:
// metadata traffic is a handful of round trips per file.
//
// With -debug-addr the server exposes its metrics registry over expvar:
// GET http://<debug-addr>/debug/vars returns a JSON map holding the
// standard expvar keys plus "pfs" (the "pfsnet.meta.*" wire metrics:
// frames, bytes, in-flight depth, queue wait).
package main

import (
	"expvar"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfsnet"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7000", "address to listen on")
		unit       = flag.Int64("unit", 64*1024, "striping unit in bytes")
		servers    = flag.String("servers", "", "comma-separated data server addresses, in stripe order")
		ioTimeout  = flag.Duration("io-timeout", 30*time.Second, "per-frame read/write deadline on each connection (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "serve expvar metrics over HTTP at this address (/debug/vars)")
		faultSpec  = flag.String("faults", "", "deterministic fault-injection plan (see internal/faults)")
		faultScope = flag.String("fault-scope", "meta", "this server's scope label in the fault plan")
		loadHints  = flag.String("load-hints", "", "comma-separated expected service times (ms), one per data server in stripe order; broadcast to clients on Create/Open for cold-start issue ordering")
	)
	flag.Parse()
	addrs := strings.Split(*servers, ",")
	if *servers == "" || len(addrs) == 0 {
		log.Fatal("pfs-meta: -servers is required")
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = faults.Parse(*faultSpec); err != nil {
			log.Fatalf("pfs-meta: %v", err)
		}
	}
	reg := obs.NewRegistry()
	ms, err := pfsnet.NewMetaServerConfig(*listen, *unit, addrs, pfsnet.MetaConfig{
		IOTimeout:  *ioTimeout,
		Obs:        reg,
		FaultPlan:  plan,
		FaultScope: *faultScope,
	})
	if err != nil {
		log.Fatalf("pfs-meta: %v", err)
	}
	if *loadHints != "" {
		parts := strings.Split(*loadHints, ",")
		hints := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				log.Fatalf("pfs-meta: -load-hints[%d]: %v", i, err)
			}
			hints[i] = v
		}
		if err := ms.SetLoadHints(hints); err != nil {
			log.Fatalf("pfs-meta: %v", err)
		}
		log.Printf("pfs-meta: broadcasting load hints %v", hints)
	}
	log.Printf("pfs-meta: serving on %s (unit %d, %d data servers)", ms.Addr(), *unit, len(addrs))
	if *debugAddr != "" {
		reg.PublishExpvar("pfs")
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			log.Printf("pfs-meta: expvar metrics on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("pfs-meta: debug server: %v", err)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("pfs-meta: shutting down")
	ms.Close()
}
