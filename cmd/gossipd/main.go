// Command gossipd is the long-running gossip-analysis service: an HTTP JSON
// front end (see repro/systolic/serve for the wire schema) that multiplexes
// many concurrent analyze/broadcast/sweep requests over the systolic engine,
// with a sharded result cache, request deduplication, a bounded worker pool
// and Prometheus-style metrics.
//
//	gossipd -addr :8080 -workers 8 -queue 64 -cache 4096 -spool /var/spool/gossipd
//
// The server drains gracefully on SIGINT/SIGTERM: in-flight sessions finish
// (up to -drain-timeout), new computations get 503.
//
// Loadtest mode hammers a server with a mixed request workload and reports
// latency percentiles — the built-in smoke and regression driver:
//
//	gossipd -loadtest -duration 1s -concurrency 16          # in-process server
//	gossipd -loadtest -url http://localhost:8080 -duration 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/systolic/serve"
)

// version is stamped at build time with
// -ldflags "-X main.version=v1.2.3"; unset, the module build info (or
// "dev") stands in. /healthz reports it.
var version string

func buildVersion() string {
	if version != "" {
		return version
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued computations before 429 (0 = default 64)")
	cache := flag.Int("cache", 0, "result cache entries (0 = default 1024)")
	programCache := flag.Int("program-cache", 0, "compiled-program cache entries (0 = default 256)")
	planCache := flag.Int("plan-cache", 0, "compiled delay-plan cache entries (0 = default 256)")
	spool := flag.String("spool", "", "directory persisting async job results and checkpoints")
	maxScanNodes := flag.Int("max-scan-nodes", 0, "largest network (vertices) a broadcast scan may target (0 = default 2^24)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	loadtest := flag.Bool("loadtest", false, "run the load generator instead of serving")
	duration := flag.Duration("duration", time.Second, "loadtest duration")
	concurrency := flag.Int("concurrency", 16, "loadtest concurrent clients")
	target := flag.String("url", "", "loadtest target base URL (empty = in-process server)")
	flag.Parse()

	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheSize:          *cache,
		ProgramCacheSize:   *programCache,
		DelayPlanCacheSize: *planCache,
		SpoolDir:           *spool,
		MaxScanNodes:       *maxScanNodes,
		Version:            buildVersion(),
	}
	if *loadtest {
		if err := runLoadtest(cfg, *target, *duration, *concurrency); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if err := run(cfg, *addr, *drainTimeout, *pprofOn); err != nil {
		fatalf("%v", err)
	}
}

// withPprof mounts the net/http/pprof handlers next to the API handler.
// Profiling stays opt-in (-pprof): the endpoints expose heap contents and
// can stall the process under load, so a production deployment must choose
// them deliberately.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// A stalled client cannot hold a connection open past readHeaderTimeout or
// idleTimeout; bodies and responses stay uncapped, as sweeps run long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func run(cfg serve.Config, addr string, drainTimeout time.Duration, pprofOn bool) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if pprofOn {
		handler = withPprof(handler)
	}
	hs := &http.Server{Addr: addr, Handler: handler,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gossipd: serving on %s\n", addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "gossipd: draining (up to %v)\n", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	serr := hs.Shutdown(shutdownCtx)
	derr := srv.Drain(shutdownCtx)
	srv.Close()
	if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return derr
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gossipd: "+format+"\n", args...)
	os.Exit(1)
}
