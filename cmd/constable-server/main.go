// Command constable-server serves the simulation service over HTTP: clients
// submit JobSpecs, the execution backend (a bounded local pool plus any
// registered remote workers) simulates them, and identical specs — across
// clients — are answered from the content-addressed result cache without
// re-simulation.
//
// With -data-dir, finished results are also written to a persistent
// content-addressed store (one JSON file per spec hash), so they survive
// restarts and are shared with any other process pointing at the same
// directory. POST /v1/sweeps runs whole workload×mechanism matrices
// server-side; GET /v1/sweeps/{id}/events streams per-cell NDJSON.
//
// The server also accepts remote constable-worker registrations
// (POST /v1/workers): registered workers add execution capacity, sweeps
// shard across local slots and every worker, and a worker that dies has its
// in-flight jobs requeued. Run with a negative -workers to make the server
// a pure dispatcher. See docs/OPERATIONS.md for cluster recipes.
//
// Usage:
//
//	constable-server -addr :8080 -workers 8 -cache 4096 -data-dir /var/lib/constable
//
//	curl -s localhost:8080/v1/runs?wait=1 -d \
//	  '{"workload":"server-kvstore-00","mechanism":"constable","instructions":50000}'
//	curl -s localhost:8080/v1/sweeps -d \
//	  '{"workloads":["server-kvstore-00"],"mechanisms":["baseline","constable"]}'
//	curl -sN localhost:8080/v1/sweeps/sweep-1/events
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"constable/internal/profutil"
	"constable/internal/service"
)

// parseClassWeights parses the -class-weights flag ("interactive=8,batch=1")
// into the scheduler's weight-override map.
func parseClassWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-class-weights: %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-class-weights: weight for %q must be a positive integer", name)
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("constable-server: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent local simulation workers (negative: dispatch-only, all jobs run on remote workers)")
		cacheSize = flag.Int("cache", 4096, "result-cache capacity in entries")
		dataDir   = flag.String("data-dir", "", "persistent result-store directory (results survive restarts; empty disables)")
		workerTTL = flag.Duration("worker-ttl", 15*time.Second, "remote-worker lease: a worker missing heartbeats this long is expired and its jobs requeued")
		batch     = flag.Int("batch", 0, "max jobs dispatched to one backend as a single chunk; chunks also adapt to each worker's free capacity (0 = default 16, 1 = per-cell dispatch)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown timeout for running simulations")
		resultsAt = flag.String("results-server", "", "base URL of an upstream constable-server whose result store this server consults before simulating and writes back to after (federation; empty disables)")
		maxBody   = flag.Int64("max-body", 0, "max JSON request-body bytes on the API (0 = default 8 MiB)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
		queueMax  = flag.Int("queue-max", 0, "per-class queued-job watermark for admission control: over it, submissions get 429 + Retry-After; batch classes (sweeps) are exempt up to 64x this (0 disables)")
		weights   = flag.String("class-weights", "", "fair-share dispatch weight overrides, comma-separated name=weight (defaults interactive=8,batch=1,default=4)")
	)
	flag.Parse()

	if err := profutil.ServePprof(*pprofAddr); err != nil {
		log.Fatal(err)
	}

	classWeights, err := parseClassWeights(*weights)
	if err != nil {
		log.Fatal(err)
	}
	cfg := service.Config{Workers: *workers, CacheSize: *cacheSize, DataDir: *dataDir,
		WorkerTTL: *workerTTL, MaxBatch: *batch, MaxBody: *maxBody,
		QueueMax: *queueMax, ClassWeights: classWeights}
	if *resultsAt != "" {
		cfg.Share = service.NewRemoteResultStore(*resultsAt)
	}
	sched, err := service.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := service.Serve(*addr, sched)

	errc := make(chan error, 1)
	go func() {
		persist := "no persistence"
		if *dataDir != "" {
			persist = "data-dir " + *dataDir
		}
		local := fmt.Sprintf("%d local workers", *workers)
		if *workers < 0 {
			local = "dispatch-only (no local workers)"
		}
		log.Printf("listening on %s (%s, cache %d, %s)", *addr, local, *cacheSize, persist)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("received %v, draining (up to %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := sched.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("scheduler shutdown: %v", err)
	}
}
