// Command odrips-server exposes the fleet engine as an HTTP/JSON
// service: a bounded job queue of fleet-scale simulations executed by a
// worker pool against one shared memo plane, with live progress
// streaming and graceful drain.
//
// Usage:
//
//	odrips-server -addr 127.0.0.1:8080
//	odrips-server -addr 127.0.0.1:0 -workers 4 -capacity 256
//	odrips-server -memocache rw    # persist memo classes across restarts
//
// API (all bodies JSON; errors are {"error":{"code","message"}}):
//
//	POST   /v1/jobs              submit a fleet spec (the odrips-fleet
//	                             -spec file format); 202 with the job ID
//	GET    /v1/jobs/{id}         job state + per-shard progress
//	DELETE /v1/jobs/{id}         cancel (pending or running)
//	GET    /v1/jobs/{id}/results NDJSON stream: progress frames while
//	                             the job runs, then aggregates, memo,
//	                             shards, and a final done frame
//	GET    /v1/stats             queue + memo plane + store counters
//	GET    /healthz              liveness
//
// Job IDs are deterministic: (seed, acceptance sequence, canonical
// spec) — replaying a submission script against a fresh server mints
// the same IDs. Aggregates are byte-identical at any -workers count.
//
// On SIGTERM/SIGINT the server stops accepting jobs, finishes what is
// queued and running (bounded by -drain; leftover jobs are canceled),
// then exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"odrips"
	"odrips/internal/jobqueue"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the chosen address is printed)")
	workers := flag.Int("workers", 0, "job execution pool size (0 = 4); aggregates are byte-identical at any value")
	capacity := flag.Int("capacity", 0, "pending job FIFO bound (0 = 256); a full queue answers 503 queue_full")
	seed := flag.Int64("seed", 0, "job-ID seed (0 = 1); same seed + same submissions = same IDs")
	maxDevices := flag.Int("max-devices", 0, "largest accepted fleet (0 = 1e6)")
	retain := flag.Int("retain", 0, "finished jobs kept queryable (0 = 4096)")
	ffFlag := flag.String("fastforward", "on", "steady-state fast-forward: on, off, or verify")
	memoFlag := flag.String("memocache", "", "persistent memo store: off, rw, or ro (audit a store with -memocache ro -fastforward verify)")
	memoDir := flag.String("memocachedir", "", "persistent memo store directory (default .odrips-memocache)")
	drain := flag.Duration("drain", 30*time.Second, "max time to finish queued+running jobs on shutdown before canceling them")
	progressEvery := flag.Duration("progress-interval", 100*time.Millisecond, "pacing of result-stream progress frames")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "odrips-server: %v\n", err)
		os.Exit(2)
	}

	for _, name := range []string{"workers", "capacity", "max-devices", "retain"} {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			fail(fmt.Errorf("-%s %d: must not be negative", name, v))
		}
	}
	ffMode, err := odrips.ParseFFMode(*ffFlag)
	if err != nil {
		fail(err)
	}
	rt, err := odrips.OpenRuntime(*memoFlag, *memoDir, ffMode, 0)
	if err != nil {
		fail(fmt.Errorf("-memocache: %w", err))
	}

	// One plane for the process, the runtime's: every job warms it,
	// every later job draws from it, the persistent store (when enabled)
	// backs it.
	q := jobqueue.New(jobqueue.Options{
		Capacity:   *capacity,
		Workers:    *workers,
		Seed:       *seed,
		MaxDevices: *maxDevices,
		Retain:     *retain,
		Plane:      rt.Plane(),
		FF:         ffMode,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The smoke harness and loadgen scripts grep this line for the
	// resolved address, so keep its shape stable.
	fmt.Printf("odrips-server: listening on %s\n", ln.Addr())

	srv := newServer(q, rt.Plane(), *progressEvery).httpServer()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { //odrips:allow gotrack the accept loop is joined via serveErr below
		serveErr <- srv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
	}
	fmt.Println("odrips-server: draining")

	// Drain order: stop intake and finish jobs first (result streams
	// complete), then shut the HTTP side down.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := q.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "odrips-server: shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "odrips-server: serve: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "odrips-server: drain: %v (remaining jobs canceled)\n", drainErr)
		os.Exit(1)
	}
	fmt.Println("odrips-server: drained")
}
