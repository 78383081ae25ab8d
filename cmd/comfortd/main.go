// Command comfortd serves fuzzing campaigns as supervised, resumable
// jobs over HTTP/JSON (see internal/server). The job queue lives on disk
// in the -data directory; killing the server at any instant — power cut,
// OOM kill, kill -9 — loses nothing: on restart the queue is rebuilt and
// every unfinished job resumes from its last checkpoint.
//
// Usage:
//
//	comfortd -data /var/lib/comfortd             # serve on :8334
//	comfortd -addr :9000 -pool 8 -max-active 4   # wider shared pool
//
// Several instances may share one -data directory (distinct
// -instance-id each): jobs are claimed through per-job lease files with
// fencing epochs, a crashed instance's jobs are taken over by peers
// after -lease-ttl, and a gracefully stopped instance hands its jobs
// over immediately (see internal/server/lease.go and DESIGN.md §9).
//
// API (see internal/server.Handler):
//
//	POST /jobs              submit a campaign spec
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         status (+ accounting when done)
//	POST /jobs/{id}/cancel  cancel
//	GET  /jobs/{id}/stream  progress as server-sent events
//	GET  /healthz           liveness
//
// Signals mirror cmd/comfort: the first SIGINT/SIGTERM drains — running
// campaigns flush final checkpoints, statuses are persisted — and exits 3;
// a second signal force-quits with 130.
//
// Exit codes: 0 never in steady state (the server runs until signalled),
// 1 usage/config error, 3 graceful drain after a signal, 130 forced quit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"comfort/internal/server"
)

// exitInterrupted is the graceful-drain exit code, shared with
// cmd/comfort: "stopped on request, all state flushed, safe to restart".
const exitInterrupted = 3

// readHeaderTimeout bounds how long a client may take to send request
// headers, so a connection that trickles them in cannot hold a server
// goroutine forever. Bodies are bounded separately (server.MaxSpecBytes);
// stream responses stay open as long as the client follows them.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr       = flag.String("addr", ":8334", "HTTP listen address")
		data       = flag.String("data", "comfortd-data", "data directory holding the persistent job queue")
		pool       = flag.Int("pool", 0, "shared execution pool slots across all jobs; 0 = GOMAXPROCS")
		maxActive  = flag.Int("max-active", 0, "concurrently running campaigns; 0 = default (2)")
		queueMax   = flag.Int("queue-max", 0, "admission bound on queued+waiting jobs; 0 = default (64)")
		maxRetries = flag.Int("max-retries", 0, "no-progress failures before quarantine; 0 = default (3)")
		backoffMin = flag.Duration("backoff-base", 0, "first retry delay; 0 = default (1s)")
		backoffMax = flag.Duration("backoff-max", 0, "retry delay cap; 0 = default (1m)")
		progEach   = flag.Int("progress-every", 0, "cases between streamed progress samples; 0 = default (64)")
		instanceID = flag.String("instance-id", "", "stable identity for job leases; instances sharing a -data directory must differ, a restart should reuse its old ID; default: hostname")
		leaseTTL   = flag.Duration("lease-ttl", 0, "job lease lifetime — a dead instance's jobs become claimable by peers after this; 0 = default (15s)")
		heartbeat  = flag.Duration("heartbeat", 0, "lease renewal and peer-scan interval; 0 = default (lease-ttl/3)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "comfortd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(1)
	}

	if *instanceID == "" {
		if host, herr := os.Hostname(); herr == nil && host != "" {
			*instanceID = host
		} else {
			*instanceID = "comfortd"
		}
	}

	store, err := server.OpenStore(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "comfortd: %v\n", err)
		os.Exit(1)
	}
	sup, err := server.NewSupervisor(server.Options{
		Store:         store,
		InstanceID:    *instanceID,
		LeaseTTL:      *leaseTTL,
		Heartbeat:     *heartbeat,
		PoolWorkers:   *pool,
		MaxActive:     *maxActive,
		QueueMax:      *queueMax,
		MaxRetries:    *maxRetries,
		BackoffBase:   *backoffMin,
		BackoffMax:    *backoffMax,
		ProgressEvery: *progEach,
		Clock:         time.Now,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "comfortd: %v\n", err)
		os.Exit(1)
	}
	for _, w := range sup.Warnings() {
		fmt.Fprintf(os.Stderr, "comfortd: warning: %s\n", w)
	}
	recovered := 0
	for _, st := range sup.List() {
		if st.State == server.StateQueued {
			recovered++
		}
	}

	srv := &http.Server{Addr: *addr, Handler: server.Handler(sup), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "comfortd: instance %q serving on %s, data in %s (%d jobs pending)\n",
		*instanceID, *addr, *data, recovered)

	// First SIGINT/SIGTERM drains: stop accepting HTTP, cancel running
	// campaigns (each flushes a final checkpoint), persist every status,
	// exit 3. A second signal force-quits with the conventional 130.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "comfortd: %v\n", err)
		os.Exit(1)
	case <-sigCh:
	}
	fmt.Fprintln(os.Stderr, "comfortd: interrupted — draining jobs and flushing checkpoints (signal again to force quit)")
	go func() {
		<-sigCh
		os.Exit(130)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	sup.Shutdown()
	fmt.Fprintln(os.Stderr, "comfortd: drained; all unfinished jobs will resume on restart")
	os.Exit(exitInterrupted)
}
