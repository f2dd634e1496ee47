// Command accelsimd serves simulation jobs over HTTP: submit any
// registered experiment or an observed SocialNetwork run (with
// optional fault injection), stream per-cell progress as NDJSON, and
// download the resulting values and Chrome-trace/report artifacts.
//
// Usage:
//
//	accelsimd                          # listen on :8080, 2 workers, queue depth 8
//	accelsimd -addr :9000 -workers 4 -queue 16
//
//	curl -XPOST localhost:8080/v1/jobs -d '{"type":"experiment","experiment":"fig11","quick":true}'
//	curl localhost:8080/v1/jobs/job-1/progress        # NDJSON until done
//	curl localhost:8080/v1/jobs/job-1/values
//	curl -XPOST localhost:8080/v1/jobs -d '{"type":"observed","requests":600,"faultRate":2000}'
//	curl -o trace.json localhost:8080/v1/jobs/job-2/artifacts/trace
//
// Admission is bounded: jobs wait in one FIFO queue of -queue slots,
// and a submission to a full queue answers 429 with a Retry-After
// hint. Determinism makes results cacheable forever, so repeated
// identical submissions are served byte-identically from a bounded
// content-addressed cache (-cache; "cached": true in the job view,
// stats on /v1/cache) and identical in-flight submissions coalesce
// into one run. Finished jobs' rendered artifacts are held
// within a fixed 32 MiB budget, least recently used evicted first; a
// job whose artifacts were evicted answers 410 on them and still
// serves its values. SIGINT/SIGTERM drain gracefully — admission
// closes (503), running and queued jobs finish, then the process exits
// 0; jobs still running when -draintimeout expires are cancelled
// through their contexts. Results are deterministic: a job yields
// byte-identical values and artifacts to the same parameters run
// through cmd/accelsim, cached or not.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accelflow/internal/serve"
)

// daemonArgs collects the parsed flags so validation is a pure,
// table-testable function; main turns its error into an exit-2 fatalf
// before any listener or scheduler exists.
type daemonArgs struct {
	addr         string
	workers      int
	queue        int
	retryAfter   time.Duration
	drainTimeout time.Duration
	cacheSize    int
	heartbeat    time.Duration
}

// validate rejects bad flag values up front with a message naming the
// flag, instead of letting them surface as a hung scheduler (zero
// workers), a panic, or silently unbounded admission.
func (a daemonArgs) validate() error {
	if a.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if a.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", a.workers)
	}
	if a.queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", a.queue)
	}
	if a.retryAfter < 0 {
		return fmt.Errorf("-retryafter must be non-negative, got %v", a.retryAfter)
	}
	if a.drainTimeout < 0 {
		return fmt.Errorf("-draintimeout must be non-negative, got %v", a.drainTimeout)
	}
	if a.cacheSize < 0 {
		return fmt.Errorf("-cache must be non-negative (0 disables caching), got %d", a.cacheSize)
	}
	if a.heartbeat < 0 {
		return fmt.Errorf("-heartbeat must be non-negative (0 disables heartbeats), got %v", a.heartbeat)
	}
	return nil
}

func main() {
	var a daemonArgs
	flag.StringVar(&a.addr, "addr", ":8080", "listen address")
	flag.IntVar(&a.workers, "workers", 2, "concurrently running jobs")
	flag.IntVar(&a.queue, "queue", 8, "bounded admission queue depth (full queue -> 429)")
	flag.DurationVar(&a.retryAfter, "retryafter", time.Second, "Retry-After hint on 429/503 responses")
	flag.DurationVar(&a.drainTimeout, "draintimeout", 2*time.Minute, "graceful-drain budget on SIGTERM before running jobs are cancelled")
	check := flag.Bool("check", false, "run every job with runtime invariant checking (same results; violations fail the job)")
	flag.IntVar(&a.cacheSize, "cache", 512, "content-addressed result cache entries (finished jobs); 0 disables caching and coalescing")
	flag.DurationVar(&a.heartbeat, "heartbeat", 15*time.Second, "progress-stream keep-alive interval; 0 disables heartbeats")
	flag.Parse()

	if err := a.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "accelsimd: %v\n", err)
		os.Exit(2)
	}

	sched := serve.NewScheduler(serve.Config{
		Workers:      a.workers,
		QueueDepth:   a.queue,
		RetryAfter:   a.retryAfter,
		Check:        *check,
		CacheEntries: a.cacheSize,
	})
	api := serve.NewServer(sched)
	api.SetHeartbeat(a.heartbeat)
	srv := &http.Server{Handler: api.Handler()}

	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		log.Fatalf("accelsimd: listen: %v", err)
	}
	log.Printf("accelsimd: listening on %s (%d workers, queue depth %d)",
		ln.Addr(), sched.Config().Workers, sched.Config().QueueDepth)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("accelsimd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: close admission first so clients get 503 +
	// Retry-After, let admitted jobs run to completion, then stop the
	// HTTP server (progress streams end when their jobs do).
	log.Printf("accelsimd: draining (budget %v)", a.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
	defer cancel()
	if err := sched.Drain(dctx); err != nil {
		log.Printf("accelsimd: drain budget exceeded, running jobs cancelled: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("accelsimd: http shutdown: %v", err)
	}
	log.Printf("accelsimd: drained, exiting")
}
