// Command tightschedd is the campaign service daemon: a long-running
// HTTP front door over the tightsched Session API for running paper
// campaigns as declarative specs instead of flag soup.
//
// Submit a versioned YAML or JSON campaign spec, poll its progress,
// watch its typed event stream over SSE, and fetch the finished Table
// I/II/III artifacts — byte-for-byte what cmd/tables prints for the same
// campaign, because both render through the same library code path.
// Campaigns journal to the data directory, so a cancelled or killed
// campaign resumes bit-identically (tables -resume -journal, or
// resubmitting after a restart).
//
// Usage:
//
//	tightschedd [-addr :8080] [-data DIR] [-runners 2] [-workers 0]
//
// Endpoints (see internal/serve and DESIGN.md for the full contract):
//
//	POST   /v1/campaigns               submit a spec → 202 + status JSON
//	GET    /v1/campaigns[/{id}]        list / inspect campaigns
//	DELETE /v1/campaigns/{id}          cancel, journal stays resumable
//	GET    /v1/campaigns/{id}/events   SSE event stream
//	GET    /v1/campaigns/{id}/tables/{1|2|3}   Table artifacts
//	GET    /healthz, /metrics          liveness, Prometheus-style metrics
//
// SIGINT/SIGTERM shut down gracefully through the same signal path as
// the CLI tools (internal/cli): the listener drains, every campaign is
// cancelled at an instance boundary, journals are flushed and closed,
// and the daemon exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"tightsched/internal/cli"
	"tightsched/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		data      = flag.String("data", "tightschedd-data", "campaign journal directory")
		runners   = flag.Int("runners", 2, "campaigns running concurrently (others queue)")
		workers   = flag.Int("workers", 0, "default per-campaign parallel simulations when the spec leaves run.workers unset (0 = GOMAXPROCS)")
		drainWait = flag.Duration("drain", 10*time.Second, "shutdown grace for in-flight HTTP requests")
	)
	flag.Parse()

	srv, err := serve.NewServer(serve.Config{
		DataDir: *data,
		Runners: *runners,
		Workers: *workers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tightschedd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	// Cluster campaigns that were mid-flight when the daemon last
	// stopped resume from their lease logs before traffic arrives.
	if resumed, err := srv.RecoverClusters(); err != nil {
		fatal(err)
	} else if len(resumed) > 0 {
		fmt.Fprintf(os.Stderr, "tightschedd: resumed %d cluster campaign(s)\n", len(resumed))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// The daemon shares the CLI tools' signal path: SIGINT/SIGTERM cancel
	// a context, and everything downstream stops at clean boundaries.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tightschedd: listening on %s (journals in %s, %d runners)\n",
		*addr, *data, *runners)

	select {
	case <-ctx.Done():
		// Graceful shutdown. Campaigns first: cancelling them resolves
		// every campaign at an instance boundary, flushes and closes the
		// journals, and ends the SSE streams (each emits its final state
		// event) — so the HTTP drain that follows completes quickly
		// instead of waiting out long-running streams.
		fmt.Fprintln(os.Stderr, "tightschedd: signal received, shutting down")
		srv.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			httpSrv.Close()
		}
		fmt.Fprintln(os.Stderr, "tightschedd: campaigns stopped, journals flushed")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tightschedd:", err)
	os.Exit(1)
}
