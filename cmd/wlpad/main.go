// Command wlpad is the long-lived analysis daemon: an HTTP/JSON service
// answering Wilson–Lam pointer-analysis requests out of a
// content-addressed cache, running the worklist engine only on misses.
// wlpa and wlcheck talk to it via their -remote flag; see OPERATIONS.md
// for the endpoint reference and cache semantics.
//
// Usage:
//
//	wlpad serve [-addr :8372] [-cache-dir DIR] [-mem-budget BYTES]
//	            [-timeout DUR] [-max-inflight N] [-baseline-cap N]
//	            [-policy ptf|emami|single] [-max-ptfs N]
//	            [-combine-offsets] [-log json|text]
//
// The process serves until SIGINT/SIGTERM, then shuts down gracefully
// (in-flight requests get a drain window). An empty -cache-dir keeps
// the cache in memory only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlpa/internal/server"
	"wlpa/internal/store"
	"wlpa/pta"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "serve" {
		fmt.Fprintln(os.Stderr, "usage: wlpad serve [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("wlpad serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8372", "listen address")
		cacheDir    = fs.String("cache-dir", "", "on-disk cache directory (empty = memory-only)")
		memBudget   = fs.Int64("mem-budget", store.DefaultMemBudget, "in-memory cache budget in bytes")
		timeout     = fs.Duration("timeout", 2*time.Minute, "per-request wall-clock budget of the analysis, and again of the checker (must be positive)")
		maxInflight = fs.Int("max-inflight", 2, "concurrent engine runs (cache hits are not throttled)")
		baselineCap = fs.Int("baseline-cap", 8, "warm-edit baselines held for incremental grafting (each pins a converged analysis)")
		policy      = fs.String("policy", "ptf", "summarization policy: ptf, emami, or single")
		maxPTFs     = fs.Int("max-ptfs", 0, "cap PTFs per procedure (0 = unlimited)")
		combine     = fs.Bool("combine-offsets", false, "combine PTFs differing only in offsets/strides (paper §7)")
		logFormat   = fs.String("log", "text", "request log format: text or json")
	)
	fs.Parse(os.Args[2:])
	// The budget bounds the HTTP write deadline too, so "no budget"
	// would cut slow responses off while their analysis runs on.
	if *timeout <= 0 {
		fmt.Fprintf(os.Stderr, "wlpad: -timeout must be positive, got %v\n", *timeout)
		os.Exit(2)
	}

	opts := pta.Options{
		MaxPTFs:        *maxPTFs,
		CombineOffsets: *combine,
		Timeout:        *timeout,
	}
	switch *policy {
	case "ptf":
		opts.Policy = pta.PartialTransferFunctions
	case "emami":
		opts.Policy = pta.ReanalyzeEveryContext
	case "single":
		opts.Policy = pta.OneSummary
	default:
		fmt.Fprintf(os.Stderr, "wlpad: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "wlpad: unknown -log %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	st, err := store.Open(*cacheDir, *memBudget)
	if err != nil {
		log.Error("opening store", "err", err)
		os.Exit(1)
	}
	srv, err := server.New(server.Config{
		Store:       st,
		Options:     opts,
		MaxInflight: *maxInflight,
		BaselineCap: *baselineCap,
		Logger:      log,
	})
	if err != nil {
		log.Error("configuring server", "err", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// Responses must outlast the analysis budget plus the checker's
		// (a request with diagnostics may spend one budget in each).
		WriteTimeout: 2*(*timeout) + 30*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("wlpad serving", "addr", *addr, "cache_dir", *cacheDir, "policy", *policy, "timeout", timeout.String())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Warn("forced shutdown", "err", err)
		}
	}
	stats := st.Stats()
	log.Info("final cache stats",
		"hits", stats.Hits(), "misses", stats.Misses, "puts", stats.Puts,
		"evictions", stats.Evictions, "corrupt", stats.Corrupt)
}
