// straightd is the experiment daemon: it keeps the persistent
// content-addressed result store open and serves sweep jobs to
// concurrent clients over HTTP/JSON, coalescing identical in-flight
// points so any simulation runs at most once no matter how many clients
// ask for it. Between jobs it keeps up to eight idle cycle cores
// (cores.PoolIdle, under 6 MB at 4-way sizes), so later points on the
// same configurations skip core construction. See internal/served for
// the protocol and DESIGN.md §14 for the store.
//
// Usage:
//
//	straightd [-addr :8372] [-store PATH] [-j N]
//
// Point cmd/experiments at it with -server http://HOST:PORT. SIGINT or
// SIGTERM cancels in-flight simulations (they fail fast with
// "simulation interrupted"), drains connections, and flushes the store
// before exiting.
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

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/served"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	storePath := flag.String("store", "straight-results.store", "result store path")
	workers := flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(*addr, *storePath, *workers); err != nil {
		log.Fatal(err)
	}
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection forever. Request bodies and responses stay unbounded: a
// sweep job legitimately streams results for as long as it simulates.
const readHeaderTimeout = 10 * time.Second

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func run(addr, storePath string, workers int) error {
	store, err := resultstore.Open(storePath, resultstore.Options{Salt: perf.VersionSalt()})
	if err != nil {
		return fmt.Errorf("opening result store: %w", err)
	}
	sess := bench.NewSession()
	sess.SetStore(store)
	sess.Workers = workers

	srv := served.NewServer(served.Config{Session: sess})
	httpSrv := newHTTPServer(addr, srv.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		store.Close()
		return err
	}
	st := store.Stats()
	log.Printf("straightd listening on %s (store %s: %d entries, salt %#x, workers %d)",
		ln.Addr(), storePath, st.Entries, store.Salt(), sess.Parallelism())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		store.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("straightd: signal received, interrupting in-flight simulations")

	// Cancel simulations first so draining requests fail fast instead of
	// holding Shutdown for a full sweep.
	srv.Shutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("straightd: shutdown: %v", err)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing result store: %w", err)
	}
	final := store.Stats()
	log.Printf("straightd: store flushed (%d entries), bye", final.Entries)
	return nil
}
