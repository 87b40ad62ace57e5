// Package served implements the straightd experiment daemon: a
// long-running HTTP/JSON service that accepts sweep jobs from
// concurrent clients, executes their points on one bounded worker pool,
// coalesces identical in-flight points so the same simulation is never
// run twice concurrently, and serves repeated points from the shared
// persistent result store (internal/resultstore).
//
// The wire protocol is deliberately small:
//
//	POST /v1/run     — body {"points": [SweepPoint…]}; the response is a
//	                   newline-delimited JSON stream of PointUpdate
//	                   records, one per finished point (in completion
//	                   order, flushed whenever no further record is
//	                   waiting) followed by a terminal {"done": true}
//	                   summary record. Bodies over MaxJobBytes get 413.
//	GET  /v1/stats   — ServerStats snapshot: job/point counters, the
//	                   coalescing counters, result-store stats and
//	                   per-section hit/miss/recompute counts.
//	GET  /v1/healthz — liveness probe ("ok").
//
// Client is the matching client; it implements bench.Remote, so
// cmd/experiments -server delegates whole sweeps to a daemon without
// the experiment code knowing.
//
// A Server executes points on one bench.Session (Config.Session, else
// bench.Default()), whose store and counters /v1/stats reports. Each
// point runs under its flight's context, derived from the server's
// lifetime context: Shutdown cancels the server's, which stops running
// simulations within one advance and fails queued points. The session
// keeps up to cores.PoolIdle idle cycle cores between points and jobs,
// so a later point on the same configuration resets one instead of
// building it.
//
// Coalescing extends the build-cache singleflight idea (bench.buildOnce)
// across process boundaries: points are identified by their
// content-addressed result key (bench.PointKey), and every concurrent
// request for a key holds the same flight and shares the one result.
// Holders are equal: the first runs the flight on its own goroutine,
// the others wait for it, and the flight runs while anyone holds it.
// When the last holder's request ends, the flight leaves the map and
// its context is cancelled, so a point no live request holds stops (or
// never starts) and is not stored.
//
// Each holder gets its point's fate as one bench.Outcome: the flight's
// status (shutdown when Shutdown stopped it), Coalesced when the holder
// joined the flight, cancelled when its own request ended first.
// pointUpdate makes it a stream record, splicing the result, its
// bench.ResultData as JSON (a hit's stored bytes), in as the last field
// (DESIGN.md §14.3); handleRun tallies the records for /v1/stats.
package served
