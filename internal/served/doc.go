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
// A job is decoded once. Each point's "Config" is captured raw, and
// each distinct configuration of the job is decoded and marshalled
// once: its points share the decoded value (each with its own L3) and
// the JSON that bench.PointKeyWith hashes, so the workers derive every
// content address without marshalling a configuration again. The
// points are exactly those a plain json.Decoder decode of JobRequest
// yields (FuzzDecodeJob).
//
// Coalescing extends the build-cache singleflight idea (bench.buildOnce)
// across process boundaries: points are identified by their
// content-addressed result key (bench.PointKey), the first request to
// ask for a key simulates it, and every concurrent request for the same
// key waits on the same flight and shares the one result. Flights are
// pooled and reused across jobs (resetcomplete-checked, DESIGN.md §12).
// A flight whose owning request ends while it queues for a slot passes
// to the waiters still holding it; it fails only when no one does.
//
// A flight's result is the point's bench.ResultData as JSON, which is
// also the stored value: a store hit streams the stored bytes unchanged
// (checked once per store entry, not per hit), spliced into each
// record's encoded envelope as its last field, so every record is byte
// for byte what json.Encoder writes for the PointUpdate (DESIGN.md
// §14.3).
package served
