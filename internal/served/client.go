package served

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"straight/internal/bench"
	"straight/internal/uarch"
)

// Client talks to a straightd daemon. It implements bench.Remote, so
// setting one as a session's Remote redirects every Run batch to the
// daemon, and interrupting the session ends the batch's request. A
// Client must not be copied after first use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8372".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Streaming jobs have no
	// deadline: a sweep legitimately runs for minutes.
	HTTPClient *http.Client

	// OnUpdate, when set, observes every point update as it streams in
	// (progress reporting).
	OnUpdate func(PointUpdate)

	mu          sync.Mutex // guards the put-error count
	putErrors   int64
	firstPutErr error
}

// PutErrors reports how many delivered results the daemon could not
// store, over every job this client ran, and the first of those errors
// (the put_error of the records).
func (c *Client) PutErrors() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putErrors, c.firstPutErr
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// Healthy probes GET /v1/healthz.
func (c *Client) Healthy() error {
	resp, err := c.httpClient().Get(c.url("/v1/healthz"))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("straightd health: %s", resp.Status)
	}
	return nil
}

// Stats fetches the daemon's GET /v1/stats snapshot.
func (c *Client) Stats() (ServerStats, error) {
	var st ServerStats
	resp, err := c.httpClient().Get(c.url("/v1/stats"))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("straightd stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Run is RunContext without a context: the job runs until it ends.
func (c *Client) Run(points []bench.SweepPoint) ([]bench.PointResult, error) {
	return c.RunContext(context.Background(), points)
}

// RunContext submits points as one job and assembles the streamed
// updates back into input-order results (the bench.Remote contract).
// Points the daemon reports as failed surface as one error naming the
// first failure; a stream that ends before every point reported is an
// error. A delivered point the daemon could not store counts in
// PutErrors. Cancelling ctx ends the request, so the daemon stops every
// point no other request holds, and fails the job with
// uarch.ErrInterrupted.
func (c *Client) RunContext(ctx context.Context, points []bench.SweepPoint) (_ []bench.PointResult, err error) {
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("straightd: %w", uarch.ErrInterrupted)
		}
	}()
	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", c.url("/v1/run"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("straightd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("straightd: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	results := make([]bench.PointResult, len(points))
	got := make([]bool, len(points))
	var firstErr error
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20) // records are ~1 KB; grows on demand
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var u PointUpdate
		if err := json.Unmarshal(line, &u); err != nil {
			return nil, fmt.Errorf("straightd: bad stream record: %w", err)
		}
		if u.Done {
			sawDone = true
			break
		}
		if c.OnUpdate != nil {
			c.OnUpdate(u)
		}
		if u.Index < 0 || u.Index >= len(points) {
			return nil, fmt.Errorf("straightd: update for unknown point index %d", u.Index)
		}
		if u.Status == "error" {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %s", points[u.Index].Name(), u.Error)
			}
			continue
		}
		if u.Result == nil {
			return nil, fmt.Errorf("straightd: point %s reported done without a result", points[u.Index].Name())
		}
		if u.PutError != "" {
			c.mu.Lock()
			if c.putErrors++; c.firstPutErr == nil {
				c.firstPutErr = errors.New(u.PutError)
			}
			c.mu.Unlock()
		}
		results[u.Index] = u.Result.Result(points[u.Index], u.Cached)
		got[u.Index] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("straightd: stream: %w", err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !sawDone {
		return nil, fmt.Errorf("straightd: stream ended early (daemon died?)")
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("straightd: no result for point %s", points[i].Name())
		}
	}
	return results, nil
}
