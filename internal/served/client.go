package served

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"straight/internal/bench"
)

// Client talks to a straightd daemon. It implements bench.Remote, so
// installing one via bench.SetRemote redirects every RunPoints batch to
// the daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8372".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Streaming jobs have no
	// deadline: a sweep legitimately runs for minutes.
	HTTPClient *http.Client

	// OnUpdate, when set, observes every point update as it streams in
	// (progress reporting).
	OnUpdate func(PointUpdate)
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

// Run submits points as one job and assembles the streamed updates back
// into input-order results (the bench.Remote contract). Points the
// daemon reports as failed surface as one error naming the first
// failure; a stream that ends before every point reported is an error.
func (c *Client) Run(points []bench.SweepPoint) ([]bench.PointResult, error) {
	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Post(c.url("/v1/run"), "application/json", bytes.NewReader(body))
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
