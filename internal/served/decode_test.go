package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// referenceJob decodes body as handleRun did before decodeJob: one
// json.Decoder pass into a JobRequest, with the same status mapping.
func referenceJob(r io.Reader) ([]bench.SweepPoint, int, error) {
	var req JobRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return req.Points, 0, nil
}

// checkDecodeJob holds decodeJob to the reference decoder on body, read
// whole and through a MaxBytesReader that cuts it in half: the same
// points (L3 compared by value), or a rejection with the same status.
func checkDecodeJob(t *testing.T, body []byte) {
	t.Helper()
	for _, limit := range []int64{-1, int64(len(body) / 2)} {
		reader := func() io.Reader {
			if limit < 0 {
				return bytes.NewReader(body)
			}
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
		}
		want, wantCode, wantErr := referenceJob(reader())
		got, gotCode, gotErr := decodeJob(reader())
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || gotCode != wantCode {
				t.Fatalf("limit %d: decodeJob = %d %v, reference = %d %v", limit, gotCode, gotErr, wantCode, wantErr)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d points, reference %d", limit, len(got), len(want))
		}
		l3s := make(map[*uarch.CacheConfig]bool)
		for i := range got {
			if !reflect.DeepEqual(got[i].SweepPoint, want[i]) {
				t.Fatalf("limit %d: point %d = %+v, reference %+v", limit, i, got[i].SweepPoint, want[i])
			}
			canon, err := json.Marshal(want[i].Config)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i].canon, canon) {
				t.Fatalf("limit %d: point %d config JSON %s, want %s", limit, i, got[i].canon, canon)
			}
			if l3 := got[i].SweepPoint.Config.L3; l3 != nil {
				if l3s[l3] {
					t.Fatalf("limit %d: point %d shares its L3 with another point", limit, i)
				}
				l3s[l3] = true
			}
		}
	}
}

// decodeJobSeeds are bodies that exercise every way a decoded job can
// differ from a plain decode: repeated, case-variant, null and missing
// configs, emulator points, unknown fields, trailing bytes, repeated
// point lists, and type errors inside and outside Config.
func decodeJobSeeds(tb testing.TB) []string {
	full, err := json.Marshal(JobRequest{Points: append(testPoints(), warmJobPoints(tb)[:6]...)})
	if err != nil {
		tb.Fatal(err)
	}
	p := `"Section":"s","Label":"l","Workload":"micro-fib","Core":"ss","Iters":1`
	return []string{
		string(full),
		string(full) + ` {"points":[]} trailing`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":4,"L3":{"SizeBytes":1}},"Config":{"ROBSize":8,"L3":{"Ways":2}}}]}`,
		`{"points":[{` + p + `,"config":{"FetchWidth":4},"CONFIG":{"IssueWidth":2},"Config":{"fetchwidth":8}}]}`,
		`{"points":[{` + p + `,"Config":{"L3":{"Ways":2}},"Config":{"L3":null}},{` + p + `,"Config":{"L3":{"Ways":2}}}]}`,
		`{"points":[{` + p + `,"Config":null},{` + p + `},{` + p + `,"Config":{}}]}`,
		`{"points":[{"Workload":"micro-fib","Core":"emu-riscv","Iters":2},{"Workload":"micro-fib","Core":"emu-straight","Iters":2,"Mode":"RE+","MaxDist":31}]}`,
		`{"bogus":1,"points":[{` + p + `,"Extra":[1,{"a":2}],"Config":{"Unknown":true,"FetchWidth":2}}],"more":null}`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":"four"}}]}`,
		`{"points":[{` + p + `,"Config":{"L3":{"Ways":"two"}}}]}`,
		`{"points":[{` + p + `,"Config":5}]}`,
		`{"points":[{` + p + `,"Config":[1,2]}]}`,
		`{"points":[{"Iters":"one","Config":{"FetchWidth":1}}]}`,
		`{"points":[{"Iters":"one","Config":{"FetchWidth":"x"}}]}`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":1e400}}]}`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":1},"Config":{"FetchWidth":1},"Config":{"NumALU":3}}],"points":[{"Config":{"NumMul":2}}],"points":[{"Iters":5},{"Config":{"NumDiv":1}}]}`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":2}},{` + p + `,"Config":{"FetchWidth":3}},{` + p + `,"Config":{"FetchWidth":4}}],"points":[{"Iters":2}],"points":[{"Iters":3},{"Iters":4}]}`,
		`{"points":[null,{` + p + `,"Config":{"MemLatency":90}},null]}`,
		`{"points":null}`,
		`{"points":{}}`,
		`{"points":[{` + p + `,"Config":{"FetchWidth":1}`,
		`null`,
		`[]`,
		``,
		`{"points":[]}`,
	}
}

// FuzzDecodeJob holds the per-job decoder to a plain json.Decoder
// decode of the same body (see checkDecodeJob).
func FuzzDecodeJob(f *testing.F) {
	for _, s := range decodeJobSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeJob(t, body)
	})
}

// TestJobKeysMatchPointKey sends a job of the benchmark mix's five
// machines, plus one point whose configuration is re-encoded with a
// different key order and whitespace, to a server that records the key
// of every point it executes: each must equal bench.PointKey of the
// point as sent.
func TestJobKeysMatchPointKey(t *testing.T) {
	points := warmJobPoints(t)
	reordered := points[0]
	reordered.Label += "/reordered"
	reordered.Iters = 3
	points = append(points, reordered)

	var parts []string
	for _, p := range points[:len(points)-1] {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, string(b))
	}
	// A map re-encodes the point with sorted keys, at every level.
	var generic map[string]any
	b, _ := json.Marshal(reordered)
	if err := json.Unmarshal(b, &generic); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(generic, "", "\t ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Index(b, []byte(`"ALULatency"`)) > bytes.Index(b, []byte(`"FetchWidth"`)) {
		t.Fatal("re-encoded config keeps the struct's key order")
	}
	parts = append(parts, string(b))
	body := `{"points":[` + strings.Join(parts, ",\n") + "]}"

	srv := NewServer(Config{Workers: 2})
	var mu sync.Mutex
	keys := make(map[string]resultstore.Key)
	srv.exec = func(_ context.Context, p bench.SweepPoint, key resultstore.Key) bench.Outcome {
		mu.Lock()
		keys[p.Label] = key
		mu.Unlock()
		return bench.Outcome{Wire: []byte(`{"retired":1,"wall_ns":0}`)}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}

	if len(keys) != len(points) {
		t.Fatalf("executed %d points, want %d", len(keys), len(points))
	}
	for _, p := range points {
		want, err := bench.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if keys[p.Label] != want {
			t.Errorf("%s: daemon key %s, PointKey %s", p.Name(), keys[p.Label], want)
		}
	}
}

// TestLargeRecordRoundTrips streams a record far larger than the
// client's initial line buffer.
func TestLargeRecordRoundTrips(t *testing.T) {
	big := strings.Repeat("0123456789\n", 100<<10/11)
	_, client := newTestDaemon(t, Config{Workers: 1, Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
		return bench.PointResult{Point: p, Retired: 1, Output: big}, nil
	}})
	p := bench.SweepPoint{Section: "served-test", Label: "big", Workload: workloads.MicroFib, Core: bench.CoreEmuRISCV, Iters: 1}
	res, err := client.Run([]bench.SweepPoint{p})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Output != big {
		t.Fatalf("output of %d bytes came back as %d bytes", len(big), len(res[0].Output))
	}
}
