package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/httpapi"
)

// dedupSorted returns vs sorted with duplicates removed — the list
// normalization the real join endpoint performs.
func dedupSorted(vs []int64) []int64 {
	out := append([]int64(nil), vs...)
	slices.Sort(out)
	return slices.Compact(out)
}

// joinOracle computes the pair set a single replica would stream for
// (sources, targets) under fakeAnswer.
func joinOracle(sources, targets []int64) (pairs [][2]int64, scanned int) {
	srcs, tgts := dedupSorted(sources), dedupSorted(targets)
	for _, s := range srcs {
		for _, t := range tgts {
			if fakeAnswer(s, t) {
				pairs = append(pairs, [2]int64{s, t})
			}
		}
	}
	return pairs, len(srcs) * len(tgts)
}

// decodeJoinStream parses an NDJSON join response into its pairs and
// summary, failing the test on malformed lines or a missing summary.
func decodeJoinStream(t *testing.T, body *bufio.Scanner) (pairs [][2]int64, count, scanned int) {
	t.Helper()
	done := false
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		if done {
			t.Fatalf("line after the done summary: %s", line)
		}
		var rec struct {
			S, T    *int64
			Done    bool
			Count   int
			Scanned int
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad join line %q: %v", line, err)
		}
		if rec.Done {
			done, count, scanned = true, rec.Count, rec.Scanned
			continue
		}
		if rec.S == nil || rec.T == nil {
			t.Fatalf("join line with neither pair nor summary: %s", line)
		}
		pairs = append(pairs, [2]int64{*rec.S, *rec.T})
	}
	if err := body.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("join stream ended without a done summary")
	}
	return pairs, count, scanned
}

// TestRichQueriesPassThrough: path, count, and from come back through
// the router with the replica's answers and epoch headers.
func TestRichQueriesPassThrough(t *testing.T) {
	fakes, _, f := testFleet(t, 3, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	for s := int64(0); s < 6; s++ {
		// Witness path: reachable answers carry a path, epoch passes
		// through.
		resp, err := http.Get(fmt.Sprintf("%s/reach/path?s=%d&t=9", router.URL, s))
		if err != nil {
			t.Fatal(err)
		}
		var pr struct {
			Reachable bool    `json:"reachable"`
			Path      []int64 `json:"path"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Reachlab-Epoch") != "1" {
			t.Fatalf("path(%d,9): status %d epoch %q", s, resp.StatusCode, resp.Header.Get("X-Reachlab-Epoch"))
		}
		if want := fakeAnswer(s, 9); pr.Reachable != want || (want && len(pr.Path) == 0) {
			t.Errorf("path(%d,9) = %+v, want reachable=%v with a path", s, pr, want)
		}

		// Set-size count.
		resp, err = http.Get(fmt.Sprintf("%s/reach/count?s=%d", router.URL, s))
		if err != nil {
			t.Fatal(err)
		}
		var cr struct {
			Count int `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := fakes[0].fakeCount(s); cr.Count != want {
			t.Errorf("count(%d) = %d, want %d", s, cr.Count, want)
		}

		// One-source sweep.
		body, _ := json.Marshal(map[string]any{"s": s, "targets": []int64{1, 9, 42}})
		resp, err = http.Post(router.URL+"/reach/from", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var fr struct {
			Results []bool `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := []bool{fakeAnswer(s, 1), fakeAnswer(s, 9), fakeAnswer(s, 42)}
		if !slices.Equal(fr.Results, want) {
			t.Errorf("from(%d) = %v, want %v", s, fr.Results, want)
		}
	}
}

// TestReplicatedJoinPassthrough: with all three replicas up, a join
// forwards whole and its NDJSON stream relays untouched.
func TestReplicatedJoinPassthrough(t *testing.T) { joinPassesThrough(t, false) }

// TestJoinPassesThroughReplicaDown: with one replica dead and marked
// down, the join still goes whole to exactly one of the live two.
func TestJoinPassesThroughReplicaDown(t *testing.T) { joinPassesThrough(t, true) }

// joinPassesThrough sends one join through a router over three
// replicas, the last killed first if killOne: the answer must be the
// single-replica answer — pair set in (s, t) order, count and scanned,
// epoch — from exactly one live replica.
func joinPassesThrough(t *testing.T, killOne bool) {
	fakes, servers, f := testFleet(t, 3, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	if killOne {
		servers[2].Close()
		dead := strings.TrimPrefix(servers[2].URL, "http://")
		waitFor(t, "killed replica down", func() bool { return stateOf(f, dead) == "down" })
	}
	router := httptest.NewServer(f)
	defer router.Close()

	sources := []int64{5, 0, 7, 2, 5, 9, 0, 14} // with duplicates
	targets := []int64{3, 3, 8, 1, 42, 17}
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(router.URL+"/reach/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("join Content-Type %q", ct)
	}
	if e := resp.Header.Get("X-Reachlab-Epoch"); e != "1" {
		t.Errorf("join epoch header %q, want \"1\"", e)
	}
	pairs, count, scanned := decodeJoinStream(t, bufio.NewScanner(resp.Body))
	wantPairs, wantScanned := joinOracle(sources, targets)
	if !slices.Equal(flatten(pairs), flatten(wantPairs)) || count != len(wantPairs) || scanned != wantScanned {
		t.Errorf("join = %v (count %d, scanned %d), want %v (%d, %d)",
			pairs, count, scanned, wantPairs, len(wantPairs), wantScanned)
	}
	calls := 0
	for _, fr := range fakes {
		fr.mu.Lock()
		calls += fr.joinCalls
		fr.mu.Unlock()
	}
	if calls != 1 {
		t.Errorf("join hit %d replicas, want 1", calls)
	}
}

func flatten(pairs [][2]int64) []int64 {
	out := make([]int64, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// TestJoinErrorPaths: a deterministic replica 400 relays verbatim, and
// so does a join stream that ends before its done line — the missing
// line is what tells the client it is short — and a batch answered with
// fewer results than it asked, whose count is what tells the client.
func TestJoinErrorPaths(t *testing.T) {
	truncate := false
	_, _, f := testFleet(t, 3, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if truncate && r.URL.Path == "/reach/join" {
				// A stream that dies before its summary line.
				w.Header().Set("Content-Type", "application/x-ndjson")
				fmt.Fprintln(w, `{"s":1,"t":3}`)
				return
			}
			if truncate && r.URL.Path == "/reach/batch" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintln(w, `{"count":0,"results":[]}`)
				return
			}
			h.ServeHTTP(w, r)
		})
	}, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	// Out-of-range vertex → the replica's 400 comes straight back.
	body, _ := json.Marshal(map[string]any{"sources": []int64{1, -4}, "targets": []int64{3}})
	resp, err := http.Post(router.URL+"/reach/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-vertex join status %d, want 400", resp.StatusCode)
	}

	// Truncated stream → relayed as it came, and the reader refuses it.
	truncate = true
	body, _ = json.Marshal(map[string]any{"sources": []int64{0, 1, 2}, "targets": []int64{3, 9}})
	resp, err = http.Post(router.URL+"/reach/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != `{"s":1,"t":3}`+"\n" {
		t.Fatalf("truncated join: %d %q, want the replica's 200 as sent", resp.StatusCode, raw)
	}
	if _, err := httpapi.ReadJoin(bytes.NewReader(raw), func(s, t int64) error { return nil }); err == nil {
		t.Error("ReadJoin accepted a join stream without its done line")
	}

	// A short batch → relayed as it came.
	resp, err = http.Post(router.URL+"/reach/batch", "application/json", strings.NewReader(`{"pairs":[[0,3],[1,3],[4,9]]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != `{"count":0,"results":[]}`+"\n" {
		t.Fatalf("short batch: %d %q, want the replica's 200 as sent", resp.StatusCode, raw)
	}
}
