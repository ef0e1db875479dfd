package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
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

// TestShardedRichQueryAffinity: path, count, and from land on the
// shard owner with correct pass-through answers and epoch headers.
func TestShardedRichQueryAffinity(t *testing.T) {
	fakes, _, f := testFleet(t, 3, Sharded, nil, nil)
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

	// Every rich query landed on its source's shard owner.
	for i, fr := range fakes {
		for _, s := range fr.servedSources() {
			if int(s%3) != i {
				t.Errorf("replica %d answered source %d (shard %d)", i, s, s%3)
			}
		}
	}
}

// TestShardedJoinSplitMerge: a join through the router must reproduce
// the single-replica answer exactly — same pair set in (s, t) order,
// summed count/scanned, uniform epoch — with each replica scanning
// only its own sources.
func TestShardedJoinSplitMerge(t *testing.T) {
	fakes, _, f := testFleet(t, 3, Sharded, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	sources := []int64{5, 0, 7, 2, 5, 9, 0, 14} // duplicates on purpose
	targets := []int64{3, 3, 8, 1, 42, 17}
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(router.URL+"/reach/join", "application/x-ndjson", strings.NewReader(string(body)))
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
	if !slices.Equal(flatten(pairs), flatten(wantPairs)) {
		t.Errorf("join pairs = %v, want %v", pairs, wantPairs)
	}
	if count != len(wantPairs) || scanned != wantScanned {
		t.Errorf("join summary count=%d scanned=%d, want %d/%d", count, scanned, len(wantPairs), wantScanned)
	}
	if !slices.IsSortedFunc(pairs, func(a, b [2]int64) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	}) {
		t.Errorf("join pairs not sorted by (s, t): %v", pairs)
	}

	// Source partition: each replica joined only its own sources, and
	// every unique source was scanned exactly once fleet-wide.
	seen := map[int64]int{}
	for i, fr := range fakes {
		for _, s := range fr.servedSources() {
			if int(s%3) != i {
				t.Errorf("replica %d joined source %d (shard %d)", i, s, s%3)
			}
			seen[s]++
		}
	}
	for _, s := range dedupSorted(sources) {
		if seen[s] != 1 {
			t.Errorf("source %d scanned %d times, want 1", s, seen[s])
		}
	}
}

func flatten(pairs [][2]int64) []int64 {
	out := make([]int64, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// TestJoinErrorPaths: a deterministic replica 400 relays verbatim; a
// truncated sub-stream (no done line) fails closed with 502 instead of
// a silent partial merge, and so does a sub-batch answered with fewer
// results than it asked.
func TestJoinErrorPaths(t *testing.T) {
	truncate := false
	_, _, f := testFleet(t, 3, Sharded, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
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

	// Truncated sub-stream → 502, not a partial result.
	truncate = true
	body, _ = json.Marshal(map[string]any{"sources": []int64{0, 1, 2}, "targets": []int64{3, 9}})
	resp, err = http.Post(router.URL+"/reach/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("truncated join status %d, want 502", resp.StatusCode)
	}

	// A short sub-batch → 502.
	resp, err = http.Post(router.URL+"/reach/batch", "application/json", strings.NewReader(`{"pairs":[[0,3],[1,3],[4,9]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("short sub-batch status %d, want 502", resp.StatusCode)
	}
}

// TestReplicatedJoinPassthrough: in Replicated mode the join forwards
// whole and the NDJSON stream relays untouched.
func TestReplicatedJoinPassthrough(t *testing.T) {
	fakes, _, f := testFleet(t, 2, Replicated, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 2 })
	router := httptest.NewServer(f)
	defer router.Close()

	sources, targets := []int64{4, 2, 2}, []int64{0, 1, 2, 3}
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(router.URL+"/reach/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	pairs, count, scanned := decodeJoinStream(t, bufio.NewScanner(resp.Body))
	wantPairs, wantScanned := joinOracle(sources, targets)
	if !slices.Equal(flatten(pairs), flatten(wantPairs)) || count != len(wantPairs) || scanned != wantScanned {
		t.Errorf("join = %v (count %d, scanned %d), want %v (%d, %d)",
			pairs, count, scanned, wantPairs, len(wantPairs), wantScanned)
	}
	// Exactly one replica did the whole join.
	calls := 0
	for _, fr := range fakes {
		fr.mu.Lock()
		calls += fr.joinCalls
		fr.mu.Unlock()
	}
	if calls != 1 {
		t.Errorf("join hit %d replicas in Replicated mode, want 1", calls)
	}
}
