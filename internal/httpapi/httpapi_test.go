package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestGoldenBytes pins every response type to its exact wire bytes. The
// frozen benchmark harness and the smoke scripts scan these by hand
// ("results":[…], "seq", "epoch", "done":true), so a renamed or
// reordered field must break here, not there.
func TestGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"reach", ReachResponse{S: 3, T: 17, Reachable: true}, `{"s":3,"t":17,"reachable":true}`},
		{"batch", BatchResponse{Count: 2, Results: []bool{true, false}}, `{"count":2,"results":[true,false]}`},
		{"batch-empty", BatchResponse{Count: 0, Results: []bool{}}, `{"count":0,"results":[]}`},
		{"path", PathResponse{S: 3, T: 17, Reachable: true, Path: []graph.VertexID{3, 8, 17}}, `{"s":3,"t":17,"reachable":true,"path":[3,8,17]}`},
		{"path-unreachable", PathResponse{S: 3, T: 17}, `{"s":3,"t":17,"reachable":false}`},
		{"count", CountResponse{S: 3, Count: 941}, `{"s":3,"count":941}`},
		{"from", FromResponse{S: 3, Count: 2, Results: []bool{true, false, true}}, `{"s":3,"count":2,"results":[true,false,true]}`},
		{"reload", ReloadResponse{Epoch: 2, Vertices: 20000}, `{"epoch":2,"vertices":20000}`},
		{"edge", EdgeResponse{Op: "insert", U: 3, V: 17, Seq: 42, Epoch: 7}, `{"op":"insert","u":3,"v":17,"seq":42,"epoch":7}`},
		{"fanout-reload", FanoutResponse{Replicas: []ReplicaOutcome{{Addr: "a:1", Epoch: 2, Vertices: 9}, {Addr: "b:2", Error: "down"}}},
			`{"replicas":[{"addr":"a:1","epoch":2,"vertices":9},{"addr":"b:2","error":"down"}]}`},
		{"fanout-edges", FanoutResponse{Replicas: []ReplicaOutcome{{Addr: "a:1", Seq: 42, Epoch: 7}}},
			`{"replicas":[{"addr":"a:1","seq":42,"epoch":7}]}`},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, c.v)
		if got := rec.Body.String(); got != c.want+"\n" {
			t.Errorf("%s response:\n got %q\nwant %q", c.name, got, c.want+"\n")
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type %q", c.name, ct)
		}
	}

	// Requests, as the clients marshal them.
	for _, c := range []struct {
		v    any
		want string
	}{
		{BatchRequest{Pairs: [][2]int64{{3, 17}, {5, 9}}}, `{"pairs":[[3,17],[5,9]]}`},
		{FromRequest{S: 3, Targets: []int64{17, 9}}, `{"s":3,"targets":[17,9]}`},
		{JoinRequest{Sources: []int64{3}, Targets: []int64{17, 9}}, `{"sources":[3],"targets":[17,9]}`},
		{ReloadRequest{Ref: "other.idx"}, `{"ref":"other.idx"}`},
		{EdgeRequest{Op: "delete", U: 3, V: 17}, `{"op":"delete","u":3,"v":17}`},
	} {
		if got, err := json.Marshal(c.v); err != nil || string(got) != c.want {
			t.Errorf("%T request: %q (%v), want %q", c.v, got, err, c.want)
		}
	}

	// The join stream's two line shapes.
	var buf bytes.Buffer
	jw := NewJoinWriter(&buf)
	if err := jw.Pair(3, 17); err != nil {
		t.Fatal(err)
	}
	if err := jw.Done(4); err != nil {
		t.Fatal(err)
	}
	if want := "{\"s\":3,\"t\":17}\n{\"done\":true,\"count\":1,\"scanned\":4}\n"; buf.String() != want {
		t.Errorf("join stream:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestEndpointTable pins the strings other programs depend on: mux
// patterns, metric labels, header names and the body-limit formula.
func TestEndpointTable(t *testing.T) {
	for _, c := range []struct {
		e              Endpoint
		pattern, label string
		limit          int64
	}{
		{Reach, "GET /reach", "reach", 1 << 16},
		{Batch, "POST /reach/batch", "batch", 8192*32 + 4096},
		{Path, "GET /reach/path", "path", 1 << 16},
		{Count, "GET /reach/count", "count", 1 << 16},
		{From, "POST /reach/from", "from", 8192*32 + 4096},
		{Join, "POST /reach/join", "join", 2 * (8192*32 + 4096)},
		{Reload, "POST /admin/reload", "reload", 1 << 16},
		{Edges, "POST /edges", "edges", 1 << 16},
		{Stats, "GET /stats", "stats", 1 << 16},
		{Healthz, "GET /healthz", "", 1 << 16},
		{Drain, "POST /admin/drain", "drain", 1 << 16},
		{Readmit, "POST /admin/readmit", "readmit", 1 << 16},
	} {
		if c.e.Pattern() != c.pattern || c.e.Label != c.label || c.e.BodyLimit() != c.limit {
			t.Errorf("%s: pattern %q label %q limit %d, want %q %q %d",
				c.e.Route, c.e.Pattern(), c.e.Label, c.e.BodyLimit(), c.pattern, c.label, c.limit)
		}
	}
	if EpochHeader != "X-Reachlab-Epoch" || VerticesHeader != "X-Reachlab-Vertices" {
		t.Errorf("header names %q, %q", EpochHeader, VerticesHeader)
	}
	if MaxBatch != 8192 || MaxJoin != 1<<20 {
		t.Errorf("caps %d, %d", MaxBatch, MaxJoin)
	}
}

// TestVerdict: only an incomplete exchange or 500/502/503/504 is the
// replica's failure; every other status is its verdict.
func TestVerdict(t *testing.T) {
	for status := 100; status < 600; status++ {
		want := status != 500 && status != 502 && status != 503 && status != 504
		if Verdict(status) != want {
			t.Errorf("Verdict(%d) = %v, want %v", status, !want, want)
		}
	}
}

// mounted serves e on a fresh Mux with serve and returns the registry
// its counters land in.
func mounted(e Endpoint, serve func(*Handle, http.ResponseWriter, *http.Request)) (*Mux, *obs.Registry) {
	reg := obs.New()
	m := NewMux(reg, "test")
	m.Mount(e, serve)
	return m, reg
}

// TestDecodeRefusals is the one 413/400 mapping: malformed JSON is 400,
// a body past the byte bound or a list past the entry cap is 413, the
// reload body alone may be empty, and each refusal counts one error.
func TestDecodeRefusals(t *testing.T) {
	pad := func(e Endpoint) string { return strings.Repeat(" ", int(e.BodyLimit())+64) }
	// list is n entries of JSON, one cap's worth at n = MaxBatch.
	list := func(n int, entry string) string {
		return strings.TrimSuffix(strings.Repeat(entry+",", n), ",")
	}
	for _, c := range []struct {
		e    Endpoint
		v    func() any
		body string
		want int
		msg  string
	}{
		{Batch, func() any { return new(BatchRequest) }, `{"pairs":[[0,1]]}`, 200, ""},
		{Batch, func() any { return new(BatchRequest) }, `{"pairs":[[0,1],[2`, 400, "bad batch request: "},
		{Batch, func() any { return new(BatchRequest) }, ``, 400, "bad batch request: EOF"},
		{Batch, func() any { return new(BatchRequest) }, `{"pairs":[[0,1]]` + pad(Batch) + `}`, 413, "request body over 266240 bytes"},
		{Batch, func() any { return new(BatchRequest) }, `{"pairs":[` + list(MaxBatch, "[0,1]") + `]}`, 200, ""},
		{Batch, func() any { return new(BatchRequest) }, `{"pairs":[` + list(MaxBatch+1, "[0,1]") + `]}`, 413, "batch of 8193 pairs exceeds limit 8192"},
		{From, func() any { return new(FromRequest) }, `{"s":0,"targets":[` + list(MaxBatch, "1") + `]}`, 200, ""},
		{From, func() any { return new(FromRequest) }, `{"s":0,"targets":[` + list(MaxBatch+1, "1") + `]}`, 413, "8193 targets exceeds limit 8192"},
		{From, func() any { return new(FromRequest) }, `nope`, 400, "bad from request: "},
		{Join, func() any { return new(JoinRequest) }, `{"sources":[` + list(MaxBatch, "0") + `],"targets":[` + list(MaxBatch, "1") + `]}`, 200, ""},
		{Join, func() any { return new(JoinRequest) }, `{"sources":[0],"targets":[` + list(MaxBatch+1, "1") + `]}`, 413, "join lists of 1×8193 exceed per-list limit 8192"},
		{Join, func() any { return new(JoinRequest) }, `{"sources":[` + list(MaxBatch+1, "0") + `],"targets":[1]}`, 413, "join lists of 8193×1 exceed per-list limit 8192"},
		{Join, func() any { return new(JoinRequest) }, `{"sources":[0],"targets":[1]` + pad(Join) + `}`, 413, "request body over 532480 bytes"},
		{Edges, func() any { return new(EdgeRequest) }, `{"op":`, 400, "bad edge request: "},
		{Edges, func() any { return new(EdgeRequest) }, `{"op":"insert"` + pad(Edges) + `}`, 413, "request body over 65536 bytes"},
		{Reload, func() any { return new(ReloadRequest) }, ``, 200, ""},
		{Reload, func() any { return new(ReloadRequest) }, `{"ref":"x"` + pad(Reload) + `}`, 413, "request body over 65536 bytes"},
		{Reload, func() any { return new(ReloadRequest) }, `{`, 400, "bad reload request: "},
	} {
		m, reg := mounted(c.e, func(h *Handle, w http.ResponseWriter, r *http.Request) {
			if h.Decode(w, r, c.v()) {
				fmt.Fprint(w, "ok")
			}
		})
		// The raw-body read refuses over-limit bodies exactly as Decode does.
		raw, _ := mounted(c.e, func(h *Handle, w http.ResponseWriter, r *http.Request) {
			if _, ok := h.ReadBody(w, r); ok {
				fmt.Fprint(w, "ok")
			}
		})
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(c.e.Method, c.e.Route, strings.NewReader(c.body)))
		name := fmt.Sprintf("%s %.30q", c.e.Route, c.body)
		if rec.Code != c.want || !strings.HasPrefix(rec.Body.String(), c.msg) {
			t.Errorf("%s: %d %q, want %d %q…", name, rec.Code, rec.Body.String(), c.want, c.msg)
		}
		wantErrs := int64(0)
		if c.want != 200 {
			wantErrs = 1
		}
		if got := reg.CounterValue(`test_http_errors_total{handler="` + c.e.Label + `"}`); got != wantErrs {
			t.Errorf("%s: %d errors counted, want %d", name, got, wantErrs)
		}
		if got := reg.CounterValue(`test_http_requests_total{handler="` + c.e.Label + `"}`); got != 1 {
			t.Errorf("%s: %d requests counted, want 1", name, got)
		}
		if strings.HasPrefix(c.msg, "request body over") {
			rrec := httptest.NewRecorder()
			raw.ServeHTTP(rrec, httptest.NewRequest(c.e.Method, c.e.Route, strings.NewReader(c.body)))
			if rrec.Code != 413 || rrec.Body.String() != rec.Body.String() {
				t.Errorf("%s: ReadBody answered %d %q, Decode %d %q", name, rrec.Code, rrec.Body.String(), rec.Code, rec.Body.String())
			}
		}
	}

	// The mux refuses the wrong method before any handler runs.
	m, _ := mounted(Batch, func(*Handle, http.ResponseWriter, *http.Request) { t.Error("handler ran on GET") })
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, Batch.Route, nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", Batch.Route, rec.Code)
	}
}

// TestRelay: an upstream verdict passes through with its status,
// content type, epoch header and body; a refusal counts as an error.
func TestRelay(t *testing.T) {
	for _, status := range []int{200, 400, 501} {
		m, reg := mounted(Path, func(h *Handle, w http.ResponseWriter, _ *http.Request) {
			up := &http.Response{StatusCode: status, Header: http.Header{}}
			up.Header.Set("Content-Type", "text/x-test")
			up.Header.Set(EpochHeader, "7")
			up.Header.Set("X-Other", "dropped")
			h.Relay(w, up, []byte("the body"))
		})
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, Path.Route, nil))
		if rec.Code != status || rec.Body.String() != "the body" ||
			rec.Header().Get("Content-Type") != "text/x-test" || rec.Header().Get(EpochHeader) != "7" ||
			rec.Header().Get("X-Other") != "" {
			t.Errorf("relay of %d: got %d %q %v", status, rec.Code, rec.Body.String(), rec.Header())
		}
		wantErrs := int64(0)
		if status >= 400 {
			wantErrs = 1
		}
		if got := reg.CounterValue(`test_http_errors_total{handler="path"}`); got != wantErrs {
			t.Errorf("relay of %d counted %d errors, want %d", status, got, wantErrs)
		}
	}
}

// TestJoinStreamRoundTrip: what the writer emits the reader accepts,
// pair for pair, and the summary comes back whole.
func TestJoinStreamRoundTrip(t *testing.T) {
	want := [][2]int64{{0, 3}, {0, 9}, {2, 1}, {2, 2}, {7, 0}}
	var buf bytes.Buffer
	jw := NewJoinWriter(&buf)
	for _, p := range want {
		if err := jw.Pair(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Done(12); err != nil {
		t.Fatal(err)
	}
	var got [][2]int64
	sum, err := ReadJoin(&buf, func(s, t int64) error {
		got = append(got, [2]int64{s, t})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || sum != (JoinSummary{Done: true, Count: len(want), Scanned: 12}) {
		t.Errorf("read back %v %+v, wrote %v", got, sum, want)
	}

	// An empty join is just its summary line.
	sum, err = ReadJoin(strings.NewReader(`{"done":true,"count":0,"scanned":6}`+"\n"), nil)
	if err != nil || sum.Scanned != 6 {
		t.Errorf("empty join: %+v, %v", sum, err)
	}
}

// TestJoinStreamRejected: one rejected stream per protocol rule, plus
// the consumer's own error stopping the read.
// rejectedJoinStreams breach the join stream's grammar, each with the
// words ReadJoin's error must use.
var rejectedJoinStreams = []struct{ name, stream, want string }{
	{"line after done", `{"s":1,"t":2}` + "\n" + `{"done":true,"count":1,"scanned":1}` + "\n" + `{"s":3,"t":4}` + "\n", "line after the done line"},
	{"no done", `{"s":1,"t":2}` + "\n" + `{"s":1,"t":3}` + "\n", "ended without a done line (2 pairs in)"},
	{"empty", ``, "ended without a done line (0 pairs in)"},
	{"count mismatch", `{"s":1,"t":2}` + "\n" + `{"done":true,"count":2,"scanned":1}` + "\n", "done line says 2 pairs, stream carried 1"},
	{"descending pair", `{"s":2,"t":2}` + "\n" + `{"s":1,"t":9}` + "\n" + `{"done":true,"count":2,"scanned":4}` + "\n", "pair (1,9) not in ascending order after (2,2)"},
	{"repeated pair", `{"s":2,"t":2}` + "\n" + `{"s":2,"t":2}` + "\n" + `{"done":true,"count":2,"scanned":4}` + "\n", "pair (2,2) not in ascending order after (2,2)"},
	{"neither pair nor done", `{"s":1}` + "\n" + `{"done":true,"count":0,"scanned":1}` + "\n", "neither a pair nor done"},
	{"not json", `{"s":1,"t":` + "\n", "bad line"},
}

func TestJoinStreamRejected(t *testing.T) {
	keep := func(int64, int64) error { return nil }
	for _, c := range rejectedJoinStreams {
		if _, err := ReadJoin(strings.NewReader(c.stream), keep); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	stop := fmt.Errorf("consumer says no")
	if _, err := ReadJoin(strings.NewReader(`{"s":1,"t":2}`+"\n"), func(int64, int64) error { return stop }); err != stop {
		t.Errorf("consumer error came back as %v", err)
	}
}

// FuzzReadJoin holds ReadJoin, which reads every replica's join stream
// at the router, to its grammar on arbitrary input: it never panics;
// what it accepts is strictly ascending and as long as its summary
// says; and JoinWriter writes it again as a stream that reads back to
// the same pairs and summary.
func FuzzReadJoin(f *testing.F) {
	for _, c := range rejectedJoinStreams {
		f.Add([]byte(c.stream))
	}
	f.Add([]byte(`{"s":0,"t":0}` + "\n" + `{"s":0,"t":3}` + "\n" + `{"done":true,"count":2,"scanned":2}` + "\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		read := func(r io.Reader) ([][2]int64, JoinSummary, error) {
			var pairs [][2]int64
			sum, err := ReadJoin(r, func(s, t int64) error {
				pairs = append(pairs, [2]int64{s, t})
				return nil
			})
			return pairs, sum, err
		}
		pairs, sum, err := read(bytes.NewReader(stream))
		if err != nil {
			return
		}
		for i := 1; i < len(pairs); i++ {
			if p, q := pairs[i-1], pairs[i]; q[0] < p[0] || (q[0] == p[0] && q[1] <= p[1]) {
				t.Fatalf("accepted pair %v after %v", q, p)
			}
		}
		if !sum.Done || sum.Count != len(pairs) {
			t.Fatalf("accepted %d pairs under the summary %+v", len(pairs), sum)
		}
		var again bytes.Buffer
		jw := NewJoinWriter(&again)
		for _, p := range pairs {
			if err := jw.Pair(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := jw.Done(sum.Scanned); err != nil {
			t.Fatal(err)
		}
		pairs2, sum2, err := read(&again)
		if err != nil || sum2 != sum || !slices.Equal(pairs2, pairs) {
			t.Fatalf("written again, the stream reads back as %v %+v (%v), want %v %+v", pairs2, sum2, err, pairs, sum)
		}
	})
}
