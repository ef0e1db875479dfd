package reachlab

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

// contractVertices is the fixture's ID space: large enough that a join
// of in-range vertices can scan more than MaxJoin pairs, whether it
// names every third vertex as a source or a run of them.
const contractVertices = 1800

// A contractRow is one request of the table, what a lone replica must
// answer it with in each replica configuration (static, bare, updating
// — see TestRouterMatchesReplica), and what a router over three such
// replicas must do to get the same answer.
type contractRow struct {
	name   string
	method string
	path   string
	body   string
	want   [3]int // the replica's status: static, bare, updating
	// forwards is how many upstream requests the router may spend on the
	// row: one for a verdict it relays, none for a request it refuses
	// itself.
	// fanned says in which configurations the row instead goes to all
	// three replicas (in the others the first replica asked refuses it,
	// and that is the one forward).
	forwards int
	fanned   [3]bool
	// rewritten marks rows whose 200 body the router composes itself
	// (the per-replica rows of a fan-out); everywhere else the bytes
	// must equal the replica's.
	rewritten bool
}

// contractTable is the request table over a fixture of n vertices.
func contractTable(n int) []contractRow {
	pad := func(e httpapi.Endpoint) string {
		return strings.Repeat(" ", int(e.BodyLimit())+64)
	}
	// list joins count entries made by entry(i) into a JSON list body.
	list := func(count int, entry func(i int) string) string {
		parts := make([]string, count)
		for i := range parts {
			parts[i] = entry(i)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	vertex := func(step int) func(i int) string {
		return func(i int) string { return strconv.Itoa(i * step % n) }
	}
	// A join whose deduplicated product is over MaxJoin: over every third
	// vertex, and over a run of them.
	thirds := (n + 2) / 3
	thirdsTargets := httpapi.MaxJoin/thirds + 1
	spread := 1025
	spreadTargets := httpapi.MaxJoin/spread + 1
	outOfRangeLast := func(i int) string {
		if i == spreadTargets-1 {
			return strconv.Itoa(n)
		}
		return strconv.Itoa(i)
	}
	pair := func(i int) string { return fmt.Sprintf("[%d,%d]", i%n, (i/n+i+1)%n) }
	const get, post = http.MethodGet, http.MethodPost
	all := func(code int) [3]int { return [3]int{code, code, code} }
	const one, none = 1, 0
	return []contractRow{
		{name: "reach", method: get, path: "/reach?s=3&t=17", want: all(200), forwards: one},
		{name: "reach-same", method: get, path: "/reach?s=5&t=5", want: all(200), forwards: one},
		{name: "reach-malformed", method: get, path: "/reach?s=3&t=notanumber", want: all(400), forwards: one},
		{name: "reach-missing", method: get, path: "/reach?t=3", want: all(400), forwards: one},
		{name: "reach-out-of-range", method: get, path: fmt.Sprintf("/reach?s=3&t=%d", n), want: all(400), forwards: one},
		{name: "reach-wrong-method", method: post, path: "/reach?s=3&t=17", want: all(405), forwards: none},

		{name: "batch", method: post, path: "/reach/batch", body: `{"pairs":[[3,17],[4,9],[3,17],[5,5]]}`, want: all(200), forwards: one},
		{name: "batch-empty", method: post, path: "/reach/batch", body: `{"pairs":[]}`, want: all(200), forwards: one},
		{name: "batch-malformed", method: post, path: "/reach/batch", body: `{"pairs":[[3,17],[4`, want: all(400), forwards: one},
		{name: "batch-out-of-range", method: post, path: "/reach/batch", body: fmt.Sprintf(`{"pairs":[[3,17],[3,%d]]}`, n), want: all(400), forwards: one},
		// Duplicates and many sources: the refusal must name the caller's
		// pair 3, as the replica that sees the whole batch does.
		{name: "batch-out-of-range-reshaped", method: post, path: "/reach/batch", body: fmt.Sprintf(`{"pairs":[[4,9],[3,17],[3,17],[3,%d]]}`, n), want: all(400), forwards: one},
		{name: "batch-negative", method: post, path: "/reach/batch", body: `{"pairs":[[-1,0]]}`, want: all(400), forwards: one},
		{name: "batch-target-n", method: post, path: "/reach/batch", body: fmt.Sprintf(`{"pairs":[[3,%d]]}`, n), want: all(400), forwards: one},
		{name: "batch-at-cap", method: post, path: "/reach/batch", body: `{"pairs":` + list(httpapi.MaxBatch, pair) + `}`, want: all(200), forwards: one},
		{name: "batch-over-cap", method: post, path: "/reach/batch", body: `{"pairs":` + list(httpapi.MaxBatch+1, pair) + `}`, want: all(413), forwards: one},
		{name: "batch-over-limit", method: post, path: "/reach/batch", body: `{"pairs":[[0,1]]` + pad(httpapi.Batch) + `}`, want: all(413), forwards: none},
		{name: "batch-wrong-method", method: get, path: "/reach/batch", want: all(405), forwards: none},

		{name: "path", method: get, path: "/reach/path?s=5&t=5", want: [3]int{200, 501, 200}, forwards: one},
		{name: "path-malformed", method: get, path: "/reach/path?s=0&t=notanumber", want: all(400), forwards: one},
		{name: "path-out-of-range", method: get, path: fmt.Sprintf("/reach/path?s=%d&t=0", n), want: all(400), forwards: one},
		{name: "path-wrong-method", method: post, path: "/reach/path?s=0&t=0", want: all(405), forwards: none},

		{name: "count", method: get, path: "/reach/count?s=3", want: all(200), forwards: one},
		{name: "count-malformed", method: get, path: "/reach/count?s=x", want: all(400), forwards: one},
		{name: "count-out-of-range", method: get, path: "/reach/count?s=-3", want: all(400), forwards: one},
		{name: "count-wrong-method", method: post, path: "/reach/count?s=3", want: all(405), forwards: none},

		{name: "from", method: post, path: "/reach/from", body: `{"s":3,"targets":[17,9,3]}`, want: all(200), forwards: one},
		{name: "from-malformed", method: post, path: "/reach/from", body: `{"s":3,"targets":[`, want: all(400), forwards: one},
		{name: "from-out-of-range", method: post, path: "/reach/from", body: fmt.Sprintf(`{"s":3,"targets":[17,%d]}`, n), want: all(400), forwards: one},
		{name: "from-at-cap", method: post, path: "/reach/from", body: `{"s":3,"targets":` + list(httpapi.MaxBatch, vertex(1)) + `}`, want: all(200), forwards: one},
		{name: "from-over-cap", method: post, path: "/reach/from", body: `{"s":3,"targets":` + list(httpapi.MaxBatch+1, vertex(1)) + `}`, want: all(413), forwards: one},
		{name: "from-over-limit", method: post, path: "/reach/from", body: `{"s":3,"targets":[1]` + pad(httpapi.From) + `}`, want: all(413), forwards: none},
		{name: "from-wrong-method", method: get, path: "/reach/from", want: all(405), forwards: none},

		{name: "join", method: post, path: "/reach/join", body: `{"sources":[5,3,4,3],"targets":[17,9,5,3]}`, want: all(200), forwards: one},
		{name: "join-zero", method: post, path: "/reach/join", body: `{"sources":[0],"targets":[3,0]}`, want: all(200), forwards: one},
		{name: "join-malformed", method: post, path: "/reach/join", body: `{"sources":[`, want: all(400), forwards: one},
		{name: "join-out-of-range", method: post, path: "/reach/join", body: fmt.Sprintf(`{"sources":[%d],"targets":[3]}`, n), want: all(400), forwards: one},
		{name: "join-over-cap", method: post, path: "/reach/join", body: `{"sources":[1],"targets":` + list(httpapi.MaxBatch+1, vertex(1)) + `}`, want: all(413), forwards: one},
		{name: "join-over-product", method: post, path: "/reach/join", body: `{"sources":` + list(thirds, vertex(3)) + `,"targets":` + list(thirdsTargets, vertex(1)) + `}`, want: all(413), forwards: one},
		{name: "join-over-product-spread", method: post, path: "/reach/join", body: `{"sources":` + list(spread, vertex(1)) + `,"targets":` + list(spreadTargets, vertex(1)) + `}`, want: all(413), forwards: one},
		// A bad vertex is refused before the product is: 400, not 413.
		{name: "join-over-product-out-of-range", method: post, path: "/reach/join", body: `{"sources":` + list(spread, vertex(1)) + `,"targets":` + list(spreadTargets, outOfRangeLast) + `}`, want: all(400), forwards: one},
		{name: "join-over-limit", method: post, path: "/reach/join", body: `{"sources":[0],"targets":[1]` + pad(httpapi.Join) + `}`, want: all(413), forwards: none},
		{name: "join-wrong-method", method: get, path: "/reach/join", want: all(405), forwards: none},

		{name: "edges", method: post, path: "/edges", body: `{"op":"insert","u":3,"v":17}`, want: [3]int{501, 501, 200}, forwards: one, fanned: [3]bool{false, false, true}, rewritten: true},
		{name: "edges-malformed", method: post, path: "/edges", body: `{"op":`, want: all(400), forwards: one},
		{name: "edges-bad-op", method: post, path: "/edges", body: `{"op":"upsert","u":1,"v":2}`, want: [3]int{501, 501, 400}, forwards: one},
		{name: "edges-out-of-range", method: post, path: "/edges", body: fmt.Sprintf(`{"op":"insert","u":3,"v":%d}`, n), want: [3]int{501, 501, 400}, forwards: one},
		{name: "edges-source-n", method: post, path: "/edges", body: fmt.Sprintf(`{"op":"insert","u":%d,"v":3}`, n), want: [3]int{501, 501, 400}, forwards: one},
		{name: "edges-over-limit", method: post, path: "/edges", body: `{"op":"insert","u":3,"v":17` + pad(httpapi.Edges) + `}`, want: all(413), forwards: none},
		{name: "edges-wrong-method", method: get, path: "/edges", want: all(405), forwards: none},

		{name: "reload", method: post, path: "/admin/reload", want: [3]int{200, 501, 501}, forwards: one, fanned: [3]bool{true, false, false}, rewritten: true},
		{name: "reload-ref", method: post, path: "/admin/reload", body: `{"ref":"again"}`, want: [3]int{200, 501, 501}, forwards: one, fanned: [3]bool{true, false, false}, rewritten: true},
		{name: "reload-malformed", method: post, path: "/admin/reload", body: `{"ref":`, want: all(400), forwards: one},
		{name: "reload-over-limit", method: post, path: "/admin/reload", body: `{"ref":"x"` + pad(httpapi.Reload) + `}`, want: all(413), forwards: none},
		{name: "reload-wrong-method", method: get, path: "/admin/reload", want: all(405), forwards: none},

		// After the reloads above a static replica serves epoch 3; the
		// header must say so through the router too.
		{name: "reach-after-reload", method: get, path: "/reach?s=3&t=17", want: all(200), forwards: one},
		{name: "batch-after-reload", method: post, path: "/reach/batch", body: `{"pairs":[[3,17],[4,9]]}`, want: all(200), forwards: one},
	}
}

// contractAnswer is what the test compares of one response.
type contractAnswer struct {
	status      int
	contentType string
	epoch       string
	body        string
}

func sendContractRow(t *testing.T, base string, row contractRow) contractAnswer {
	t.Helper()
	var body io.Reader
	if row.method == http.MethodPost {
		body = strings.NewReader(row.body)
	}
	req, err := http.NewRequest(row.method, base+row.path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	return contractAnswer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get(EpochHeader), string(raw)}
}

// TestRouterMatchesReplica holds README's "same API as a single replica"
// to the letter. One request table — every endpoint; good, malformed,
// out-of-range, over-limit, wrong-method, empty-batch and not-configured
// rows — is sent to a lone replica and through a router over three
// replicas built the same way, under each value of the ignored
// fleet.Options.Mode (the benchmark harness sets Sharded) to the same
// expectations, for three replica configurations: static (a built index
// with its graph and a reload loader), bare (a ReadIndex-loaded index:
// no graph, no loader, no updater — the index-only replica) and
// updating (update mode, whose refresher never ticks). Status, Content-Type and epoch header must be
// equal on every row and the body bytes too, except where the router
// composes its own per-replica document; and the router must get there
// the cheap way — a verdict costs one forward, a refusal of its own
// none, and nothing is ever charged to a replica as an error.
func TestRouterMatchesReplica(t *testing.T) {
	// A fake clock nobody advances: the updating replicas' refreshers and
	// the routers' probes never tick, so the epoch stays where the table
	// expects it and every probe after Start's is the table's own.
	clock.Fake(t)
	g := randomCyclicGraph(contractVertices, 3*contractVertices, 17)
	built, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reread := func() *Index {
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		idx, err := ReadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	opts := ServeOptions{CachePairs: 256}
	configs := []struct {
		name    string
		replica func(t *testing.T) http.Handler
	}{
		{"static", func(t *testing.T) http.Handler {
			o := opts
			o.Loader = func(string) (*Index, error) { return built, nil }
			return NewQueryHandlerOpts(built, o)
		}},
		{"bare", func(t *testing.T) http.Handler {
			return NewQueryHandlerOpts(reread(), opts)
		}},
		{"updating", func(t *testing.T) http.Handler {
			log, err := wal.Open(filepath.Join(t.TempDir(), "edges.wal"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { log.Close() })
			u, err := NewUpdater(g, log, UpdaterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := NewQueryHandlerOpts(u.Snapshot(), opts)
			h.EnableUpdates(u)
			u.Start(h)
			t.Cleanup(u.Close)
			return h
		}},
	}

	for ci, cfg := range configs {
		for _, mode := range []fleet.Mode{fleet.Replicated, fleet.Sharded} {
			t.Run(cfg.name+"/"+string(mode), func(t *testing.T) {
				lone := httptest.NewServer(cfg.replica(t))
				defer lone.Close()
				addrs := make([]string, 3)
				for i := range addrs {
					srv := httptest.NewServer(cfg.replica(t))
					defer srv.Close()
					addrs[i] = strings.TrimPrefix(srv.URL, "http://")
				}
				f, err := fleet.New(addrs, fleet.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				f.Start() // admits all three: they are live
				defer f.Close()
				router := httptest.NewServer(f)
				defer router.Close()
				spent := func() (forwards, errors int64) {
					for _, s := range f.Snapshot() {
						forwards += s.Forwards
						errors += s.Errors
					}
					return forwards, errors
				}

				for _, row := range contractTable(g.NumVertices()) {
					want := sendContractRow(t, lone.URL, row)
					if want.status != row.want[ci] {
						t.Errorf("%s: the replica answered %d %q, the table expects %d", row.name, want.status, want.body, row.want[ci])
					}
					f0, e0 := spent()
					got := sendContractRow(t, router.URL, row)
					f1, e1 := spent()

					if got.status != want.status || got.contentType != want.contentType || got.epoch != want.epoch {
						t.Errorf("%s: router answered %d %q epoch %q, replica %d %q epoch %q\nrouter body:  %.200q\nreplica body: %.200q",
							row.name, got.status, got.contentType, got.epoch, want.status, want.contentType, want.epoch, got.body, want.body)
					}
					if want.status == http.StatusOK && row.path != "/edges" && !strings.HasPrefix(row.path, "/admin/") && want.epoch == "" {
						t.Errorf("%s: the replica's answer carries no epoch header", row.name)
					}
					if got.body != want.body && !(row.rewritten && want.status == http.StatusOK) {
						t.Errorf("%s: router body %.200q, replica body %.200q", row.name, got.body, want.body)
					}
					wantForwards := int64(row.forwards)
					if row.fanned[ci] {
						wantForwards = int64(len(addrs))
					}
					if f1-f0 != wantForwards || e1 != e0 {
						t.Errorf("%s: router spent %d forwards and charged %d errors, want %d and 0", row.name, f1-f0, e1-e0, wantForwards)
					}
				}
				if t.Failed() {
					t.Logf("router state: %+v", f.Snapshot())
				}
			})
		}
	}
}
