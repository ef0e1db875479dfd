package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	reachlab "repro"
)

func TestScanResults(t *testing.T) {
	for _, c := range []struct {
		body  string
		mask  uint16
		count int
		ok    bool
	}{
		{`{"count":3,"results":[true,false,true]}`, 0b101, 3, true},
		{`{"count":0,"results":[]}`, 0, 0, true},
		{`{"results":[false]}` + "\n", 0, 1, true},
		{`{"count":1}`, 0, 0, false},
		{`{"results":[true,maybe]}`, 0, 0, false},
		{`{"results":[true,false`, 0, 0, false},
		{`{"results":[` + strings.Repeat("true,", 16) + `true]}`, 0, 0, false},
	} {
		mask, count, ok := scanResults([]byte(c.body))
		if mask != c.mask || count != c.count || ok != c.ok {
			t.Errorf("scanResults(%s) = %b, %d, %v; want %b, %d, %v", c.body, mask, count, ok, c.mask, c.count, c.ok)
		}
	}
}

func TestScanUint(t *testing.T) {
	body := []byte(`{"op":"insert","u":3,"v":17,"seq":42,"epoch":7}`)
	if v, ok := scanUint(body, "epoch"); !ok || v != 7 {
		t.Errorf("epoch = %d, %v", v, ok)
	}
	if v, ok := scanUint(body, "seq"); !ok || v != 42 {
		t.Errorf("seq = %d, %v", v, ok)
	}
	if _, ok := scanUint(body, "missing"); ok {
		t.Error("found a field that is not there")
	}
}

// A hand-written handler, decoding with encoding/json, stands in for
// the replica: s < t is "reachable". The client's encoder, response
// reader and answer check must agree with it, over Content-Length and
// over chunked replies.
func TestClientAgainstHandWrittenHandler(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Pairs [][2]int64 `json:"pairs"`
			}
			if r.Method != "POST" || r.URL.Path != "/reach/batch" || json.NewDecoder(r.Body).Decode(&req) != nil {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			res := make([]bool, len(req.Pairs))
			for i, p := range req.Pairs {
				res[i] = p[0] < p[1]
			}
			w.Header().Set("X-Reachlab-Epoch", "9")
			if chunked {
				w.(http.Flusher).Flush()
			}
			if err := json.NewEncoder(w).Encode(map[string]any{"count": len(res), "results": res}); err != nil {
				t.Error(err)
			}
		}))
		q := encodeBatches(uniformPairs(subSeed(1, streamClient), 1000, 40*batchSize))
		q.expect(func(s, t reachlab.VertexID) bool { return s < t })
		c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range q.raw {
			res, err := c.do(raw)
			if err != nil {
				t.Fatalf("chunked=%v request %d: %v", chunked, i, err)
			}
			mask, count, ok := scanResults(res.body)
			if res.status != 200 || res.epoch != 9 || !ok || count != batchSize || mask != q.want[i] {
				t.Fatalf("chunked=%v request %d: status %d epoch %d, answers %016b ok=%v, want %016b", chunked, i, res.status, res.epoch, mask, ok, q.want[i])
			}
		}
		// A request the handler refuses comes back as a status, not an error.
		res, err := c.do(httpRequest("GET", "/reach/batch", nil))
		if err != nil || res.status != 400 {
			t.Errorf("chunked=%v refused request: status %d, err %v", chunked, res.status, err)
		}
		c.close()
		srv.Close()
	}
}

func TestStubServerAnswersLikeAReplica(t *testing.T) {
	q := encodeBatches(uniformPairs(subSeed(1, streamClient), 1000, 8*batchSize))
	ns, err := stubNsPerReq(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Errorf("stub cost %v ns", ns)
	}
}
