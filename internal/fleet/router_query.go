package fleet

import (
	"bytes"
	"net/http"
	"slices"
	"sync"

	"repro/internal/httpapi"
)

// handleJoin routes a reachability join in Sharded mode (a replicated
// pool passes it through whole). It partitions the sources by owner
// (shardOf), sends each shard a sub-join over its sources and the full
// target list, and merges: the source sets are disjoint, so
// concatenating the sub-results and sorting by (s, t) reproduces
// exactly the single-replica output, and the summary's count/scanned
// are the sums (each replica deduplicates its own lists, so
// Σ|srcs_k|·|tgts| == |srcs|·|tgts|). Each sub-stream is read through
// httpapi.ReadJoin, so one without its done line — a truncated
// upstream — fails the merge closed with 502 rather than relay a
// silent partial answer.
func (f *Fleet) handleJoin(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	var req httpapi.JoinRequest
	if !api.Decode(w, r, &req) {
		return
	}
	// Partition sources by shard owner; duplicates land on the same
	// shard and are deduplicated there, exactly as one replica would.
	// Vertex ranges are for a replica to check; settle relays its refusal.
	k := len(f.replicas)
	bySrc := make([][]int64, k)
	for _, s := range req.Sources {
		shard := shardOf(s, k)
		bySrc[shard] = append(bySrc[shard], s)
	}

	subs := make([]subAnswer, k)
	var wg sync.WaitGroup
	for shard, sources := range bySrc {
		if len(sources) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, sources []int64) {
			defer wg.Done()
			sub := httpapi.JoinRequest{Sources: sources, Targets: req.Targets}
			subs[shard] = f.subRequest(r.Context(), api, shard, sub, func(a *subAnswer) error {
				sum, err := httpapi.ReadJoin(bytes.NewReader(a.data), func(s, t int64) error {
					a.pairs = append(a.pairs, [2]int64{s, t})
					return nil
				})
				a.scanned = sum.Scanned
				return err
			})
		}(shard, sources)
	}
	wg.Wait()
	epoch, ok := f.settle(r.Context(), api, w, subs)
	if !ok {
		return
	}

	var pairs [][2]int64
	scanned := 0
	for _, a := range subs {
		pairs = append(pairs, a.pairs...)
		scanned += a.scanned
	}
	slices.SortFunc(pairs, func(a, b [2]int64) int { return slices.Compare(a[:], b[:]) })

	w.Header().Set("Content-Type", httpapi.JoinStream)
	if epoch != "" {
		w.Header().Set(httpapi.EpochHeader, epoch)
	}
	jw := httpapi.NewJoinWriter(w)
	for _, p := range pairs {
		if err := jw.Pair(p[0], p[1]); err != nil {
			httpapi.LogDropped(err)
			return
		}
	}
	if err := jw.Done(scanned); err != nil {
		httpapi.LogDropped(err)
	}
}
