package httpapi

import "repro/internal/graph"

// The wire types, one per request and response body. Request fields
// that name vertices are int64 — unvalidated until range-checked against
// the serving epoch — while responses carry the validated VertexID.
// Field order is wire order: the golden-bytes test pins it.

// GET /reach?s=&t=.
type ReachResponse struct {
	S         graph.VertexID `json:"s"`
	T         graph.VertexID `json:"t"`
	Reachable bool           `json:"reachable"`
}

// POST /reach/batch; Results in the caller's pair order.
type (
	BatchRequest struct {
		Pairs [][2]int64 `json:"pairs"`
	}
	BatchResponse struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
)

// GET /reach/path?s=&t=; Path is present exactly when Reachable.
type PathResponse struct {
	S         graph.VertexID   `json:"s"`
	T         graph.VertexID   `json:"t"`
	Reachable bool             `json:"reachable"`
	Path      []graph.VertexID `json:"path,omitempty"`
}

// GET /reach/count?s=.
type CountResponse struct {
	S     graph.VertexID `json:"s"`
	Count int            `json:"count"`
}

// POST /reach/from; Results in target order, Count of them true.
type (
	FromRequest struct {
		S       int64   `json:"s"`
		Targets []int64 `json:"targets"`
	}
	FromResponse struct {
		S       graph.VertexID `json:"s"`
		Count   int            `json:"count"`
		Results []bool         `json:"results"`
	}
)

// JoinRequest is the body of POST /reach/join; the answer is the NDJSON
// stream of join.go.
type JoinRequest struct {
	Sources []int64 `json:"sources"`
	Targets []int64 `json:"targets"`
}

// POST /admin/reload; an empty Ref, like no body at all, reloads the
// replica's default source.
type (
	ReloadRequest struct {
		Ref string `json:"ref"`
	}
	ReloadResponse struct {
		Epoch    uint64 `json:"epoch"`
		Vertices int    `json:"vertices"`
	}
)

// POST /edges; Op is "insert" or "delete". The response acknowledges a
// durable mutation: its log sequence number and the epoch that will
// first serve it.
type (
	EdgeRequest struct {
		Op string `json:"op"`
		U  int64  `json:"u"`
		V  int64  `json:"v"`
	}
	EdgeResponse struct {
		Op    string `json:"op"`
		U     int64  `json:"u"`
		V     int64  `json:"v"`
		Seq   uint64 `json:"seq"`
		Epoch uint64 `json:"epoch"`
	}
)

// FanoutResponse is the router's answer to the two requests it sends to
// every replica (/admin/reload, /edges): 200 when no row carries an
// Error, 502 otherwise. A row is the replica's ReloadResponse or
// EdgeResponse under its address — the shared field names are what let
// the router unmarshal the replica's answer straight into its row — or
// why there is none.
type (
	FanoutResponse struct {
		Replicas []ReplicaOutcome `json:"replicas"`
	}
	ReplicaOutcome struct {
		Addr     string `json:"addr"`
		Seq      uint64 `json:"seq,omitempty"`
		Epoch    uint64 `json:"epoch,omitempty"`
		Vertices int    `json:"vertices,omitempty"`
		Error    string `json:"error,omitempty"`
	}
)
