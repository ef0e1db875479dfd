package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The /reach/join answer is an NDJSON stream (Content-Type JoinStream):
//
//	{"s":3,"t":17}                        zero or more pair lines,
//	{"s":3,"t":41}                        strictly ascending by (s, t)
//	{"done":true,"count":2,"scanned":4}   exactly one summary line, last
//
// count is the number of pair lines and scanned the deduplicated cross
// product |sources|·|targets| the replica swept. Every refusal happens
// before the first line, so a non-200 is never NDJSON; once a stream
// has begun, a missing summary line is the only sign of truncation,
// which is why every reader goes through ReadJoin.

// JoinStream is the Content-Type of a join answer.
const JoinStream = "application/x-ndjson"

// JoinPair is one pair line.
type JoinPair struct {
	S int64 `json:"s"`
	T int64 `json:"t"`
}

// JoinSummary is the terminal line.
type JoinSummary struct {
	Done    bool `json:"done"`
	Count   int  `json:"count"`
	Scanned int  `json:"scanned"`
}

// JoinWriter writes a join stream; the caller supplies pairs in
// ascending order, the writer keeps the count the summary reports.
type JoinWriter struct {
	enc   *json.Encoder
	count int
}

// NewJoinWriter starts a stream on w.
func NewJoinWriter(w io.Writer) *JoinWriter {
	return &JoinWriter{enc: json.NewEncoder(w)}
}

// Pair writes one pair line.
func (jw *JoinWriter) Pair(s, t int64) error {
	jw.count++
	return jw.enc.Encode(JoinPair{S: s, T: t})
}

// Done ends the stream with its summary line.
func (jw *JoinWriter) Done(scanned int) error {
	return jw.enc.Encode(JoinSummary{Done: true, Count: jw.count, Scanned: scanned})
}

// ReadJoin consumes a join stream, handing each pair to pair in order,
// and returns its summary. Any breach of the grammar above — a line
// that is neither, a pair out of order, anything after the summary, no
// summary, a count that is not the pairs carried — is an error, never a
// short answer. An error from pair stops the read and is returned as is.
func ReadJoin(r io.Reader, pair func(s, t int64) error) (JoinSummary, error) {
	var sum JoinSummary
	var last JoinPair
	pairs := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if sum.Done {
			return sum, errors.New("join stream: line after the done line")
		}
		var line struct {
			S, T *int64
			JoinSummary
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return sum, fmt.Errorf("join stream: bad line %q: %w", sc.Text(), err)
		}
		if line.Done {
			sum = line.JoinSummary
			continue
		}
		if line.S == nil || line.T == nil {
			return sum, fmt.Errorf("join stream: line %q is neither a pair nor done", sc.Text())
		}
		p := JoinPair{S: *line.S, T: *line.T}
		if pairs > 0 && (p.S < last.S || (p.S == last.S && p.T <= last.T)) {
			return sum, fmt.Errorf("join stream: pair (%d,%d) not in ascending order after (%d,%d)", p.S, p.T, last.S, last.T)
		}
		last = p
		pairs++
		if err := pair(p.S, p.T); err != nil {
			return sum, err
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("join stream: %w", err)
	}
	if !sum.Done {
		return sum, fmt.Errorf("join stream: ended without a done line (%d pairs in)", pairs)
	}
	if sum.Count != pairs {
		return sum, fmt.Errorf("join stream: done line says %d pairs, stream carried %d", sum.Count, pairs)
	}
	return sum, nil
}
