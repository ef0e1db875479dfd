package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro/internal/obs"
)

// Handle is one mounted endpoint: its contract row, its body bound and
// its error and cancel counters. It owns every way of refusing or
// dropping a request, so either reads and counts the same at a replica
// and at the router.
type Handle struct {
	Endpoint
	errors   *obs.Counter
	canceled *obs.Counter
}

// Canceled counts a request dropped because its client went away (the
// request's context is cancelled). The caller stops working on it and
// writes nothing: nobody is left to read an answer, and it is not an
// error of the endpoint's.
func (h *Handle) Canceled() { h.canceled.Inc() }

// Fail counts an error for the endpoint and sends it.
func (h *Handle) Fail(w http.ResponseWriter, msg string, code int) {
	h.errors.Inc()
	http.Error(w, msg, code)
}

// failBody refuses a request whose body could not be taken in: 413 when
// it ran past the endpoint's bound, 400 for anything else (malformed
// JSON, a client that hung up mid-body).
func (h *Handle) failBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		h.Fail(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	h.Fail(w, fmt.Sprintf("bad %s request: %v", h.noun, err), http.StatusBadRequest)
}

// Decode reads the request's JSON body into v under the endpoint's two
// bounds: bytes while reading, entries per list once read. On failure
// it has already refused the request and returns false.
func (h *Handle) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, h.BodyLimit())
	if err := json.NewDecoder(r.Body).Decode(v); err != nil && !(h.emptyOK && errors.Is(err, io.EOF)) {
		h.failBody(w, err)
		return false
	}
	var over string
	switch req := v.(type) {
	case *BatchRequest:
		if len(req.Pairs) > MaxBatch {
			over = fmt.Sprintf("batch of %d pairs exceeds limit %d", len(req.Pairs), MaxBatch)
		}
	case *FromRequest:
		if len(req.Targets) > MaxBatch {
			over = fmt.Sprintf("%d targets exceeds limit %d", len(req.Targets), MaxBatch)
		}
	case *JoinRequest:
		if len(req.Sources) > MaxBatch || len(req.Targets) > MaxBatch {
			over = fmt.Sprintf("join lists of %d×%d exceed per-list limit %d", len(req.Sources), len(req.Targets), MaxBatch)
		}
	}
	if over != "" {
		h.Fail(w, over, http.StatusRequestEntityTooLarge)
		return false
	}
	return true
}

// ReadBody takes the request body in whole, under the same bound and
// with the same refusals as Decode — what the router does with a body
// it forwards without looking inside.
func (h *Handle) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.BodyLimit()))
	if err != nil {
		h.failBody(w, err)
		return nil, false
	}
	return body, true
}

// Relay passes an upstream verdict on verbatim: status, content type,
// epoch header, body. A refusal counts as this endpoint's error just
// as it did at the replica that issued it.
func (h *Handle) Relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if resp.StatusCode >= http.StatusBadRequest {
		h.errors.Inc()
	}
	for _, name := range []string{"Content-Type", EpochHeader} {
		if v := resp.Header.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := w.Write(body); err != nil {
		LogDropped(err)
	}
}

// WriteJSON encodes v directly onto the wire. If encoding fails the
// status line and part of the body are already out, so sending
// http.Error would splice an error page into a half-written JSON
// document; log the failure and drop the connection output instead.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		LogDropped(err)
	}
}

// LogDropped records a write failure the (gone) client cannot be told of.
func LogDropped(err error) {
	log.Printf("httpapi: response truncated: %v", err)
}
