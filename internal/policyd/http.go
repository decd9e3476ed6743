package policyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The JSON API, served identically over netsim (in-harness experiments)
// and real TCP (cmd/policyd):
//
//	GET  /v1/decide?host=H&agent=U&path=P   -> {"action":"allow","signal":"none"}
//	POST /v1/batch  {"queries":[{...}]}     -> {"decisions":[{...}]}
//	GET  /v1/stats                          -> {"queries":N,"version":...,"hosts":N}
//	GET  /healthz                           -> ok
//
// Decide and batch answers carry X-Policyd-Version, the snapshot that
// produced every decision in the response. A fleet gateway serves the
// same two endpoints from the same code (NewHandlerFor).

// DecisionJSON is a decision's wire form.
type DecisionJSON struct {
	Action string `json:"action"`
	Signal string `json:"signal"`
}

// JSON converts a decision to its wire form.
func (d Decision) JSON() DecisionJSON {
	return DecisionJSON{Action: d.Action.String(), Signal: d.Signal.String()}
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchResponse is the /v1/batch response body; decisions align with
// the request's queries by index.
type BatchResponse struct {
	Decisions []DecisionJSON `json:"decisions"`
}

// MaxBatch bounds one /v1/batch request, like any ingress guard.
const MaxBatch = 4096

// maxBatchBytes caps the /v1/batch request body so the size guard holds
// before JSON decoding allocates anything: MaxBatch queries with
// generous host/agent/path strings fit well within it.
const maxBatchBytes = 4 << 20

// NewHandler returns the service's HTTP API.
func NewHandler(svc *Service) http.Handler {
	return NewHandlerFor(svc, mWireJSON, map[string]func() any{
		"/v1/stats": func() any { return svc.Stats() },
	})
}

// NewHandlerFor is the JSON API behind every HTTP listener, replica or
// gateway: /v1/decide and /v1/batch answered by a (each counted on
// requests once it parses), /healthz, and one JSON document per entry
// of views. Every answer names its snapshot in X-Policyd-Version; a
// *RateLimitError from a is 429 + Retry-After, any other error 502.
func NewHandlerFor(a Answerer, requests *obs.Counter, views map[string]func() any) http.Handler {
	mux := http.NewServeMux()
	// answer runs one parsed request and reports whether it was answered;
	// when not, the error response is already written.
	answer := func(w http.ResponseWriter, r *http.Request, qs []Query) ([]Decision, bool) {
		requests.Inc()
		ds, version, err := a.Answer(r.Context(), qs, make([]Decision, 0, len(qs)))
		if err == nil {
			w.Header().Set("X-Policyd-Version", version)
			return ds, true
		}
		var limited *RateLimitError
		if errors.As(err, &limited) {
			writeRateLimited(w, limited.RetryAfter)
		} else {
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return nil, false
	}
	mux.HandleFunc("/v1/decide", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := Query{
			Host:  r.URL.Query().Get("host"),
			Agent: r.URL.Query().Get("agent"),
			Path:  r.URL.Query().Get("path"),
		}
		if q.Host == "" || q.Agent == "" {
			http.Error(w, "host and agent are required", http.StatusBadRequest)
			return
		}
		if ds, ok := answer(w, r, []Query{q}); ok {
			writeDecision(w, ds[0])
		}
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req BatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
			return
		}
		if len(req.Queries) > MaxBatch {
			http.Error(w, fmt.Sprintf("batch exceeds %d queries", MaxBatch), http.StatusRequestEntityTooLarge)
			return
		}
		ds, ok := answer(w, r, req.Queries)
		if !ok {
			return
		}
		resp := BatchResponse{Decisions: make([]DecisionJSON, len(ds))}
		for i, d := range ds {
			resp.Decisions[i] = d.JSON()
		}
		writeJSON(w, resp)
	})
	for path, view := range views {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { writeJSON(w, view()) })
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeRateLimited answers 429 with both the spec's integer-second
// Retry-After and an exact millisecond variant (token buckets at
// realistic rates refill in well under a second).
func writeRateLimited(w http.ResponseWriter, wait time.Duration) {
	secs := int(wait / time.Second)
	if wait%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(wait.Milliseconds(), 10))
	http.Error(w, "rate limited", http.StatusTooManyRequests)
}

// decideResponses holds the pre-rendered /v1/decide body for every
// (action, signal) pair. The single-query endpoint dominates wire
// traffic and its response space is tiny, so rendering the 18 bodies
// once turns the hot path's marshal into an index and a write.
var decideResponses = func() (t [Block + 1][signalMeta + 1][]byte) {
	for a := allow; a <= Block; a++ {
		for s := signalNone; s <= signalMeta; s++ {
			b, err := json.Marshal(Decision{Action: a, Signal: s}.JSON())
			if err != nil {
				panic(err)
			}
			t[a][s] = append(b, '\n')
		}
	}
	return t
}()

// DecisionBody returns the pre-rendered /v1/decide response body for d
// (trailing newline included), or ok=false for out-of-range pairs:
// the exact bytes a replica or a gateway answers with, for clients that
// compare them.
func DecisionBody(d Decision) ([]byte, bool) {
	if d.Action <= Block && d.Signal <= signalMeta {
		return decideResponses[d.Action][d.Signal], true
	}
	return nil, false
}

// writeDecision writes a single decision, pre-rendered when the pair is
// in range (always, for decisions the service produces).
func writeDecision(w http.ResponseWriter, d Decision) {
	if body, ok := DecisionBody(d); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	writeJSON(w, d.JSON())
}
