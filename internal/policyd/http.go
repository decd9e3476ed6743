package policyd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	return NewHandlerFor(svc, mWireJSON, mJSONStages, map[string]func() any{
		"/v1/stats": func() any { return svc.Stats() },
	})
}

// NewHandlerFor is the JSON API behind every HTTP listener, replica or
// gateway: /v1/decide and /v1/batch answered by a (each counted on
// requests once it parses, and clocked on stages once answered),
// /healthz, and one JSON document per entry of views. Every answer
// names its snapshot in X-Policyd-Version; a *RateLimitError from a is
// 429 + Retry-After, any other error 502.
func NewHandlerFor(a Answerer, requests *obs.Counter, stages JSONStages, views map[string]func() any) http.Handler {
	api := &jsonAPI{a: a, requests: requests, stages: stages}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", api.decide)
	mux.HandleFunc("/v1/batch", api.batch)
	for path, view := range views {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { writeJSON(w, view()) })
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// jsonAPI answers /v1/decide and /v1/batch through a.
type jsonAPI struct {
	a        Answerer
	requests *obs.Counter
	stages   JSONStages
}

// jsonScratch is one request's reusable buffers.
type jsonScratch struct {
	body []byte // the /v1/batch request body
	qs   []Query
	ds   []Decision
	out  []byte // the /v1/batch response body
}

// Bounds on what a pooled scratch keeps, so one huge batch does not pin
// its buffers in the pool.
const (
	maxPooledBody    = 64 << 10
	maxPooledQueries = 256
)

var jsonScratchPool = sync.Pool{New: func() any { return new(jsonScratch) }}

func putScratch(s *jsonScratch) {
	if cap(s.body) > maxPooledBody {
		s.body = nil
	}
	if cap(s.out) > maxPooledBody {
		s.out = nil
	}
	if cap(s.qs) > maxPooledQueries {
		s.qs, s.ds = nil, nil
	}
	clear(s.qs[:cap(s.qs)]) // query strings pin the body they were cut from
	jsonScratchPool.Put(s)
}

// answer runs one parsed request, appending to s.ds, and reports whether
// it was answered; when not, the error response is already written.
func (api *jsonAPI) answer(w http.ResponseWriter, r *http.Request, s *jsonScratch, qs []Query) bool {
	api.requests.Inc()
	var version string
	var err error
	s.ds, version, err = api.a.Answer(r.Context(), qs, s.ds[:0])
	if err == nil {
		w.Header().Set("X-Policyd-Version", version)
		return true
	}
	var limited *RateLimitError
	if errors.As(err, &limited) {
		writeRateLimited(w, limited.RetryAfter)
	} else {
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
	return false
}

func (api *jsonAPI) decide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	clock := startStageClock()
	q := decideQuery(r.URL.RawQuery)
	if q.Host == "" || q.Agent == "" {
		http.Error(w, "host and agent are required", http.StatusBadRequest)
		return
	}
	clock.lap(api.stages.Parse)
	s := jsonScratchPool.Get().(*jsonScratch)
	defer putScratch(s)
	s.qs = append(s.qs[:0], q)
	if !api.answer(w, r, s, s.qs) {
		return
	}
	clock.lap(api.stages.Answer)
	writeDecision(w, s.ds[0])
	clock.lap(api.stages.Encode)
}

func (api *jsonAPI) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	clock := startStageClock()
	s := jsonScratchPool.Get().(*jsonScratch)
	defer putScratch(s)
	var err error
	if s.body, err = readBatchBody(r.Body, s.body[:0]); err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	qs, ok := decodeBatchFast(s.body, s.qs[:0])
	if ok {
		s.qs = qs
	} else {
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(s.body)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
			return
		}
		qs = req.Queries
	}
	if len(qs) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch exceeds %d queries", MaxBatch), http.StatusRequestEntityTooLarge)
		return
	}
	clock.lap(api.stages.Parse)
	if !api.answer(w, r, s, qs) {
		return
	}
	clock.lap(api.stages.Answer)
	s.out = appendBatchResponse(s.out[:0], s.ds)
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.out)
	clock.lap(api.stages.Encode)
}

// stageClock times one request's consecutive stages. Laps read only the
// monotonic clock (time.Since), about half the cost of time.Now.
type stageClock struct {
	start time.Time
	done  time.Duration // start to the last lap
}

func startStageClock() stageClock { return stageClock{start: time.Now()} }

// lap records the time since the last lap (or the start) on h.
func (c *stageClock) lap(h *obs.Histogram) {
	d := time.Since(c.start)
	h.Observe(uint64(d - c.done))
	c.done = d
}

// decideQuery reads host, agent and path from a raw query string in one
// pass, as url.ParseQuery followed by Get does: '&' separates pairs, a
// pair holding ';' or a malformed escape is skipped, keys and values are
// query-unescaped, and the first surviving pair of each key wins.
func decideQuery(raw string) Query {
	var (
		vals [len(queryKeys)]string
		seen [len(queryKeys)]bool
	)
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, ok := queryUnescape(k)
		if !ok {
			continue
		}
		if i := slices.Index(queryKeys[:], k); i >= 0 && !seen[i] {
			vals[i], seen[i] = queryUnescape(v)
		}
	}
	return Query{Host: vals[0], Agent: vals[1], Path: vals[2]}
}

// queryKeys are Query's wire keys — /v1/decide's query keys and
// /v1/batch's JSON keys — in field order.
var queryKeys = [...]string{"host", "agent", "path"}

// queryUnescape is url.QueryUnescape that returns s itself when there
// is nothing to unescape.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// readBatchBody appends all of r to buf, failing once the body passes
// maxBatchBytes.
func readBatchBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxBatchBytes+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > maxBatchBytes:
			return buf, &http.MaxBytesError{Limit: maxBatchBytes}
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// decodeBatchFast decodes the canonical /v1/batch body,
// {"queries":[{"host":…,"agent":…,"path":…},…]}, with JSON whitespace
// between tokens, each query's keys in any order (a repeated key's last
// value wins, an omitted key is ""), and string values of printable
// ASCII without escapes. It appends to qs and reports true only when
// json.NewDecoder(…).Decode(&BatchRequest{}) would return exactly these
// queries; anything else — escapes, other keys or key spellings, null,
// non-ASCII text, bytes after the object — reports false and is left to
// encoding/json. The strings are cut from one copy of body, so they stay
// valid when the caller reuses body.
func decodeBatchFast(body []byte, qs []Query) ([]Query, bool) {
	if qs == nil {
		qs = make([]Query, 0, 8) // Decode makes [] a non-nil empty slice
	}
	d := batchScanner{s: string(body)}
	if !d.byte('{') {
		return nil, false
	}
	if k, ok := d.str(); !ok || k != "queries" || !d.byte(':') || !d.byte('[') {
		return nil, false
	}
	if !d.byte(']') {
		for {
			q, ok := d.query()
			if !ok {
				return nil, false
			}
			qs = append(qs, q)
			if d.byte(']') {
				break
			}
			if !d.byte(',') {
				return nil, false
			}
		}
	}
	if !d.byte('}') {
		return nil, false
	}
	d.space()
	return qs, d.i == len(d.s)
}

// batchScanner walks a /v1/batch body for decodeBatchFast.
type batchScanner struct {
	s string
	i int
}

func (d *batchScanner) space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte consumes c after optional whitespace, reporting whether it was
// there.
func (d *batchScanner) byte(c byte) bool {
	d.space()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII with no escapes.
func (d *batchScanner) str() (string, bool) {
	d.space()
	if d.i >= len(d.s) || d.s[d.i] != '"' {
		return "", false
	}
	for j := d.i + 1; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c == '"':
			v := d.s[d.i+1 : j]
			d.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// query consumes one {"host":…,"agent":…,"path":…} object.
func (d *batchScanner) query() (Query, bool) {
	var vals [len(queryKeys)]string
	if !d.byte('{') {
		return Query{}, false
	}
	if d.byte('}') {
		return Query{}, true
	}
	for {
		k, ok := d.str()
		i := slices.Index(queryKeys[:], k)
		if !ok || i < 0 || !d.byte(':') {
			return Query{}, false
		}
		if vals[i], ok = d.str(); !ok {
			return Query{}, false
		}
		if d.byte('}') {
			return Query{Host: vals[0], Agent: vals[1], Path: vals[2]}, true
		}
		if !d.byte(',') {
			return Query{}, false
		}
	}
}

// appendBatchResponse appends the /v1/batch response body for ds: the
// bytes json.NewEncoder writes for the BatchResponse, built from the
// pre-rendered decision bodies.
func appendBatchResponse(dst []byte, ds []Decision) []byte {
	dst = append(dst, `{"decisions":[`...)
	for i, d := range ds {
		if i > 0 {
			dst = append(dst, ',')
		}
		if body, ok := DecisionBody(d); ok {
			dst = append(dst, body[:len(body)-1]...) // without the newline
		} else {
			b, _ := json.Marshal(d.JSON()) // two strings: cannot fail
			dst = append(dst, b...)
		}
	}
	return append(dst, "]}\n"...)
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
