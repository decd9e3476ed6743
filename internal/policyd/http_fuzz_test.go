package policyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzBatchDecodeMatchesJSON: on any bytes, the hand-written /v1/batch
// decoder either declines or returns exactly the queries encoding/json
// decodes — the reference the handler falls back to. It must also
// accept the canonical body json.Marshal writes for plain queries.
func FuzzBatchDecodeMatchesJSON(f *testing.F) {
	canonical, _ := json.Marshal(BatchRequest{Queries: []Query{
		{"a.test", "GPTBot", "/"}, {"b.test", "Mozilla/5.0 (compatible; CCBot/2.0)", "/images/art.png?x=1"},
	}})
	f.Add(canonical)
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(" {\n\t\"queries\" : [ { \"path\":\"/p\" , \"host\":\"h\",\"host\":\"h2\" }, {} ] }\r\n"))
	f.Add([]byte(`{"queries":[{"host":"aA","agent":"GPTBot","path":"/"}]}`))
	f.Add([]byte(`{"Queries":[{"Host":"a","AGENT":"b","path":null}]}`))
	f.Add([]byte(`{"queries":[{"host":"é","agent":"b","path":"/"}]}`))
	f.Add([]byte(`{"queries":null}`))
	f.Add([]byte(`{"queries":[{"host":"a","agent":"b","path":"/","extra":1}]} trailing`))
	f.Add([]byte(`{"queries":[{"host":"a"`))
	f.Add([]byte(`{"queries":[{"host":"a",}]}`))
	f.Add([]byte(`{"queries":[{"host":"a"},]}`))
	f.Add([]byte(``))
	if _, ok := decodeBatchFast(canonical, nil); !ok {
		f.Fatalf("hand decoder declines the canonical body %s", canonical)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode a copy, which the alias check below may overwrite; the
		// fuzzer's own input must stay as it is.
		buf := bytes.Clone(body)
		got, ok := decodeBatchFast(buf, nil)
		var want BatchRequest
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if !ok {
			if got != nil {
				t.Fatalf("declined but returned %#v", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: hand decoder accepted %#v, encoding/json fails: %v", body, got, err)
		}
		if !reflect.DeepEqual(got, want.Queries) {
			t.Fatalf("%q: hand decoder %#v, encoding/json %#v", body, got, want.Queries)
		}
		// The queries must not share memory with the decoded buffer,
		// which a server reuses for the next request.
		before := make([]Query, len(got))
		for i, q := range got {
			before[i] = Query{strings.Clone(q.Host), strings.Clone(q.Agent), strings.Clone(q.Path)}
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if !slices.Equal(got, before) {
			t.Fatalf("decoded strings changed when the body buffer was overwritten: %#v", got)
		}
	})
}

// FuzzDecideQueryMatchesURL: the one-pass /v1/decide query reader finds
// the host, agent and path url.ParseQuery followed by Get finds, on any
// raw query string.
func FuzzDecideQueryMatchesURL(f *testing.F) {
	f.Add(url.Values{"host": {"a.test"}, "agent": {"Mozilla/5.0 (compatible; CCBot/2.0)"}, "path": {"/a b?c=d&e"}}.Encode())
	f.Add("host=a.test&agent=GPTBot&path=/")
	f.Add("host=&host=b&agent=x;y&agent=z&path=%zz&path=%2F")
	f.Add("h%6Fst=a&agent=b+c&&=x&path")
	f.Add("host=a;b=c&agent=%E2%82%AC&path=/%")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
		want := Query{Host: vals.Get("host"), Agent: vals.Get("agent"), Path: vals.Get("path")}
		if got := decideQuery(raw); got != want {
			t.Fatalf("%q: one pass reads %+v, url.ParseQuery %+v", raw, got, want)
		}
	})
}

// FuzzJSONClientAnswer: whatever a server answers — any status, any
// Retry-After and X-Retry-After-Ms pair, any body — JSONClient.Answer
// returns an error or exactly one in-range decision per query, never
// panics, and turns a 429 into a *RateLimitError with a positive delay.
func FuzzJSONClientAnswer(f *testing.F) {
	f.Add(uint8(1), uint16(200), "", "", []byte(`{"action":"deny","signal":"robots-agent"}`+"\n"))
	f.Add(uint8(2), uint16(200), "", "", []byte(`{"decisions":[{"action":"allow","signal":"none"},{"action":"block","signal":"blocker"}]}`))
	f.Add(uint8(0), uint16(200), "", "", []byte(`{"decisions":[]}`))
	f.Add(uint8(2), uint16(200), "", "", []byte(`{"decisions":[{"action":"allow","signal":"none"}]}`))
	f.Add(uint8(3), uint16(200), "", "", []byte(`{"decisions":null}`))
	f.Add(uint8(1), uint16(200), "", "", []byte(`{"action":"maybe","signal":"none"}`))
	f.Add(uint8(2), uint16(429), "2", "1500", []byte("rate limited\n"))
	f.Add(uint8(1), uint16(429), "x", "-1", []byte(""))
	f.Add(uint8(1), uint16(429), "99999999999", "99999999999999999", []byte(""))
	f.Add(uint8(2), uint16(502), "", "", []byte("replica down\n"))
	f.Add(uint8(1), uint16(0), "", "", []byte("{"))
	var reply struct {
		status                   int
		retryAfter, retryAfterMs string
		body                     []byte
	}
	c := jsonClientOn(f, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", reply.retryAfter)
		w.Header().Set("X-Retry-After-Ms", reply.retryAfterMs)
		w.WriteHeader(reply.status)
		w.Write(reply.body)
	}))
	f.Fuzz(func(t *testing.T, n uint8, status uint16, retryAfter, retryAfterMs string, body []byte) {
		reply.status, reply.retryAfter, reply.retryAfterMs, reply.body = int(status), retryAfter, retryAfterMs, body
		qs := make([]Query, n%6)
		for i := range qs {
			qs[i] = Query{Host: fmt.Sprintf("h%d.test", i), Agent: "GPTBot", Path: "/"}
		}
		out, _, err := c.Answer(context.Background(), qs, nil)
		if status == http.StatusTooManyRequests {
			var limited *RateLimitError
			if !errors.As(err, &limited) || limited.RetryAfter <= 0 {
				t.Fatalf("429 answered %v, want a RateLimitError with a positive delay", err)
			}
		}
		if err != nil {
			if len(out) != 0 {
				t.Fatalf("error %v with %d decisions appended", err, len(out))
			}
			return
		}
		if len(out) != len(qs) {
			t.Fatalf("%d decisions for %d queries, no error", len(out), len(qs))
		}
		for _, d := range out {
			if d.Action > Block || d.Signal > signalMeta {
				t.Fatalf("out-of-range decision %v", d)
			}
		}
	})
}
