package policyd

import (
	"bytes"
	"encoding/json"
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
