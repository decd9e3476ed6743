package policyd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/corpus"
	"repro/internal/netsim"
)

func TestFrameQueryRoundTrip(t *testing.T) {
	cases := [][]Query{
		{},
		{{Host: "a.test", Agent: "GPTBot", Path: "/"}},
		{
			{Host: "a.test", Agent: "GPTBot", Path: "/images/art.png"},
			{Host: "", Agent: "", Path: ""},
			{Host: "b.test", Agent: "Mozilla/5.0 (compatible; ClaudeBot/1.0)", Path: "/search?q=x&y=z"},
			{Host: strings.Repeat("h", 0xFFFF), Agent: "x", Path: "/p"},
		},
	}
	for _, qs := range cases {
		frame, err := AppendQueryFrame(nil, qs)
		if err != nil {
			t.Fatalf("encode %d queries: %v", len(qs), err)
		}
		got, err := DecodeQueryPayload(frame[4:], nil)
		if err != nil {
			t.Fatalf("decode %d queries: %v", len(qs), err)
		}
		if len(qs) == 0 {
			if len(got) != 0 {
				t.Fatalf("decoded %d queries from empty batch", len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, qs) {
			t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", qs, got)
		}
	}
}

// TestFrameDecisionRoundTrip: every valid (action, signal) pair survives
// the decision records that end an OK response payload.
func TestFrameDecisionRoundTrip(t *testing.T) {
	ds := []Decision{
		{Allow, SignalNone},
		{Deny, SignalRobotsAgent},
		{Deny, SignalRobotsWildcard},
		{Deny, SignalAITxt},
		{Deny, SignalMeta},
		{Block, SignalBlocker},
	}
	const version = "2023-40"
	frame := AppendDecisionFrameV2(nil, ds, version)
	got, err := DecodeDecisionPayload(frame[4+1+2+len(version):], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip diverged:\nin:  %v\nout: %v", ds, got)
	}
}

// TestFrameDecodeMalformed pins the decoder's contract on hostile input:
// an error, never a panic, never a bogus success.
func TestFrameDecodeMalformed(t *testing.T) {
	good, err := AppendQueryFrame(nil, []Query{{Host: "a.test", Agent: "GPTBot", Path: "/"}})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]
	queryCases := map[string][]byte{
		"empty":              {},
		"short header":       {1, 0},
		"count only":         {1, 0, 0, 0},
		"truncated strlen":   payload[:5],
		"truncated string":   payload[:len(payload)-1],
		"trailing bytes":     append(append([]byte(nil), payload...), 0),
		"oversized count":    {255, 255, 255, 255},
		"count beyond batch": {0x01, 0x10, 0, 0}, // 4097 > MaxBatch
	}
	for name, p := range queryCases {
		if _, err := DecodeQueryPayload(p, nil); err == nil {
			t.Errorf("query payload %q: decoded without error", name)
		}
	}
	decisionCases := map[string][]byte{
		"empty":            {},
		"short header":     {1, 0},
		"length mismatch":  {1, 0, 0, 0, 0},
		"bad action byte":  {1, 0, 0, 0, 7, 0},
		"bad signal byte":  {1, 0, 0, 0, 0, 9},
		"oversized count":  {255, 255, 255, 255},
		"truncated record": {2, 0, 0, 0, 0, 0},
	}
	for name, p := range decisionCases {
		if _, err := DecodeDecisionPayload(p, nil); err == nil {
			t.Errorf("decision payload %q: decoded without error", name)
		}
	}
}

func TestFrameEncodeLimits(t *testing.T) {
	if _, err := AppendQueryFrame(nil, make([]Query, MaxBatch+1)); err == nil {
		t.Error("oversized batch encoded without error")
	}
	long := strings.Repeat("x", 0x10000)
	if _, err := AppendQueryFrame(nil, []Query{{Host: long}}); err == nil {
		t.Error("oversized string encoded without error")
	}
}

// TestFrameJSONParityCorpus is the wire-format correctness anchor: the
// same >100k-query corpus workload is answered over the binary frame
// protocol and over the JSON /v1/batch API, both served from one Service
// over netsim, and every decision must agree (and match the in-process
// engine), with both wires naming the snapshot that answered. This is
// the cross-wire guarantee cmd/loadgen -wire relies on.
func TestFrameJSONParityCorpus(t *testing.T) {
	ctx := context.Background()
	c, err := corpus.New(ctx, corpus.Config{Seed: 20251028, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromCorpus(ctx, c, len(corpus.Snapshots)-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(snap)

	nw := netsim.New()
	jsonLn, err := nw.Listen("203.0.113.70", 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("policyd.test", "203.0.113.70")
	srv := &http.Server{Handler: NewHandler(svc)}
	srvDone := make(chan struct{})
	go func() { defer close(srvDone); srv.Serve(jsonLn) }()
	defer func() { srv.Close(); <-srvDone }()

	frameLn, err := nw.Listen("203.0.113.71", 80)
	if err != nil {
		t.Fatal(err)
	}
	go ServeFrames(frameLn, svc)
	defer frameLn.Close()

	conn, err := nw.Dial(ctx, "198.51.100.70", "203.0.113.71:80")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFrameClientV2(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	client := nw.HTTPClient("198.51.100.71")

	// Every corpus host × a crawler mix × the matcher-corner paths:
	// comfortably over the 100k-query bar at bench scale.
	queryAgents := append(agents.Tokens()[:3], "Googlebot", "Mozilla")
	var all []Query
	for _, host := range snap.Hosts() {
		for _, a := range queryAgents {
			for _, p := range parityPaths {
				all = append(all, Query{Host: host, Agent: a, Path: p})
			}
		}
	}
	if len(all) < 100_000 {
		t.Fatalf("workload too small for the parity bar: %d queries", len(all))
	}

	frameOut := make([]Decision, 0, MaxBatch)
	direct := make([]Decision, 0, MaxBatch)
	checked := 0
	for off := 0; off < len(all); off += MaxBatch {
		qs := all[off:min(off+MaxBatch, len(all))]

		var version string
		frameOut, version, err = fc.Decide(qs, frameOut[:0])
		if err != nil {
			t.Fatalf("frame batch at %d: %v", off, err)
		}

		body, err := json.Marshal(BatchRequest{Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post("http://policyd.test/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("json batch at %d: %v", off, err)
		}
		var br BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hv := resp.Header.Get("X-Policyd-Version"); version != snap.Version || hv != snap.Version {
			t.Fatalf("batch at %d: frame names version %q, json %q, snapshot is %q", off, version, hv, snap.Version)
		}
		if len(br.Decisions) != len(qs) || len(frameOut) != len(qs) {
			t.Fatalf("batch at %d: %d json, %d frame decisions for %d queries",
				off, len(br.Decisions), len(frameOut), len(qs))
		}

		direct = svc.DecideBatch(qs, direct[:0])
		for i := range qs {
			if got, want := frameOut[i].JSON(), br.Decisions[i]; got != want {
				t.Fatalf("query %+v: frame %+v, json %+v", qs[i], got, want)
			}
			if frameOut[i] != direct[i] {
				t.Fatalf("query %+v: frame %v/%v, engine %v/%v", qs[i],
					frameOut[i].Action, frameOut[i].Signal, direct[i].Action, direct[i].Signal)
			}
			checked++
		}
	}
	t.Logf("%d decisions parity-checked across frame, JSON, and in-process wires", checked)
}
