package policyd

import (
	"testing"
)

// FuzzFrameDecode throws arbitrary payloads at the request and response
// decoders: any input must either decode (and then re-encode losslessly)
// or return an error — never panic. This is the boundary a hostile
// frame peer can reach before the connection is dropped.
func FuzzFrameDecode(f *testing.F) {
	seedQ, err := AppendQueryFrame(nil, []Query{
		{Host: "a.test", Agent: "GPTBot", Path: "/"},
		{Host: "b.test", Agent: "ClaudeBot", Path: "/images/art.png"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedQ[4:])
	seedD := AppendDecisionFrameV2(nil, []Decision{{Allow, SignalNone}, {Block, SignalBlocker}}, "2023-40")
	f.Add(seedD[4:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 0, 5, 0, 'a'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if qs, err := DecodeQueryPayload(payload, nil); err == nil {
			re, err := AppendQueryFrame(nil, qs)
			if err != nil {
				t.Fatalf("decoded queries do not re-encode: %v", err)
			}
			back, err := DecodeQueryPayload(re[4:], nil)
			if err != nil || len(back) != len(qs) {
				t.Fatalf("re-encoded queries do not round-trip: %d vs %d, %v", len(back), len(qs), err)
			}
		}
		if ds, version, err := DecodeResponsePayloadV2(payload, nil); err == nil {
			re := AppendDecisionFrameV2(nil, ds, version)
			back, backVersion, err := DecodeResponsePayloadV2(re[4:], nil)
			if err != nil || len(back) != len(ds) || backVersion != version {
				t.Fatalf("re-encoded response does not round-trip: %d vs %d decisions, version %q vs %q, %v",
					len(back), len(ds), backVersion, version, err)
			}
		}
	})
}
