package policyd

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestPrerenderedDecisionsMatchEncoder pins the pre-rendered table to
// the bytes json.NewEncoder would stream for every (action, signal)
// pair — the exact wire form clients saw before the table existed.
func TestPrerenderedDecisionsMatchEncoder(t *testing.T) {
	for a := allow; a <= Block; a++ {
		for s := signalNone; s <= signalMeta; s++ {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(Decision{Action: a, Signal: s}.JSON()); err != nil {
				t.Fatal(err)
			}
			if got := decideResponses[a][s]; !bytes.Equal(got, want.Bytes()) {
				t.Errorf("(%v,%v): prerendered %q, encoder %q", a, s, got, want.Bytes())
			}
		}
	}
}

// TestBatchResponseMatchesEncoder pins the hand-built /v1/batch body to
// the bytes json.NewEncoder writes for the same BatchResponse: every
// (action, signal) pair in one batch, one decision, an empty batch, and
// out-of-range pairs, which miss the pre-rendered table.
func TestBatchResponseMatchesEncoder(t *testing.T) {
	var all []Decision
	for a := allow; a <= Block; a++ {
		for s := signalNone; s <= signalMeta; s++ {
			all = append(all, Decision{Action: a, Signal: s})
		}
	}
	outOfRange := []Decision{{Action: Block + 1}, all[3], {Signal: signalMeta + 1}}
	for _, ds := range [][]Decision{all, all[:1], nil, outOfRange} {
		resp := BatchResponse{Decisions: make([]DecisionJSON, len(ds))}
		for i, d := range ds {
			resp.Decisions[i] = d.JSON()
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendBatchResponse(nil, ds); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d decisions: built %q, encoder %q", len(ds), got, want.Bytes())
		}
	}
}

func TestWriteDecision(t *testing.T) {
	rec := httptest.NewRecorder()
	writeDecision(rec, Decision{Action: Deny, Signal: signalMeta})
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got DecisionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if got.Action != "deny" || got.Signal != "meta" {
		t.Errorf("decoded %+v", got)
	}

	// Out-of-range pairs fall back to the live encoder rather than
	// indexing past the table.
	rec = httptest.NewRecorder()
	writeDecision(rec, Decision{Action: Block + 1, Signal: signalMeta + 1})
	if !json.Valid(rec.Body.Bytes()) {
		t.Errorf("fallback body not JSON: %q", rec.Body.String())
	}
}
