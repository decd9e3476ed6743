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
