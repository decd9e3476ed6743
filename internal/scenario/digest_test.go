package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

const digestFile = "testdata/result_digests.json"

var updateDigests = flag.Bool("update", false, "rewrite "+digestFile)

// digestWorlds is the frozen reference set: every built-in world capped
// at 24 sites (baseline-replay keeps its 2), the package's own testSpec,
// and the CI smoke spec.
func digestWorlds(t *testing.T) []Spec {
	worlds := Builtins()
	for i := range worlds {
		if worlds[i].Sites > 24 {
			worlds[i].Sites = 24
		}
	}
	smoke, err := LoadSpec("../../cmd/scenario/testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	return append(worlds, testSpec(), smoke)
}

// resultDigest is the SHA-256 of a marshalled Result.
func resultDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultDigests pins the absolute output of the engine per world,
// all-hot and all-cold. The digests were computed by the event-heap
// engine (scenario.Run) in the commit before it was deleted; regenerate
// only for an intended behaviour change, with:
//
//	go test ./internal/scenario -run TestResultDigests -update
func TestResultDigests(t *testing.T) {
	got := make(map[string]string)
	for _, spec := range digestWorlds(t) {
		got[spec.Name] = resultDigest(runJSON(t, spec, TierOptions{HotSites: spec.Sites, Workers: 2}))
		if cold := resultDigest(runJSON(t, spec, TierOptions{Workers: 2})); cold != got[spec.Name] {
			t.Errorf("%s: hot=0 digest %s, hot=all %s", spec.Name, cold, got[spec.Name])
		}
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("missing digest file (run with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d worlds ran, %s holds %d", len(got), digestFile, len(want))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}
}
