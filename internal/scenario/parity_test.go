package scenario

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// knobParity runs the observed-world builtin with every site-month hot
// — so every crawl wave is real HTTP under the knob — once on the
// default path and once with a compatibility knob forcing the legacy
// path, asserting the entire result (monthly metrics, verdicts, totals)
// is identical.
func knobParity(t *testing.T, setLegacy func(bool)) {
	if testing.Short() {
		t.Skip("full scenario parity run in -short mode")
	}
	spec := Observed(11, 8, 12)
	opts := TierOptions{HotSites: spec.Sites, Workers: 4}
	fast := runJSON(t, spec, opts)
	setLegacy(true)
	defer setLegacy(false)
	if legacy := runJSON(t, spec, opts); string(legacy) != string(fast) {
		t.Errorf("results diverged:\ndefault: %s\nlegacy:  %s", fast, legacy)
	}
}

// TestKeepAliveParityObservedScenario: pooled keep-alive transport vs
// the old per-request dial. Pins that transport pooling changed no
// measured byte.
func TestKeepAliveParityObservedScenario(t *testing.T) {
	knobParity(t, netsim.SetLegacyPerRequestDial)
}

// TestFastHTTPParityObservedScenario: the netsim-native fast HTTP path
// vs stdlib net/http on both client and servers. The broadest parity
// check: crawls, blockers, 421s from the farm, and site churn all run
// over the hand-rolled framing.
func TestFastHTTPParityObservedScenario(t *testing.T) {
	knobParity(t, netsim.SetLegacyNetHTTP)
}

// TestFarmHostingParityObservedScenario: per-worker virtual-host farms
// vs a dedicated server per site. Hot sites join and leave the farm
// every month, so this also pins the StartSite/Remove lifecycle against
// the measurement contract.
func TestFarmHostingParityObservedScenario(t *testing.T) {
	knobParity(t, webserver.SetLegacyPerSiteHosting)
}
