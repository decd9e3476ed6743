package scenario

import (
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzParseSpec throws arbitrary bytes at parseSpec, the gate every
// spec file passes. A spec it accepts must plan (sites capped at 64, so
// the fuzzer probes the fields rather than the allocator) and resolve
// its roster without panicking; an error is fine anywhere.
func FuzzParseSpec(f *testing.F) {
	for _, sp := range Builtins() {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"huge","sites":10000000000000,"months":12}`))
	wide := Observed(1, 8, 2)
	wide.Crawlers = nil
	for i := 0; i <= maxRoster; i++ {
		wide.Crawlers = append(wide.Crawlers, CrawlerSpec{Token: fmt.Sprintf("Bot%d", i), Behavior: "compliant", Cadence: 1})
	}
	data, err := json.Marshal(wide)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data) // one roster entry past the bound
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := parseSpec(data)
		if err != nil {
			return
		}
		small := sp
		small.Sites = min(small.Sites, 64)
		SitePlans(small)
		resolveRoster(sp.withDefaults())
	})
}
