package netsim_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestMetricsHandlerOverNetsim proves the obs /metrics handler is
// servable inside the simulated network, not just on real TCP: an
// in-sim operator can scrape any simulated daemon. It serves the
// handler as the simulated daemons do, bound with Network.Handle, reads
// it through the netsim client and checks the client's request counter
// advances.
func TestMetricsHandlerOverNetsim(t *testing.T) {
	nw := netsim.New()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	release, err := nw.Handle("10.9.0.1", 80, mux)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	client := nw.HTTPClient("10.9.0.99")
	resp, err := client.Get("http://10.9.0.1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := string(body)
	if !strings.Contains(out, "netsim_http_requests_total") {
		t.Error("netsim-served /metrics missing family netsim_http_requests_total")
	}
	// The scrape itself rode the netsim client, so the request counter
	// cannot be zero in its own output... but the output snapshot was
	// taken mid-request. Scrape again and check the counter moved.
	resp2, err := client.Get("http://10.9.0.1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var line string
	for _, l := range strings.Split(string(body2), "\n") {
		if strings.HasPrefix(l, "netsim_http_requests_total ") {
			line = l
		}
	}
	if line == "" {
		t.Fatal("second scrape missing the client request counter series")
	}
	if strings.HasSuffix(line, " 0") {
		t.Fatalf("client request counter still zero after scraping over netsim: %q", line)
	}
}
