package webserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
)

// TestFastServerMatchesStdlibServer is the farm's HTTP oracle: one farm
// answers the same request sequence in-process through the netsim
// client, and over the wire to serveWire's stock http.Server through a
// stock http.Transport, and every response (status, content type, body
// bytes) and every log record must be equal.
func TestFastServerMatchesStdlibServer(t *testing.T) {
	const fastIP = "203.0.113.250"
	nw := netsim.New()
	farm := newFarm(t, nw, fastIP)
	serveWire(t, nw, farm)

	content := WildcardDisallowSite("diff-a.test", fastIP)
	content.Pages["/big.html"] = Page{Body: "<html>" + strings.Repeat("0123456789abcdef", 640) + "</html>"}
	content.Pages["/a b.html"] = Page{Body: "<html>escaped</html>"}
	blocked := Config{Domain: "diff-b.test", IP: fastIP, Pages: ContentPages("diff-b.test")}
	blocked.Blocker = BlockerFunc(func(r *http.Request) *BlockDecision {
		if strings.Contains(r.UserAgent(), "Bytespider") {
			return &BlockDecision{Status: 403, Body: "<html>blocked</html>"}
		}
		return nil
	})
	sites := map[string]*Site{}
	for _, cfg := range []Config{content, blocked} {
		s, err := farm.StartSite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites[cfg.Domain] = s
	}

	type request struct {
		method, host, target, ua string
		want                     int
		body                     string
		close                    bool
	}
	requests := []request{
		{method: "GET", host: "diff-a.test", target: "/robots.txt", ua: "GPTBot/1.0", want: 200},
		{method: "GET", host: "diff-a.test", target: "/", ua: "GPTBot/1.0", want: 200},
		{method: "GET", host: "DIFF-A.test:80", target: "/gallery.html?page=2", ua: "GPTBot/1.0", want: 200},
		{method: "GET", host: "diff-a.test", target: "/a%20b.html", ua: "GPTBot/1.0", want: 200},
		{method: "GET", host: "diff-a.test", target: "/big.html", ua: "GPTBot/1.0", want: 200},
		{method: "GET", host: "diff-a.test", target: "/images/art1.png", want: 200}, // default Go user agent
		{method: "HEAD", host: "diff-a.test", target: "/about.html", ua: "ClaudeBot/1.0", want: 200},
		{method: "GET", host: "diff-a.test", target: "/missing", ua: "ClaudeBot/1.0", want: 404},
		{method: "POST", host: "diff-a.test", target: "/", ua: "ClaudeBot/1.0", want: 200, body: strings.Repeat("x", 70<<10)},
		{method: "GET", host: "diff-b.test", target: "/robots.txt", ua: "CCBot/2.0", want: 404},
		{method: "GET", host: "diff-b.test", target: "/", ua: "Bytespider/1.0", want: 403},
		{method: "GET", host: "ghost.test", target: "/", ua: "CCBot/2.0", want: 421}, // logged nowhere
		{method: "GET", host: "diff-b.test", target: "/blog/post1.html", ua: "CCBot/2.0", want: 200, close: true},
		{method: "GET", host: "diff-b.test", target: "/", ua: "CCBot/2.0", want: 200}, // after the close: a fresh conn
	}

	// drive sends the sequence through client and returns what came back
	// (one line per response) and what each site logged for it.
	drive := func(client *http.Client) ([]string, map[string][]Record) {
		marks := map[string]int{}
		for name, s := range sites {
			marks[name] = s.LogLen()
		}
		var got []string
		for i, rq := range requests {
			var body io.Reader
			if rq.body != "" {
				body = strings.NewReader(rq.body)
			}
			req, err := http.NewRequest(rq.method, "http://"+fastIP+rq.target, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Host = rq.host
			req.Close = rq.close
			if rq.ua != "" {
				req.Header.Set("User-Agent", rq.ua)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("request %d (%s %s): %v", i, rq.method, rq.target, err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != rq.want {
				t.Fatalf("request %d (%s %s): status %d, want %d; body error %v",
					i, rq.method, rq.target, resp.StatusCode, rq.want, err)
			}
			got = append(got, fmt.Sprintf("%d %s %q", resp.StatusCode, resp.Header.Get("Content-Type"), b))
		}
		// Close the stock client's pooled conns before the logs are read.
		client.CloseIdleConnections()
		logs := map[string][]Record{}
		for name, s := range sites {
			logs[name] = s.LogSince(marks[name])
		}
		return got, logs
	}

	var dialed atomic.Int64
	fastResp, fastLogs := drive(nw.HTTPClient("198.51.100.120"))
	stdResp, stdLogs := drive(stockClient(nw, "198.51.100.120", &dialed))
	for i, rq := range requests {
		if fastResp[i] != stdResp[i] {
			t.Errorf("request %d (%s %s):\nin-process: %.200s\nover wire:  %.200s", i, rq.method, rq.target, fastResp[i], stdResp[i])
		}
	}
	for name := range sites {
		f, s := fastLogs[name], stdLogs[name]
		if len(f) == 0 || len(f) != len(s) {
			t.Fatalf("%s: logged %d records in-process, %d over the wire", name, len(f), len(s))
		}
		for i := range f {
			if f[i] != s[i] {
				t.Errorf("%s record %d: in-process %+v, over the wire %+v", name, i, f[i], s[i])
			}
		}
	}
}
