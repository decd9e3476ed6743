package webserver

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestFastServerMatchesStdlibServer is the server half of the
// hand-rolled-HTTP oracle: one farm answers the same request sequence
// through its fast server and through net/http's server, and every
// response (status, content type, body bytes) and every log record must
// be equal. The 10 KB page makes net/http chunk where the fast server
// sends a Content-Length, so the client's two body framings are compared
// on the same bytes.
func TestFastServerMatchesStdlibServer(t *testing.T) {
	const fastIP, stdIP = "203.0.113.250", "203.0.113.251"
	nw := netsim.New()
	farm := newFarm(t, nw, fastIP)
	// Beside the farm's own fast server, a stock http.Server drives the
	// same dispatch — same sites, hosts table and logs — on a second
	// listener.
	ln, err := nw.Listen(stdIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	type connKey struct{}
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			farm.handleReq(r.Context().Value(connKey{}).(*farmConn), w, r)
		}),
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, connKey{}, farm.openConn(c))
		},
		ConnState: func(c net.Conn, st http.ConnState) {
			if st == http.StateClosed {
				farm.retireConn(c)
			}
		},
	}
	go srv.Serve(ln)
	defer srv.Close()

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

	// drive sends the sequence to the server at ip and returns what came
	// back (one line per response) and what each site logged for it.
	drive := func(ip string) ([]string, map[string][]Record) {
		marks := map[string]int{}
		for name, s := range sites {
			marks[name] = s.LogLen()
		}
		client := nw.HTTPClient("198.51.100.120")
		var got []string
		for i, rq := range requests {
			var body io.Reader
			if rq.body != "" {
				body = strings.NewReader(rq.body)
			}
			req, err := http.NewRequest(rq.method, "http://"+ip+rq.target, body)
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
				t.Fatalf("%s request %d (%s %s): %v", ip, i, rq.method, rq.target, err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != rq.want {
				t.Fatalf("%s request %d (%s %s): status %d, want %d; body error %v",
					ip, i, rq.method, rq.target, resp.StatusCode, rq.want, err)
			}
			got = append(got, fmt.Sprintf("%d %s %q", resp.StatusCode, resp.Header.Get("Content-Type"), b))
		}
		// Closing the pooled conns retires their shards into the sites'
		// fallback logs before the next arm starts.
		client.CloseIdleConnections()
		logs := map[string][]Record{}
		for name, s := range sites {
			logs[name] = s.LogSince(marks[name])
		}
		return got, logs
	}

	fastResp, fastLogs := drive(fastIP)
	stdResp, stdLogs := drive(stdIP)
	for i, rq := range requests {
		if fastResp[i] != stdResp[i] {
			t.Errorf("request %d (%s %s):\nfast server: %.200s\nnet/http:    %.200s", i, rq.method, rq.target, fastResp[i], stdResp[i])
		}
	}
	for name := range sites {
		f, s := fastLogs[name], stdLogs[name]
		if len(f) == 0 || len(f) != len(s) {
			t.Fatalf("%s: fast server logged %d records, net/http %d", name, len(f), len(s))
		}
		for i := range f {
			f[i].Time = s[i].Time // wall clock is not part of the contract
			if f[i] != s[i] {
				t.Errorf("%s record %d: fast server %+v, net/http %+v", name, i, f[i], s[i])
			}
		}
	}
}
