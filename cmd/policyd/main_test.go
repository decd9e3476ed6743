package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/policyd"
	"repro/internal/stats"
)

func TestParseReplicas(t *testing.T) {
	for _, c := range []struct {
		spec    string
		want    []fleet.ReplicaConfig
		wantErr string
	}{
		{
			spec: "localhost:8473",
			want: []fleet.ReplicaConfig{{Name: "policyd-0@localhost:8473", FrameAddr: "localhost:8474"}},
		},
		{
			spec: "10.0.0.1:8473:9000, 10.0.0.2:8483",
			want: []fleet.ReplicaConfig{
				{Name: "policyd-0@10.0.0.1:8473", FrameAddr: "10.0.0.1:9000"},
				{Name: "policyd-1@10.0.0.2:8483", FrameAddr: "10.0.0.2:8484"},
			},
		},
		{spec: "h:1:2:3", wantErr: "host:json:frame"},
		{spec: "h", wantErr: "host:json:frame"},
		{spec: "h:x", wantErr: `bad port "x"`},
		{spec: "h:1:y", wantErr: `bad port "y"`},
		{spec: "h:80x", wantErr: `bad port "80x"`},
		{spec: "h:-5", wantErr: `bad port "-5"`},
		{spec: "h:99999999", wantErr: `bad port "99999999"`},
		{spec: "h:1:0", wantErr: `bad port "0"`},
		{spec: "h:65535", wantErr: "frame port 65536 out of range"},
		{spec: " , ", wantErr: "-replicas is required"},
	} {
		got, err := parseReplicas(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseReplicas(%q) err %v, want one mentioning %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseReplicas(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
}

// TestReplicaAndGateway boots a replica and a gateway in front of it
// in-process on loopback, each on ports the kernel picks, and reads
// their bound addresses from the start lines. One decision through each
// of the gateway's wires equals the replica's own answer, the gateway
// serves the profiler on its metrics listener, and canceling ctx ends
// both runs with exit 0 and each role's exit lines: the replica served
// three decisions, its own answer and the gateway's two, and the gateway
// routed two batches and prints its quota ledger.
func TestReplicaAndGateway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	replica := boot(ctx, "-addr", "127.0.0.1:0", "-frame-addr", "127.0.0.1:0", "-scale", "0.01")
	replicaJSON := replica.addr(t, "serving")
	_, framePort, err := net.SplitHostPort(replica.addr(t, "frame protocol"))
	if err != nil {
		t.Fatal(err)
	}
	gateway := boot(ctx, "-addr", "127.0.0.1:0", "-frame-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-replicas", replicaJSON+":"+framePort)
	gatewayJSON, gatewayFrame := gateway.addr(t, "serving"), gateway.addr(t, "frame protocol")

	c, err := corpus.New(ctx, corpus.Config{Seed: stats.DefaultSeed, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	qs := []policyd.Query{{Host: c.Sites()[0].Domain, Agent: "GPTBot", Path: "/"}}
	client := &http.Client{Timeout: 10 * time.Second}
	want, wantVersion, err := (&policyd.JSONClient{Client: client, URL: "http://" + replicaJSON}).Answer(ctx, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", gatewayFrame)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := policyd.NewFrameClientV2(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	for wire, a := range map[string]policyd.Answerer{
		"json":  &policyd.JSONClient{Client: client, URL: "http://" + gatewayJSON},
		"frame": fc,
	} {
		got, version, err := a.Answer(ctx, qs, nil)
		if err != nil || !reflect.DeepEqual(got, want) || version != wantVersion {
			t.Errorf("gateway %s wire: %+v at %q, %v; the replica answers %+v at %q", wire, got, version, err, want, wantVersion)
		}
	}
	resp, err := client.Get("http://" + gateway.addr(t, "metrics and pprof") + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("gateway /debug/pprof/: %s", resp.Status)
	}

	cancel()
	for _, d := range []struct {
		*daemon
		bye string
	}{{replica, "policyd: served 3 decisions from "}, {gateway, "policyd: routed 2 batches at fleet version "}} {
		if code := d.wait(t); code != 0 {
			t.Errorf("exit %d after cancel:\n%s", code, d.stderr.String())
		}
		if !strings.Contains(d.stderr.String(), d.bye) {
			t.Errorf("stderr lacks %q:\n%s", d.bye, d.stderr.String())
		}
	}
	if _, ledger, _ := strings.Cut(gateway.stderr.String(), "; bye\n"); !json.Valid([]byte(ledger)) || !strings.Contains(ledger, `"GPTBot"`) {
		t.Errorf("the gateway's exit ledger is not the quota JSON:\n%s", ledger)
	}
}

// TestRefusesOtherRolesFlags: each flag that only the other role reads,
// and a -snap that names no corpus snapshot, fails the command line with
// exit 2, before any corpus is built or any port bound.
func TestRefusesOtherRolesFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-replicas", "127.0.0.1:1", "-seed", "7"},
		{"-replicas", "127.0.0.1:1", "-scale", "0.1"},
		{"-replicas", "127.0.0.1:1", "-snap", "3"},
		{"-replicas", "127.0.0.1:1", "-advance", "1s"},
		{"-replicas", "127.0.0.1:1", "-workers", "2"},
		{"-rate", "100"},
		{"-burst", "100"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), &stderr, args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if flag := args[len(args)-2]; !strings.Contains(stderr.String(), flag+" is a ") {
			t.Errorf("%v: stderr does not name %s: %s", args, flag, stderr.String())
		}
	}
	// A -snap outside the corpus's snapshots fails the same way.
	for _, snap := range []string{"99", "-1"} {
		var stderr bytes.Buffer
		if code := run(context.Background(), &stderr, []string{"-snap", snap}); code != 2 || !strings.Contains(stderr.String(), "-snap "+snap) {
			t.Errorf("-snap %s: exit %d with stderr %q, want exit 2 naming the flag", snap, code, stderr.String())
		}
	}
}

// daemon is one run of the command in a goroutine.
type daemon struct {
	stderr syncBuffer
	code   chan int
}

func boot(ctx context.Context, args ...string) *daemon {
	d := &daemon{code: make(chan int, 1)}
	go func() { d.code <- run(ctx, &d.stderr, args) }()
	return d
}

// addr waits for the start line "policyd: <name>… on <addr>" and
// returns the address.
func (d *daemon) addr(t *testing.T, name string) string {
	t.Helper()
	re := regexp.MustCompile(`policyd: ` + regexp.QuoteMeta(name) + `.* on (\S+)\n`)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(d.stderr.String()); m != nil {
			return m[1]
		}
		select {
		case code := <-d.code:
			t.Fatalf("exit %d before %q:\n%s", code, name, d.stderr.String())
		default:
		}
	}
	t.Fatalf("no %q line within a minute:\n%s", name, d.stderr.String())
	return ""
}

// wait returns the run's exit code, failing the test if it takes over
// ten seconds.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case code := <-d.code:
		return code
	case <-time.After(10 * time.Second):
		t.Fatalf("run still serving 10 s after its ctx was canceled:\n%s", d.stderr.String())
		return 0
	}
}

// syncBuffer is a bytes.Buffer that run's goroutines and the test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
