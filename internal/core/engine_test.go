package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tinyConfig keeps the full registry runnable several times per test.
func tinyConfig() Config {
	return Config{
		Seed:            31,
		Scale:           0.02,
		BlockingSites:   150,
		CloudflareSites: 120,
		Apps:            30,
		Workers:         8,
	}
}

// TestRunAllParallelMatchesSequential is the engine's headline
// guarantee: a parallel run emits byte-identical output to a sequential
// run, for every registered experiment.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig()

	var seq bytes.Buffer
	if _, err := RunAll(ctx, cfg, Options{Parallelism: 1, Sink: markdownSink{&seq}}); err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{4, 16} {
		var par bytes.Buffer
		if _, err := RunAll(ctx, cfg, Options{Parallelism: parallelism, Sink: markdownSink{&par}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Fatalf("parallelism %d output diverges from sequential (%d vs %d bytes)",
				parallelism, par.Len(), seq.Len())
		}
	}
	if seq.Len() == 0 {
		t.Fatal("sequential run produced no output")
	}
}

func TestRunAllResultsInRegistrationOrder(t *testing.T) {
	ctx := context.Background()
	// IDs deliberately out of registration order; a fast subset.
	results, err := RunAll(ctx, tinyConfig(), Options{
		Parallelism: 4,
		IDs:         []string{"survey-headline", "table2", "noai-meta", "survey-demographics"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table2", "survey-demographics", "survey-headline", "noai-meta"}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for i, id := range want {
		if results[i].ID != id {
			t.Errorf("result %d = %s, want %s", i, results[i].ID, id)
		}
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll(context.Background(), tinyConfig(), Options{IDs: []string{"nonsense"}}); err == nil {
		t.Fatal("unknown id must fail the run before executing")
	}
}

// cancelAfterSink cancels the run's context once n results have been
// emitted.
type cancelAfterSink struct {
	cancel  context.CancelFunc
	after   int
	emitted int
}

func (s *cancelAfterSink) Emit(*Result) error {
	s.emitted++
	if s.emitted == s.after {
		s.cancel()
	}
	return nil
}
func (s *cancelAfterSink) Close() error { return nil }

func TestRunAllHonorsCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Run the full registry: the heavyweight experiments (blocking
	// survey, grey-box replay, ablations) cannot possibly finish in the
	// instant between the second emission and the cancellation, so some
	// result slots are guaranteed to be cancelled.
	sink := &cancelAfterSink{cancel: cancel, after: 2}
	results, err := RunAll(ctx, tinyConfig(), Options{
		Parallelism: 2,
		Sink:        sink,
	})
	if err == nil {
		t.Fatal("cancelled run must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	var completed int
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed == len(results) {
		t.Error("every experiment completed despite mid-run cancellation")
	}
}

func TestRunAllPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var emitted atomic.Int64
	results, err := RunAll(ctx, tinyConfig(), Options{Parallelism: 4, Sink: sinkFunc(func(*Result) error {
		emitted.Add(1)
		return nil
	})})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("result %d ran on a pre-cancelled context", i)
		}
	}
	if n := emitted.Load(); n != 0 {
		t.Errorf("%d results emitted on a pre-cancelled context", n)
	}
}

type sinkFunc func(*Result) error

func (f sinkFunc) Emit(r *Result) error { return f(r) }
func (sinkFunc) Close() error           { return nil }

func TestRunAllSinkError(t *testing.T) {
	broken := errors.New("disk full")
	calls := 0
	_, err := RunAll(context.Background(), tinyConfig(), Options{
		IDs: []string{"table2", "survey-headline", "noai-meta"},
		Sink: sinkFunc(func(*Result) error {
			calls++
			return broken
		}),
	})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the sink failure", err)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after failing, want 1", calls)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newMemoCache()
	var computed atomic.Int64
	var wg sync.WaitGroup
	const callers = 16
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("key", func() (any, error) {
				computed.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for _, v := range vals {
		if v != "value" {
			t.Fatalf("caller saw %v", v)
		}
	}
}

func TestCacheErrorEviction(t *testing.T) {
	c := newMemoCache()
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Do("k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("failed computation was cached: v=%v err=%v", v, err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink, err := NewSink("json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{ID: "demo", Title: "t", Sections: []Section{{
		Table: &Table{Headers: []string{"a"}, Rows: [][]string{{"1"}}},
	}}}
	if err := sink.Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("json sink wrote %d lines, want 2 (NDJSON)", len(lines))
	}
	for _, line := range lines {
		var got Result
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("invalid JSON line: %v\n%s", err, line)
		}
		if got.ID != "demo" || got.Sections[0].Table.Rows[0][0] != "1" {
			t.Fatalf("round-trip mismatch: %+v", got)
		}
	}
}

func TestNewSinkUnknownFormat(t *testing.T) {
	if _, err := NewSink("yaml", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format must error")
	}
	for _, f := range formats {
		if _, err := NewSink(f, &bytes.Buffer{}); err != nil {
			t.Errorf("format %s: %v", f, err)
		}
	}
}

// TestEnvSharedSubstrates verifies cross-experiment sharing: two
// experiments that consume the same substrate through one Env trigger a
// single build.
func TestEnvSharedSubstrates(t *testing.T) {
	ctx := context.Background()
	env := NewEnv(tinyConfig())
	c1, err := env.Corpus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := env.corpusAt(ctx, env.Config.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("Corpus and CorpusAt(default scale) must share one cache entry")
	}
	if p1, p2 := env.surveyPopulation(), env.surveyPopulation(); p1 != p2 {
		t.Fatal("survey population must be shared")
	}
}

func ExampleRunAll() {
	cfg := Config{Seed: 1, Scale: 0.01, BlockingSites: 60, CloudflareSites: 50, Apps: 10, Workers: 4}
	results, err := RunAll(context.Background(), cfg, Options{
		Parallelism: 4,
		IDs:         []string{"table3"},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(results[0].ID)
	// Output: table3
}

// TestRunAllSurveysBlockingOnce: the active-blocking experiment and the
// detector ablation share one §6.2 probe pass at any parallelism — the
// survey is the only substrate either builds, so the Env holds exactly
// one entry — and every experiment that ran records one wall-time
// observation while the rest record none.
func TestRunAllSurveysBlockingOnce(t *testing.T) {
	ids := []string{"active-blocking", "ablation-detector"}
	for _, parallelism := range []int{1, 2} {
		before := make(map[string]uint64)
		for _, e := range Experiments() {
			before[e.ID] = wallClock(e.ID).Snapshot().Count
		}
		env := NewEnv(tinyConfig())
		if _, err := env.runAll(context.Background(), Options{Parallelism: parallelism, IDs: ids}); err != nil {
			t.Fatal(err)
		}
		if n := env.cache.Len(); n != 1 {
			t.Errorf("parallelism %d: %d substrates built, want the one blocking survey", parallelism, n)
		}
		for _, e := range Experiments() {
			want := uint64(0)
			if e.ID == ids[0] || e.ID == ids[1] {
				want = 1
			}
			if got := wallClock(e.ID).Snapshot().Count - before[e.ID]; got != want {
				t.Errorf("parallelism %d: %s recorded %d wall observations, want %d", parallelism, e.ID, got, want)
			}
		}
	}
}
