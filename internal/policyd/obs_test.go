package policyd

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func buildSnap(t *testing.T, version, robots string) *Snapshot {
	t.Helper()
	b := &Builder{}
	b.Add("a.test", HostConfig{RobotsTxt: robots})
	b.Add("b.test", HostConfig{Blocklist: []string{"GPTBot"}})
	snap, err := b.Build(context.Background(), version, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// decisionTotal sums the whole action×signal counter matrix.
func decisionTotal() uint64 {
	var sum uint64
	for a := allow; a <= Block; a++ {
		for sig := signalNone; sig <= signalMeta; sig++ {
			sum += mDecisions[a][sig].Value()
		}
	}
	return sum
}

// TestDecisionCountersAcrossSwap hammers single-query and batched
// Answer calls from several goroutines while another goroutine hot-swaps snapshots, then
// checks the decision matrix advanced by exactly the number of
// decisions issued: counters must neither double-count nor tear when a
// reload races the hot path. Run under -race in CI.
func TestDecisionCountersAcrossSwap(t *testing.T) {
	snapA := buildSnap(t, "swap-a", "User-agent: *\nDisallow: /private/\n")
	snapB := buildSnap(t, "swap-b", "User-agent: *\nDisallow: /\n")
	svc := NewService(snapA)
	ctx := context.Background()

	before := decisionTotal()
	beforeSwaps := mSwaps.Value()

	const (
		workers   = 4
		perWorker = 5000
		batchLen  = 16
	)
	queries := []Query{
		{Host: "a.test", Agent: "GPTBot", Path: "/private/x"},
		{Host: "a.test", Agent: "ClaudeBot", Path: "/"},
		{Host: "b.test", Agent: "GPTBot", Path: "/"},
		{Host: "missing.test", Agent: "GPTBot", Path: "/"},
	}

	done := make(chan struct{})
	var swaps int
	var swapperWg sync.WaitGroup
	swapperWg.Add(1)
	go func() {
		defer swapperWg.Done()
		cur := snapB
		for {
			select {
			case <-done:
				return
			default:
			}
			svc.Swap(cur)
			swaps++
			if cur == snapA {
				cur = snapB
			} else {
				cur = snapA
			}
		}
	}()

	var issued uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n uint64
			batch := make([]Query, batchLen)
			out := make([]Decision, 0, batchLen)
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					q := (w + i) % len(queries)
					out, _, _ = svc.Answer(ctx, queries[q:q+1], out[:0])
					n++
				} else {
					for j := range batch {
						batch[j] = queries[(w+i+j)%len(queries)]
					}
					out, _, _ = svc.Answer(ctx, batch, out[:0])
					n += batchLen
				}
			}
			mu.Lock()
			issued += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(done)
	swapperWg.Wait()

	delta := decisionTotal() - before
	if delta != issued {
		t.Fatalf("decision matrix advanced by %d, issued %d (double count or tear across %d swaps)",
			delta, issued, swaps)
	}
	if got := mSwaps.Value() - beforeSwaps; got != uint64(swaps) {
		t.Fatalf("swap counter advanced by %d, performed %d", got, swaps)
	}
	if swaps == 0 {
		t.Fatal("swapper never ran; test proved nothing")
	}
}

// TestWireCountersRegistered spot-checks the policyd families render in
// the Default registry output.
func TestWireCountersRegistered(t *testing.T) {
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"policyd_decisions_total", "policyd_batch_size", "policyd_snapshot_swaps_total",
		"policyd_compile_duration_ns", "policyd_wire_requests_total",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("Default registry missing family %s", fam)
		}
	}
}
