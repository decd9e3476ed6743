package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/netsim"
	"repro/internal/policyd"
	"repro/internal/stats"
)

// The serving experiment registers after the scenario experiments (this
// file sorts after scenario.go), so existing output order is unchanged.
func init() {
	register(Experiment{"policy-service-throughput", "policyd: the corpus served as an online decision API with hot reload", runPolicyService})
}

// policyWorkloadBatches / policyWorkloadBatchSize size the deterministic
// replay the experiment drives through the HTTP API. Timing claims live
// in cmd/loadgen and the benchmarks; this experiment pins the serving
// semantics (decision mix, hot reload, parity) in a golden-able form.
const (
	policyWorkloadBatches   = 64
	policyWorkloadBatchSize = 32
)

// runPolicyService compiles the shared corpus into two policyd
// snapshots — the GPTBot-announcement month and the final month —
// serves the first over netsim HTTP, replays a fixed zipf-ish workload,
// hot-swaps to the second under the same service, and replays the same
// workload again. The decision-mix shift between the two replays is the
// corpus's §3 adoption story read through the serving layer.
func runPolicyService(ctx context.Context, env *Env) (*Result, error) {
	early, err := env.policySnapshot(ctx, corpus.GPTBotAnnouncedIndex)
	if err != nil {
		return nil, err
	}
	late, err := env.policySnapshot(ctx, len(corpus.Snapshots)-1)
	if err != nil {
		return nil, err
	}
	c, err := env.Corpus(ctx)
	if err != nil {
		return nil, err
	}

	svc := policyd.NewService(early)
	nw := netsim.New()
	release, err := nw.Handle("203.0.113.90", 80, policyd.NewHandler(svc))
	if err != nil {
		return nil, err
	}
	defer release()
	nw.Register("policyd.test", "203.0.113.90")
	client := nw.HTTPClient("198.51.100.90")

	// A fixed workload drawn from the corpus domains: top-tier sites
	// (which Sites() lists first) are queried more, agents rotate
	// through a crawler mix. Derived from the run's seed, so the replay
	// is deterministic and the golden locks it down.
	agentsMix := []string{"GPTBot", "ClaudeBot", "CCBot", "Bytespider", "Googlebot"}
	paths := []string{"/", "/about.html", "/images/art.png", "/gallery/piece.jpg", "/admin/panel"}
	sites := c.Sites()
	rn := stats.NewRand(env.Config.Seed).Fork("policy-service")
	batches := make([][]policyd.Query, policyWorkloadBatches)
	for i := range batches {
		qs := make([]policyd.Query, policyWorkloadBatchSize)
		for j := range qs {
			// Square the uniform draw to skew toward popular (top-tier)
			// domains, a cheap stand-in for the loadgen zipf.
			u := rn.Float64()
			host := sites[int(u*u*float64(len(sites)))%len(sites)].Domain
			qs[j] = policyd.Query{
				Host:  host,
				Agent: agentsMix[rn.Intn(len(agentsMix))],
				Path:  paths[rn.Intn(len(paths))],
			}
		}
		batches[i] = qs
	}

	replay := func() (map[string]int, error) {
		mix := make(map[string]int)
		for _, qs := range batches {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			body, err := json.Marshal(policyd.BatchRequest{Queries: qs})
			if err != nil {
				return nil, err
			}
			resp, err := client.Post("http://policyd.test/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			var br policyd.BatchResponse
			err = json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if len(br.Decisions) != len(qs) {
				return nil, fmt.Errorf("policy-service: batch returned %d of %d decisions", len(br.Decisions), len(qs))
			}
			for _, d := range br.Decisions {
				mix[d.Action]++
				mix["signal:"+d.Signal]++
			}
		}
		return mix, nil
	}

	earlyMix, err := replay()
	if err != nil {
		return nil, err
	}
	// Hot reload: atomically swap the serving snapshot mid-flight, the
	// way a production rule push lands, and replay the same workload.
	svc.Swap(late)
	lateMix, err := replay()
	if err != nil {
		return nil, err
	}

	total := policyWorkloadBatches * policyWorkloadBatchSize
	row := func(key string) []string {
		return []string{key, count(earlyMix[key]), count(lateMix[key])}
	}
	mixTable := &Table{
		Headers: []string{"decision", corpus.Snapshots[corpus.GPTBotAnnouncedIndex].ID, corpus.Snapshots[len(corpus.Snapshots)-1].ID},
		Rows: [][]string{
			row("allow"), row("deny"), row("block"),
		},
	}
	signalTable := &Table{
		Headers: []string{"winning signal", corpus.Snapshots[corpus.GPTBotAnnouncedIndex].ID, corpus.Snapshots[len(corpus.Snapshots)-1].ID},
	}
	for _, sig := range []string{"none", "blocker", "robots-agent", "robots-wildcard", "ai-txt", "meta"} {
		signalTable.Rows = append(signalTable.Rows, row("signal:"+sig))
	}

	st := svc.Stats()
	return &Result{
		ID:    "policy-service-throughput",
		Title: "Crawl-policy decision service over the longitudinal corpus",
		Sections: []Section{
			{
				Heading: fmt.Sprintf("Decision mix for a fixed %d-query workload (%d-query batches over netsim HTTP)", total, policyWorkloadBatchSize),
				Table:   mixTable,
				Notes: []string{
					fmt.Sprintf("served %d hosts; %d decisions answered, snapshot hot-swapped once mid-run", st.Hosts, st.Queries),
					"denials grow between the two snapshots because robots.txt adoption surges after the GPTBot announcement (§3.2)",
				},
			},
			{
				Heading: "Winning signal (precedence: blocker > robots explicit > robots wildcard > ai.txt > meta)",
				Table:   signalTable,
				Notes: []string{
					"decision parity with direct robots.Match/measure classification is pinned by internal/policyd's corpus parity test",
					"throughput and latency come from the serving workloads of the benchmark of record (bench/) and from cmd/loadgen",
				},
			},
		},
	}, nil
}
