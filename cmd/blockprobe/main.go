// Command blockprobe runs the paper's §6 active-blocking measurements:
// the user-agent differential survey over a simulated top-site population
// (§6.2) and the Cloudflare Block-AI-Bots inference (§6.3 / Figure 7).
//
// Usage:
//
//	blockprobe                 # §6.2 survey at 10k sites
//	blockprobe -sites 1000     # smaller population
//	blockprobe -cloudflare     # §6.3 inference survey instead
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/blocking"
	"repro/internal/proxy"
	"repro/internal/stats"
)

func main() {
	var (
		sites      = flag.Int("sites", 10_000, "population size")
		cloudflare = flag.Bool("cloudflare", false, "run the §6.3 Cloudflare inference survey")
		workers    = flag.Int("workers", 64, "probe workers (par.Do, clamped to GOMAXPROCS; <= 1 probes on one goroutine)")
		seed       = flag.Int64("seed", stats.DefaultSeed, "random seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cloudflare {
		n := *sites
		if n == 10_000 {
			n = 2_018 // the paper's Cloudflare population
		}
		res, err := proxy.RunInferenceSurvey(ctx, n, *seed, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blockprobe: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Cloudflare Block AI Bots inference over %d proxied sites (Figure 7)\n", res.Total)
		fmt.Printf("  off:          %5d (%.2f%%)\n", res.Off, stats.Percent(res.Off, res.Total))
		fmt.Printf("  on/block:     %5d (%.2f%%)\n", res.OnBlock, stats.Percent(res.OnBlock, res.Total))
		fmt.Printf("  on/challenge: %5d (%.2f%%)\n", res.OnChallenge, stats.Percent(res.OnChallenge, res.Total))
		fmt.Printf("  inconclusive: %5d (%.2f%%)\n", res.Inconclusive, stats.Percent(res.Inconclusive, res.Total))
		fmt.Printf("  conclusive rate %.1f%%, adoption among conclusive %.1f%%\n",
			100*res.ConclusiveRate(), 100*res.OnRate())
		fmt.Printf("  robots.txt AI restrictions: %.0f%% of enabled sites vs %.0f%% of others\n",
			100*res.OnRobotsRate, 100*res.OffRobotsRate)
		return
	}

	tallies, err := blocking.RunSurvey(ctx, *sites, *seed, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blockprobe: %v\n", err)
		os.Exit(1)
	}
	res := tallies.Under(blocking.DefaultDetector)
	fmt.Printf("Active-blocking survey over %d sites (§6.2)\n", res.Probed)
	fmt.Printf("  inherently block automation: %5d (%.1f%%)\n",
		res.InherentlyBlocked, stats.Percent(res.InherentlyBlocked, res.Probed))
	fmt.Printf("  actively block AI agents:    %5d (%.1f%%)\n",
		res.ActiveBlockers, stats.Percent(res.ActiveBlockers, res.Probed))
	fmt.Printf("  blockers also using robots.txt: %d (%.1f%% of blockers)\n",
		res.RobotsOverlap, stats.Percent(res.RobotsOverlap, res.ActiveBlockers))
}
