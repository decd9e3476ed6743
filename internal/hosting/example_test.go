package hosting

import (
	"fmt"
	"strings"

	"repro/internal/robots"
)

// An artist compares what each of Table 2's providers lets them do about
// AI crawlers (§4.4), then sees what Squarespace's one-click AI toggle
// changes for actual crawler access.
func Example_artistSite() {
	fmt.Println("An artist shopping for a portfolio host, AI protection edition")
	fmt.Println()
	fmt.Printf("%-17s %-12s %-13s %s\n", "provider", "control", "AI by default", "notes")
	for _, p := range providers {
		rb := robots.ParseString(p.robotsTxt(false))
		defaultBlocked := "no"
		if lvl, ok := rb.ExplicitRestriction("GPTBot"); ok && lvl.Restricted() {
			defaultBlocked = "yes"
		}
		fmt.Printf("%-17s %-12s %-13s %s\n", p.Name, p.Control, defaultBlocked, p.ToSAITraining)
	}

	// The artist picks Squarespace and flips the AI toggle (Figure 5).
	sq, _ := providerByName("Squarespace")
	indent := func(s string) string {
		var b strings.Builder
		for _, line := range strings.SplitAfter(s, "\n") {
			if line != "\n" && line != "" {
				b.WriteString("    ")
			}
			b.WriteString(line)
		}
		return b.String()
	}
	fmt.Println("\nSquarespace robots.txt with the AI toggle OFF:")
	fmt.Print(indent(sq.robotsTxt(false)))
	fmt.Println("\nSquarespace robots.txt with the AI toggle ON:")
	fmt.Print(indent(sq.robotsTxt(true)))

	// What does the toggle change for actual crawlers?
	fmt.Println("\ncrawler access to /gallery/new-piece.png:")
	fmt.Printf("%-15s %-12s %s\n", "crawler", "toggle off", "toggle on")
	verdict := func(rb *robots.Robots, ua string) string {
		if rb.Allowed(ua, "/gallery/new-piece.png") {
			return "allowed"
		}
		return "disallowed"
	}
	off := robots.ParseString(sq.robotsTxt(false))
	on := robots.ParseString(sq.robotsTxt(true))
	for _, ua := range []string{"GPTBot", "anthropic-ai", "PerplexityBot", "Googlebot", "Bytespider"} {
		fmt.Printf("%-15s %-12s %s\n", ua, verdict(off, ua), verdict(on, ua))
	}
	fmt.Println("\nnote: Bytespider stays 'allowed' either way only on paper — §5 shows")
	fmt.Println("it ignores robots.txt, which is why §6's active blocking exists.")

	// And the population-level view: Table 2.
	fmt.Println("\nTable 2 regenerated over the 1,182-site artist population:")
	for _, row := range Table2(GeneratePopulation(0, 1)) {
		fmt.Printf("  %-17s %5.1f%% of sites   %-12s %5.1f%% disallow AI\n",
			row.Provider, row.SharePct, row.Control, row.DisallowAIPct)
	}
	// Output:
	// An artist shopping for a portfolio host, AI protection edition
	//
	// provider          control      AI by default notes
	// Squarespace       No (AI, SE)  no            not addressed
	// ArtStation        No           no            no generative-AI licensing of user content
	// Wix (Paid)        Yes          no            may train service-improvement AI tools on user content
	// Adobe Portfolio   No (SE)      no            no generative-AI training on user content
	// Wix (Free)        No           no            may train service-improvement AI tools on user content
	// Weebly            No (SE)      no            not addressed
	// Shopify           No           no            not addressed
	// Carbonmade        No           yes           ToS bars scraping content from the site
	//
	// Squarespace robots.txt with the AI toggle OFF:
	//     # robots.txt served by Squarespace
	//
	//     User-agent: *
	//     Disallow: /config
	//     Disallow: /search
	//     Disallow: /account
	//
	// Squarespace robots.txt with the AI toggle ON:
	//     # robots.txt served by Squarespace
	//
	//     User-agent: *
	//     Disallow: /config
	//     Disallow: /search
	//     Disallow: /account
	//
	//     User-agent: GPTBot
	//     User-agent: ChatGPT-User
	//     User-agent: CCBot
	//     User-agent: anthropic-ai
	//     User-agent: Google-Extended
	//     User-agent: FacebookBot
	//     User-agent: Claude-Web
	//     User-agent: cohere-ai
	//     User-agent: PerplexityBot
	//     User-agent: Applebot-Extended
	//     Disallow: /
	//
	// crawler access to /gallery/new-piece.png:
	// crawler         toggle off   toggle on
	// GPTBot          allowed      disallowed
	// anthropic-ai    allowed      disallowed
	// PerplexityBot   allowed      disallowed
	// Googlebot       allowed      allowed
	// Bytespider      allowed      allowed
	//
	// note: Bytespider stays 'allowed' either way only on paper — §5 shows
	// it ignores robots.txt, which is why §6's active blocking exists.
	//
	// Table 2 regenerated over the 1,182-site artist population:
	//   Squarespace        20.7% of sites   No (AI, SE)   13.9% disallow AI
	//   ArtStation         20.4% of sites   No             0.0% disallow AI
	//   Wix (Paid)          9.3% of sites   Yes            0.0% disallow AI
	//   Adobe Portfolio     4.8% of sites   No (SE)        0.0% disallow AI
	//   Wix (Free)          3.5% of sites   No             0.0% disallow AI
	//   Weebly              3.1% of sites   No (SE)        0.0% disallow AI
	//   Shopify             1.7% of sites   No             0.0% disallow AI
	//   Carbonmade          1.5% of sites   No           100.0% disallow AI
}
