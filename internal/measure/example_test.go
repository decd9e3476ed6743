package measure_test

import (
	"context"
	"fmt"

	"repro/internal/measure"
	"repro/internal/stats"
)

// The §5.2.1 passive study as a site operator would audit it: who
// visited, what each crawler did with robots.txt, and whether its source
// address falls in its operator's published range (footnote 5).
func ExampleRunPassive() {
	passive, err := measure.RunPassive(context.Background(), stats.DefaultSeed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Passive measurement (six-month study, §5.2.1)")
	fmt.Printf("  crawlers observed: %d\n\n", len(passive.Visitors))
	fmt.Printf("  %-22s %-36s %s\n", "user agent", "observed behaviour", "IP verified")
	for _, tok := range passive.Visitors {
		verified := "-"
		if v, ok := passive.IPVerified[tok]; ok {
			if v {
				verified = "yes"
			} else {
				verified = "NO"
			}
		}
		fmt.Printf("  %-22s %-36s %s\n", tok, passive.Verdicts[tok], verified)
	}
	// Output:
	// Passive measurement (six-month study, §5.2.1)
	//   crawlers observed: 9
	//
	//   user agent             observed behaviour                   IP verified
	//   Amazonbot              respects robots.txt                  yes
	//   Applebot               respects robots.txt                  yes
	//   Bytespider             fetches but ignores robots.txt       yes
	//   CCBot                  respects robots.txt                  yes
	//   ChatGPT-User           anomalous single visit               yes
	//   ClaudeBot              respects robots.txt                  yes
	//   GPTBot                 respects robots.txt                  yes
	//   Meta-ExternalAgent     respects robots.txt                  yes
	//   OAI-SearchBot          respects robots.txt                  yes
}
