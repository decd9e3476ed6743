package robots_test

import (
	"fmt"

	"repro/internal/agents"
	"repro/internal/robots"
)

// Parse a robots.txt file, ask access questions, and categorize how it
// restricts AI crawlers — the primitives every experiment builds on.
func Example() {
	// The example robots.txt from Figure 1 of the paper.
	rb := robots.ParseString(`# An example robots.txt file
User-agent: Googlebot
Allow: /

User-agent: ChatGPT-User
User-agent: GPTBot
Disallow: /

User-agent: *
Disallow: /secret/
`)

	fmt.Println("Access checks:")
	for _, q := range []struct{ ua, path string }{
		{"Googlebot", "/portfolio/piece1.png"},
		{"GPTBot", "/portfolio/piece1.png"},
		{"ChatGPT-User", "/"},
		{"SomeOtherBot", "/secret/diary.html"},
		{"SomeOtherBot", "/public/page.html"},
	} {
		verdict := "allowed"
		if !rb.Allowed(q.ua, q.path) {
			verdict = "disallowed"
		}
		fmt.Printf("  %-14s %-26s %s\n", q.ua, q.path, verdict)
	}

	fmt.Println("\nRestriction categories (the paper's four levels):")
	for _, ua := range []string{"Googlebot", "GPTBot", "SomeOtherBot"} {
		fmt.Printf("  %-14s %s\n", ua, rb.Restriction(ua))
	}

	fmt.Println("\nExplicitly named crawler tokens:")
	for _, tok := range rb.AgentTokens() {
		if a, ok := agents.ByToken(tok); ok {
			fmt.Printf("  %-14s (%s, operated by %s)\n", tok, a.Category, a.Company)
		} else {
			fmt.Printf("  %-14s (not an AI crawler from Table 1)\n", tok)
		}
	}

	// Building robots.txt programmatically: what Squarespace's AI toggle
	// would emit for an artist's site.
	b := robots.NewBuilder()
	b.Comment("generated for an artist portfolio")
	b.Group(agents.SquarespaceBlockedAgents...).DisallowAll()
	b.Group("*").Disallow("/account/")
	b.Sitemap("https://artist.example/sitemap.xml")
	fmt.Println("\nGenerated robots.txt with the Squarespace AI-blocking list:")
	fmt.Print(b.String())
	// Output:
	// Access checks:
	//   Googlebot      /portfolio/piece1.png      allowed
	//   GPTBot         /portfolio/piece1.png      disallowed
	//   ChatGPT-User   /                          disallowed
	//   SomeOtherBot   /secret/diary.html         disallowed
	//   SomeOtherBot   /public/page.html          allowed
	//
	// Restriction categories (the paper's four levels):
	//   Googlebot      no restrictions
	//   GPTBot         fully disallowed
	//   SomeOtherBot   partially disallowed
	//
	// Explicitly named crawler tokens:
	//   Googlebot      (not an AI crawler from Table 1)
	//   ChatGPT-User   (AI Assistant, operated by OpenAI)
	//   GPTBot         (AI Data, operated by OpenAI)
	//
	// Generated robots.txt with the Squarespace AI-blocking list:
	// # generated for an artist portfolio
	//
	// User-agent: GPTBot
	// User-agent: ChatGPT-User
	// User-agent: CCBot
	// User-agent: anthropic-ai
	// User-agent: Google-Extended
	// User-agent: FacebookBot
	// User-agent: Claude-Web
	// User-agent: cohere-ai
	// User-agent: PerplexityBot
	// User-agent: Applebot-Extended
	// Disallow: /
	//
	// User-agent: *
	// Disallow: /account/
	// Sitemap: https://artist.example/sitemap.xml
}
