// Package agents is the registry of AI crawler user agents studied in the
// paper, mirroring the role the Dark Visitors list [113] plays for the
// original study, plus the rule lists of the blocking services evaluated
// in §6 (Cloudflare, Appendix C.2/C.3) and the hosting providers of §4
// (Squarespace, Appendix C.1).
package agents

import (
	"strings"
	"time"

	"repro/internal/robots"
	"repro/internal/useragent"
)

// Category classifies an AI user agent the way the paper does (§2.1,
// derived from the Dark Visitors taxonomy).
type Category int

const (
	// AIData crawlers collect training data (e.g. GPTBot).
	AIData Category = iota
	// AIAssistant crawlers fetch pages live for AI assistants
	// (e.g. ChatGPT-User).
	AIAssistant
	// AISearch crawlers index content for AI-backed search engines
	// (e.g. OAI-SearchBot).
	AISearch
	// Undocumented agents appear in the wild without documentation
	// (e.g. anthropic-ai).
	Undocumented
)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case AIData:
		return "AI Data"
	case AIAssistant:
		return "AI Assistant"
	case AISearch:
		return "AI Search"
	case Undocumented:
		return "Undocumented AI"
	default:
		return "Unknown"
	}
}

// TriState captures the Yes/No/'-' cells of Table 1.
type TriState int

const (
	// Unknown renders as '-' (no documentation or no observation).
	Unknown TriState = iota
	// Yes renders as "Yes".
	Yes
	// No renders as "No".
	No
)

// String renders the Table 1 cell text.
func (t TriState) String() string {
	switch t {
	case Yes:
		return "Yes"
	case No:
		return "No"
	default:
		return "-"
	}
}

// Agent is one row of Table 1.
type Agent struct {
	// UserAgent is the product token as it appears in robots.txt.
	UserAgent string
	// Category is the crawler's purpose class.
	Category Category
	// Company operates the crawler.
	Company string
	// PublishesIPs reports whether the company documents the IP ranges
	// the crawler uses ('-' for virtual tokens, which have no crawler).
	PublishesIPs TriState
	// ClaimsRespect reports whether the company's documentation claims
	// the crawler respects robots.txt.
	ClaimsRespect TriState
	// RespectsInPractice is the paper's §5 measurement result; the
	// measurement harness in internal/measure regenerates this column.
	RespectsInPractice TriState
	// VirtualToken is true for control-only tokens (Applebot-Extended,
	// Google-Extended, Webzio-Extended) that no real crawler presents.
	VirtualToken bool
	// Announced is when the user agent became publicly known, gating when
	// sites could have started naming it in robots.txt (§3.2).
	Announced time.Time
	// IPPrefix is the simulated /24 this crawler dials from in netsim
	// experiments (documented ranges for publishers, stable-but-unlisted
	// pools otherwise).
	IPPrefix string
}

// Token returns the canonical lowercase product token.
func (a Agent) Token() string {
	return strings.ToLower(useragent.ExtractToken(a.UserAgent))
}

// FullUserAgent returns a realistic full User-Agent header for the agent.
func (a Agent) FullUserAgent() string {
	return useragent.FullUA(a.UserAgent, "1.0")
}

func d(y int, m time.Month) time.Time {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// Table1 is the paper's Table 1: the 24 AI user agents studied, with the
// attributes the paper documents for each. Order matches the paper
// (alphabetical).
var Table1 = []Agent{
	{UserAgent: "Amazonbot", Category: AISearch, Company: "Amazon", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2022, time.May), IPPrefix: "12.0.1"},
	{UserAgent: "AI2Bot", Category: AIData, Company: "Ai2", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2024, time.May), IPPrefix: "13.0.1"},
	{UserAgent: "anthropic-ai", Category: Undocumented, Company: "Anthropic", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2023, time.April), IPPrefix: "14.0.1"},
	{UserAgent: "Applebot", Category: AISearch, Company: "Apple", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2022, time.January), IPPrefix: "15.0.1"},
	{UserAgent: "Applebot-Extended", Category: AIData, Company: "Apple", PublishesIPs: Unknown, ClaimsRespect: Yes, RespectsInPractice: Unknown, VirtualToken: true, Announced: d(2024, time.June)},
	{UserAgent: "Bytespider", Category: AIData, Company: "ByteDance", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: No, Announced: d(2023, time.May), IPPrefix: "16.0.1"},
	{UserAgent: "CCBot", Category: AIData, Company: "Common Crawl", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2022, time.January), IPPrefix: "17.0.1"},
	{UserAgent: "ChatGPT-User", Category: AIAssistant, Company: "OpenAI", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2023, time.August), IPPrefix: "18.0.1"},
	{UserAgent: "Claude-Web", Category: Undocumented, Company: "Anthropic", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2023, time.September), IPPrefix: "19.0.1"},
	{UserAgent: "ClaudeBot", Category: AIData, Company: "Anthropic", PublishesIPs: No, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2024, time.March), IPPrefix: "20.0.1"},
	{UserAgent: "cohere-ai", Category: Undocumented, Company: "Cohere", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2023, time.September), IPPrefix: "21.0.1"},
	{UserAgent: "Diffbot", Category: AIData, Company: "Diffbot", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2022, time.January), IPPrefix: "22.0.1"},
	{UserAgent: "FacebookBot", Category: AIData, Company: "Meta", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Unknown, Announced: d(2022, time.January), IPPrefix: "23.0.1"},
	{UserAgent: "Google-Extended", Category: AIData, Company: "Google", PublishesIPs: Unknown, ClaimsRespect: Yes, RespectsInPractice: Unknown, VirtualToken: true, Announced: d(2023, time.September)},
	{UserAgent: "GPTBot", Category: AIData, Company: "OpenAI", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2023, time.August), IPPrefix: "24.0.1"},
	{UserAgent: "Kangaroo Bot", Category: AIData, Company: "Kangaroo LLM", PublishesIPs: No, ClaimsRespect: Yes, RespectsInPractice: Unknown, Announced: d(2024, time.July), IPPrefix: "25.0.1"},
	{UserAgent: "Meta-ExternalAgent", Category: AIData, Company: "Meta", PublishesIPs: Yes, ClaimsRespect: Unknown, RespectsInPractice: Yes, Announced: d(2024, time.August), IPPrefix: "26.0.1"},
	{UserAgent: "Meta-ExternalFetcher", Category: AIAssistant, Company: "Meta", PublishesIPs: Yes, ClaimsRespect: No, RespectsInPractice: Unknown, Announced: d(2024, time.August), IPPrefix: "27.0.1"},
	{UserAgent: "OAI-SearchBot", Category: AISearch, Company: "OpenAI", PublishesIPs: Yes, ClaimsRespect: Yes, RespectsInPractice: Yes, Announced: d(2024, time.July), IPPrefix: "28.0.1"},
	{UserAgent: "omgili", Category: AIData, Company: "Webz.io", PublishesIPs: No, ClaimsRespect: Yes, RespectsInPractice: Unknown, Announced: d(2022, time.January), IPPrefix: "29.0.1"},
	{UserAgent: "PerplexityBot", Category: AISearch, Company: "Perplexity", PublishesIPs: No, ClaimsRespect: Yes, RespectsInPractice: Unknown, Announced: d(2023, time.June), IPPrefix: "30.0.1"},
	{UserAgent: "Timpibot", Category: AIData, Company: "Timpi", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2023, time.October), IPPrefix: "31.0.1"},
	{UserAgent: "Webzio-Extended", Category: AIData, Company: "Webz.io", PublishesIPs: Unknown, ClaimsRespect: Yes, RespectsInPractice: Unknown, VirtualToken: true, Announced: d(2024, time.April)},
	{UserAgent: "YouBot", Category: AISearch, Company: "You.com", PublishesIPs: No, ClaimsRespect: Unknown, RespectsInPractice: Unknown, Announced: d(2023, time.February), IPPrefix: "32.0.1"},
}

// table1Tokens are the Table 1 agents' Tokens in table order, lowercased
// once so that a lookup allocates nothing.
var table1Tokens = func() []string {
	toks := make([]string, len(Table1))
	for i, a := range Table1 {
		toks[i] = a.Token()
	}
	return toks
}()

// ByToken returns the first Table 1 agent with the given product token,
// compared case-insensitively.
func ByToken(token string) (Agent, bool) {
	want := useragent.ExtractToken(token)
	for i, tok := range table1Tokens {
		if useragent.EqualToken(want, tok) {
			return Table1[i], true
		}
	}
	return Agent{}, false
}

// RestrictsAnyAI reports whether a robots.txt body explicitly restricts
// any Table 1 agent it names. The body is parsed through the shared
// content-keyed cache, since populations reuse a few templates.
func RestrictsAnyAI(robotsTxt string) bool {
	rb := robots.ParseCached(robotsTxt)
	for _, tok := range rb.AgentTokens() {
		if _, ok := ByToken(tok); !ok {
			continue
		}
		if lvl, explicit := rb.ExplicitRestriction(tok); explicit && lvl.Restricted() {
			return true
		}
	}
	return false
}

// Tokens returns the product tokens of all Table 1 agents in table order.
func Tokens() []string {
	out := make([]string, len(Table1))
	for i, a := range Table1 {
		out[i] = a.UserAgent
	}
	return out
}

// RealCrawlers returns Table 1 agents that operate actual crawlers
// (excluding the three virtual control tokens).
func RealCrawlers() []Agent {
	var out []Agent
	for _, a := range Table1 {
		if !a.VirtualToken {
			out = append(out, a)
		}
	}
	return out
}

// Figure3Agents are the ten user agents whose adoption curves Figure 3
// plots, in legend order.
var Figure3Agents = []string{
	"GPTBot", "CCBot", "Google-Extended", "ChatGPT-User", "anthropic-ai",
	"ClaudeBot", "Claude-Web", "PerplexityBot", "Bytespider", "omgili",
}

// AnnouncedBy reports whether the token was publicly known by t, so a site
// could plausibly have written a rule for it. Unknown tokens return true
// (no gating).
func AnnouncedBy(token string, t time.Time) bool {
	a, ok := ByToken(token)
	if !ok {
		return true
	}
	return !a.Announced.After(t)
}

// SquarespaceBlockedAgents is the list from Appendix C.1: the ten user
// agents Squarespace fully disallows when a customer turns off the
// "Artificial Intelligence Crawlers" option.
var SquarespaceBlockedAgents = []string{
	"GPTBot", "ChatGPT-User", "CCBot", "anthropic-ai", "Google-Extended",
	"FacebookBot", "Claude-Web", "cohere-ai", "PerplexityBot",
	"Applebot-Extended",
}

// CloudflareDefinitelyAutomated is the user-agent list from Appendix C.2:
// what Cloudflare's "Definitely Automated" managed ruleset blocks.
var CloudflareDefinitelyAutomated = []string{
	"360Spider", "AHC", "aiohttp", "anthropic-ai", "Apache-HttpClient",
	"axios", "binlar", "Bytespider", "CCBot", "centurybot", "Claudebot",
	"curl", "Diffbot", "Go-http-client", "grub.org", "HeadlessChrome",
	"httpx", "libwww-perl", "magpie-crawler", "MeltwaterNews", "node-fetch",
	"Nutch", "omgili", "PerplexityBot", "PhantomJS", "PHP-Curl-Class",
	"PiplBot", "python-requests", "Python-urllib", "Scrapy", "serpstatbot",
	"Teoma", "W3C-checklink", "wget",
}

// CloudflareBlockAIBots is the user-agent substring list from Appendix
// C.3: what Cloudflare's "Block AI Scrapers and Crawlers" option blocks.
// Entries with a trailing '/' match the token-plus-version form only.
var CloudflareBlockAIBots = []string{
	"Amazonbot", "AwarioRssBot", "AwarioSmartBot", "Bytespider", "CCBot/",
	"ChatGPT-User", "Claude-Web", "ClaudeBot", "cohere-ai", "Diffbot/",
	"GPTBot/", "magpie-crawler", "MeltwaterNews", "omgili/", "PerplexityBot",
	"PiplBot", "YouBot",
}

// CloudflareVerifiedAIBots are the AI crawlers on Cloudflare's verified
// bots list (§6.3 footnote 8), with whether the Block AI Bots feature
// blocks them. Verified bots are validated by source IP, not user agent.
var CloudflareVerifiedAIBots = map[string]bool{
	"Amazonbot":     true,
	"Applebot":      false,
	"GPTBot":        true,
	"OAI-SearchBot": false,
	"ChatGPT-User":  true,
	"ICC Crawler":   false,
	"DuckAssistbot": false,
}

// genericBotNames seed the synthetic public crawler list (the paper probes
// 590 user agents from github.com/monperrus/crawler-user-agents on top of
// Table 1's 24).
var genericBotNames = []string{
	// The Awario/magpie/Meltwater/Pipl entries matter: they are in the
	// public corpus and in Cloudflare's Block AI list but not in Table 1,
	// so the §6.3 grey-box probe can only discover those rules through
	// the generic list, exactly as the paper's 590-UA probe did.
	"AwarioRssBot", "AwarioSmartBot", "magpie-crawler", "MeltwaterNews",
	"PiplBot",
	"AhrefsBot", "SemrushBot", "DotBot", "MJ12bot", "BLEXBot", "YandexBot",
	"bingbot", "DuckDuckBot", "Baiduspider", "Sogou", "Exabot", "SeznamBot",
	"PetalBot", "Qwantify", "archive.org_bot", "ia_archiver", "FeedFetcher",
	"Slackbot", "Twitterbot", "LinkedInBot", "Pinterestbot", "WhatsApp",
	"TelegramBot", "Discordbot", "redditbot", "rogerbot", "SiteAuditBot",
	"UptimeRobot", "StatusCake", "Pingdom", "GTmetrix", "W3C_Validator",
	"ZoominfoBot", "DataForSeoBot", "AwarioBot", "Linguee", "turnitinbot",
	"CopyScape", "Screaming Frog", "netEstate", "SEOkicks", "CheckMarkNetwork",
	"startmebot", "AppSignalBot", "Better Uptime Bot", "CriteoBot",
	"proximic", "grapeshot", "AdsBot-Google", "Mediapartners-Google",
	"Applebot-Extended-Probe", "facebookexternalhit", "Embedly", "Quora-Bot",
	"vkShare", "OdklBot", "SkypeUriPreview", "bitlybot", "Tumblr",
	"NewsBlur", "Feedly", "Superfeedr", "inoreader", "TinyRSS",
}

// GenericCrawlerUserAgents returns n full user-agent strings representing
// the public crawler-user-agents corpus [79]. The list is deterministic:
// base bot names are cycled with version variants.
func GenericCrawlerUserAgents(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		name := genericBotNames[i%len(genericBotNames)]
		version := 1 + i/len(genericBotNames)
		out = append(out, useragent.FullUA(name, itoa(version)+".0"))
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
