// Package aitxt implements Spawning AI's ai.txt mechanism (§2.2 of the
// paper): a machine-readable permission file for AI training, organized
// by media type, which — unlike robots.txt — is consulted when an AI
// model attempts to *use* media, enabling real-time opt-outs even for
// content that was already collected.
//
// The package provides the parser and generator, plus a small training-
// pipeline simulation that demonstrates the mechanism's distinguishing
// property: a robots.txt change cannot retract data a crawler already
// holds, while an ai.txt change takes effect at training time.
package aitxt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// MediaType is a content class governed by ai.txt.
type MediaType string

// The media types the spec enumerates.
const (
	MediaText  MediaType = "text"
	MediaImage MediaType = "image"
	MediaAudio MediaType = "audio"
	MediaVideo MediaType = "video"
	MediaCode  MediaType = "code"
)

// extToMedia maps file extensions to media types, mirroring the
// published generator's tables (abridged).
var extToMedia = map[string]MediaType{
	".txt": MediaText, ".html": MediaText, ".htm": MediaText, ".md": MediaText,
	".pdf": MediaText,
	".jpg": MediaImage, ".jpeg": MediaImage, ".png": MediaImage,
	".gif": MediaImage, ".webp": MediaImage, ".svg": MediaImage,
	".mp3": MediaAudio, ".wav": MediaAudio, ".flac": MediaAudio,
	".mp4": MediaVideo, ".webm": MediaVideo, ".mov": MediaVideo,
	".js": MediaCode, ".py": MediaCode, ".go": MediaCode, ".c": MediaCode,
}

// MediaOf classifies a URL path by extension; text is the default for
// extension-less paths (HTML pages).
func MediaOf(path string) MediaType {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		if mt, ok := extToMedia[strings.ToLower(path[i:])]; ok {
			return mt
		}
	}
	return MediaText
}

// Policy is a parsed ai.txt: per-media permissions plus optional path
// patterns (the spec reuses robots.txt-style Allow/Disallow lines with
// wildcard extensions).
type Policy struct {
	// Media maps each media type to whether AI use is permitted. Types
	// absent from the file default to permitted (opt-out model).
	Media map[MediaType]bool
	// DisallowPatterns are path patterns denied for AI use.
	DisallowPatterns []string
	// AllowPatterns are path patterns explicitly permitted.
	AllowPatterns []string
	// Warnings collects unknown directives.
	Warnings []string
}

// Parse reads an ai.txt body. Like robots.txt parsing it is lenient:
// unknown lines produce warnings, never errors.
func Parse(r io.Reader) (*Policy, error) {
	p := &Policy{Media: make(map[MediaType]bool)}
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			p.Warnings = append(p.Warnings, "missing colon: "+line)
			continue
		}
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		switch key {
		case "user-agent":
			// The spec carries a User-Agent line for symmetry with
			// robots.txt; permissions are not per-agent yet.
		case "disallow":
			p.DisallowPatterns = append(p.DisallowPatterns, value)
		case "allow":
			p.AllowPatterns = append(p.AllowPatterns, value)
		case "text", "image", "audio", "video", "code":
			p.Media[MediaType(key)] = parsePermission(value)
		default:
			p.Warnings = append(p.Warnings, "unknown directive: "+key)
		}
	}
	if err := scanner.Err(); err != nil {
		return p, fmt.Errorf("aitxt: reading input: %w", err)
	}
	return p, nil
}

// ParseString parses an in-memory ai.txt body.
func ParseString(s string) *Policy {
	p, _ := Parse(strings.NewReader(s))
	return p
}

func parsePermission(v string) bool {
	switch strings.ToLower(v) {
	case "y", "yes", "allow", "allowed", "true":
		return true
	default:
		return false
	}
}

// Permitted reports whether AI use of the resource at path is allowed.
// Path patterns take precedence over media defaults; the most specific
// (longest) matching pattern wins, allow on ties, mirroring RFC 9309.
func (p *Policy) Permitted(path string) bool {
	bestLen := -1
	permitted := true
	consider := func(patterns []string, allow bool) {
		for _, pat := range patterns {
			if pat == "" || !patternMatches(pat, path) {
				continue
			}
			switch {
			case len(pat) > bestLen:
				bestLen = len(pat)
				permitted = allow
			case len(pat) == bestLen && allow:
				permitted = true
			}
		}
	}
	consider(p.DisallowPatterns, false)
	consider(p.AllowPatterns, true)
	if bestLen >= 0 {
		return permitted
	}
	if allowed, ok := p.Media[MediaOf(path)]; ok {
		return allowed
	}
	return true
}

// patternMatches supports the same prefix + '*' + '$' pattern language as
// robots.txt, plus bare "*.ext" forms the ai.txt generator emits.
func patternMatches(pattern, path string) bool {
	if strings.HasPrefix(pattern, "*.") {
		return strings.HasSuffix(strings.ToLower(path), strings.ToLower(pattern[1:]))
	}
	anchored := strings.HasSuffix(pattern, "$")
	if anchored {
		pattern = pattern[:len(pattern)-1]
	} else {
		pattern += "*"
	}
	var p, s, starP, starS int
	starP, starS = -1, -1
	for s < len(path) {
		switch {
		case p < len(pattern) && pattern[p] == '*':
			starP, starS = p, s
			p++
		case p < len(pattern) && pattern[p] == path[s]:
			p++
			s++
		case starP >= 0:
			starS++
			s = starS
			p = starP + 1
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

// Generate renders an ai.txt body from per-media permissions and path
// patterns, in the generator's canonical layout.
func Generate(media map[MediaType]bool, disallow, allow []string) string {
	var sb strings.Builder
	sb.WriteString("# ai.txt — AI training permissions (Spawning spec)\n")
	sb.WriteString("User-Agent: *\n")
	keys := make([]string, 0, len(media))
	for mt := range media {
		keys = append(keys, string(mt))
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := "N"
		if media[MediaType(k)] {
			v = "Y"
		}
		fmt.Fprintf(&sb, "%s: %s\n", titleASCII(k), v)
	}
	for _, d := range disallow {
		fmt.Fprintf(&sb, "Disallow: %s\n", d)
	}
	for _, a := range allow {
		fmt.Fprintf(&sb, "Allow: %s\n", a)
	}
	return sb.String()
}

// titleASCII capitalizes the first ASCII letter of s.
func titleASCII(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// Asset is one collected resource in a training corpus.
type Asset struct {
	Site string
	Path string
}

// TrainingPipeline simulates the mechanism difference the paper explains:
// robots.txt gates *collection*, ai.txt gates *use*. Assets enter the
// corpus at crawl time; Filter applies the sites' current ai.txt at
// training time.
type TrainingPipeline struct {
	corpus []Asset
}

// Collect adds crawled assets to the training corpus.
func (t *TrainingPipeline) Collect(assets ...Asset) {
	t.corpus = append(t.corpus, assets...)
}

// CorpusSize returns the number of collected assets.
func (t *TrainingPipeline) CorpusSize() int { return len(t.corpus) }

// Filter returns the assets whose current ai.txt (looked up per site)
// still permits training. Sites without ai.txt permit everything.
func (t *TrainingPipeline) Filter(policyFor func(site string) *Policy) []Asset {
	var usable []Asset
	for _, a := range t.corpus {
		p := policyFor(a.Site)
		if p == nil || p.Permitted(a.Path) {
			usable = append(usable, a)
		}
	}
	return usable
}
