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
//
// It is the only home of ai.txt semantics: the policyd decision service
// serves parsed Policy values and calls Permitted and MediaOf directly.
// Both fold case over ASCII only (bytes >= 0x80 compare exactly) and
// allocate nothing; path patterns match with robots.MatchPattern.
package aitxt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/robots"
)

// MediaType is a content class governed by ai.txt.
type MediaType string

// The media types the spec enumerates.
const (
	MediaText  MediaType = "text"
	MediaImage MediaType = "image"
	mediaAudio MediaType = "audio"
	mediaVideo MediaType = "video"
	mediaCode  MediaType = "code"
)

// extToMedia maps lowercase file extensions to media types, mirroring
// the published generator's tables (abridged).
var extToMedia = map[string]MediaType{
	".txt": MediaText, ".html": MediaText, ".htm": MediaText, ".md": MediaText,
	".pdf": MediaText,
	".jpg": MediaImage, ".jpeg": MediaImage, ".png": MediaImage,
	".gif": MediaImage, ".webp": MediaImage, ".svg": MediaImage,
	".mp3": mediaAudio, ".wav": mediaAudio, ".flac": mediaAudio,
	".mp4": mediaVideo, ".webm": mediaVideo, ".mov": mediaVideo,
	".js": mediaCode, ".py": mediaCode, ".go": mediaCode, ".c": mediaCode,
}

// maxExtLen is the longest key in extToMedia, dot included.
const maxExtLen = 5

// MediaOf classifies a URL path by extension, ASCII case-insensitively;
// text is the default for extension-less paths (HTML pages).
func MediaOf(path string) MediaType {
	i := strings.LastIndexByte(path, '.')
	if i < 0 || len(path)-i > maxExtLen {
		return MediaText
	}
	var buf [maxExtLen]byte
	ext := buf[:len(path)-i]
	for j := range ext {
		ext[j] = lowerASCII(path[i+j])
	}
	if mt, ok := extToMedia[string(ext)]; ok {
		return mt
	}
	return MediaText
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
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

// parse reads an ai.txt body. Like robots.txt parsing it is lenient:
// unknown lines produce warnings, never errors.
func parse(r io.Reader) (*Policy, error) {
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
	p, _ := parse(strings.NewReader(s))
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
	for _, pat := range p.DisallowPatterns {
		if pat != "" && len(pat) > bestLen && patternMatches(pat, path) {
			bestLen = len(pat)
			permitted = false
		}
	}
	for _, pat := range p.AllowPatterns {
		if pat != "" && len(pat) >= bestLen && patternMatches(pat, path) {
			bestLen = len(pat)
			permitted = true
		}
	}
	if bestLen >= 0 {
		return permitted
	}
	if allowed, ok := p.Media[MediaOf(path)]; ok {
		return allowed
	}
	return true
}

// patternMatches supports the robots.txt prefix + '*' + '$' pattern
// language, plus bare "*.ext" forms the ai.txt generator emits, which
// match the path's suffix ASCII case-insensitively.
func patternMatches(pattern, path string) bool {
	if len(pattern) < 2 || pattern[0] != '*' || pattern[1] != '.' {
		return robots.MatchPattern(pattern, path)
	}
	suffix := pattern[1:]
	off := len(path) - len(suffix)
	if off < 0 {
		return false
	}
	for j := 0; j < len(suffix); j++ {
		if lowerASCII(path[off+j]) != lowerASCII(suffix[j]) {
			return false
		}
	}
	return true
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
