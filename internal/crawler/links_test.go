package crawler

import (
	"reflect"
	"strings"
	"testing"
)

// extractLinksRef is the per-byte scan appendLinks replaced, kept as
// its reference: for each attribute, a case-folded search for the whole
// `name="` from where the previous value closed.
func extractLinksRef(body string) []string {
	var out []string
	for _, attr := range []string{`href="`, `src="`} {
		idx := 0
		for {
			i := indexFold(body[idx:], attr)
			if i < 0 {
				break
			}
			start := idx + i + len(attr)
			end := strings.IndexByte(body[start:], '"')
			if end < 0 {
				break
			}
			link := body[start : start+end]
			if link != "" && !strings.HasPrefix(link, "#") && !hasPrefixFold(link, "javascript:") {
				out = append(out, link)
			}
			idx = start + end
		}
	}
	return out
}

// indexFold returns the index of the first ASCII case-insensitive
// occurrence of substr in s, or -1. substr must be lowercase ASCII.
func indexFold(s, substr string) int {
	if len(substr) == 0 {
		return 0
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if lowerByte(s[i]) != substr[0] {
			continue
		}
		if hasPrefixFold(s[i:], substr) {
			return i
		}
	}
	return -1
}

// FuzzExtractLinksMatchesReference: on any page, appendLinks(nil, body)
// returns exactly the reference's links, in the same order.
func FuzzExtractLinksMatchesReference(f *testing.F) {
	f.Add(`<a href="/a.html">A</a> <A HREF="/b.html">B</A><img src="/img.png"> <a href="#frag">x</a>`)
	f.Add(`<a href="javascript:void(0)">x</a> <a href="https://other.test/x">ext</a>`)
	f.Add(`src="a href="b" hReF="c"sRc=""href=`)
	f.Add(`href="unterminated`)
	f.Add(`=""=href=="src="x"`)
	f.Fuzz(func(t *testing.T, body string) {
		got, want := appendLinks(nil, body), extractLinksRef(body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("appendLinks(nil, %q) = %q, reference %q", body, got, want)
		}
	})
}
