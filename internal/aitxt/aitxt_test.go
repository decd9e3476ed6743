package aitxt

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	p := ParseString(`# ai.txt
User-Agent: *
Image: N
Text: Y
Disallow: /private/
Allow: /private/press/
`)
	if p.Media[MediaImage] {
		t.Error("images must be denied")
	}
	if !p.Media[MediaText] {
		t.Error("text must be allowed")
	}
	if len(p.Warnings) != 0 {
		t.Errorf("warnings: %v", p.Warnings)
	}
}

func TestPermittedMediaDefaults(t *testing.T) {
	p := ParseString("Image: N\n")
	if p.Permitted("/art/piece.png") {
		t.Error("png is image media; must be denied")
	}
	if !p.Permitted("/about.html") {
		t.Error("html is text; not denied by an image rule")
	}
	if !p.Permitted("/song.mp3") {
		t.Error("audio unspecified; opt-out model defaults to permitted")
	}
}

func TestPermittedPatternPrecedence(t *testing.T) {
	p := ParseString(`Disallow: /private/
Allow: /private/press/
`)
	if p.Permitted("/private/journal.html") {
		t.Error("disallow pattern must deny")
	}
	if !p.Permitted("/private/press/release.html") {
		t.Error("longer allow must win")
	}
	if !p.Permitted("/public/x.html") {
		t.Error("unmatched paths are permitted")
	}
}

func TestPatternsOverrideMedia(t *testing.T) {
	p := ParseString(`Image: Y
Disallow: *.png
`)
	if p.Permitted("/art/piece.png") {
		t.Error("extension pattern must beat the media default")
	}
	if !p.Permitted("/art/piece.webp") {
		t.Error("other image formats follow the media default")
	}
}

func TestMediaOf(t *testing.T) {
	cases := map[string]MediaType{
		"/a/b.PNG":   MediaImage,
		"/x.mp3":     mediaAudio,
		"/clip.webm": mediaVideo,
		"/lib.go":    mediaCode,
		"/page":      MediaText,
		"/doc.pdf":   MediaText,
		"/x.JpEg":    MediaImage,
		"/x.png?s=1": MediaText,
		"/x.png/y":   MediaText,
		"/x.\xffpng": MediaText,
		"/x.toolong": MediaText,
		"/x.":        MediaText,
	}
	for path, want := range cases {
		if got := MediaOf(path); got != want {
			t.Errorf("MediaOf(%q) = %s, want %s", path, got, want)
		}
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	body := Generate(map[MediaType]bool{MediaImage: false, MediaText: true},
		[]string{"/drafts/"}, []string{"/drafts/shared/"})
	p := ParseString(body)
	if p.Media[MediaImage] || !p.Media[MediaText] {
		t.Fatalf("media permissions lost in round trip:\n%s", body)
	}
	if p.Permitted("/drafts/x.html") {
		t.Error("disallow lost in round trip")
	}
	if !p.Permitted("/drafts/shared/x.html") {
		t.Error("allow lost in round trip")
	}
	if len(p.Warnings) != 0 {
		t.Errorf("generated file must parse clean: %v", p.Warnings)
	}
}

func TestUnknownDirectivesWarn(t *testing.T) {
	p := ParseString("Frobnicate: yes\nno colon line\n")
	if len(p.Warnings) != 2 {
		t.Fatalf("warnings = %v", p.Warnings)
	}
}

// The mechanism difference from §2.2: ai.txt changes take effect at
// training time, even for already-collected data; robots.txt cannot do
// that.
func TestRetroactiveOptOut(t *testing.T) {
	type asset struct{ site, path string }
	collected := []asset{
		{"artist.example", "/gallery/a.png"},
		{"artist.example", "/about.html"},
		{"other.example", "/photo.jpg"},
	}
	policies := map[string]*Policy{}
	usable := func() []asset { // the training-time filter
		var out []asset
		for _, a := range collected {
			if p := policies[a.site]; p == nil || p.Permitted(a.path) {
				out = append(out, a)
			}
		}
		return out
	}
	if got := len(usable()); got != 3 {
		t.Fatalf("usable = %d, want 3", got)
	}

	// The artist publishes ai.txt denying images — AFTER the crawl.
	policies["artist.example"] = ParseString("Image: N\n")
	left := usable()
	if len(left) != 2 {
		t.Fatalf("usable = %d, want 2 (the png retracted)", len(left))
	}
	for _, a := range left {
		if a.path == "/gallery/a.png" {
			t.Error("retracted image still usable")
		}
	}
}

func TestPatternMatchesQuick(t *testing.T) {
	// Property: a metacharacter-free pattern always prefix-matches itself.
	f := func(s string) bool {
		clean := strings.NewReplacer("*", "", "$", "", "#", "", ":", "").Replace(s)
		pat := "/" + clean
		return patternMatches(pat, pat+"/suffix")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermittedEmptyPolicy(t *testing.T) {
	p := ParseString("")
	if !p.Permitted("/anything.png") {
		t.Fatal("empty ai.txt permits everything")
	}
}

// TestPermittedPatterns covers the rule shapes one table at a time:
// suffix rules fold ASCII case only, '$' anchors, '*' wildcards, and
// patterns beat media defaults whatever the extension's case.
func TestPermittedPatterns(t *testing.T) {
	cases := []struct {
		body, path string
		want       bool
	}{
		{"Disallow: *.PNG\n", "/a.png", false},
		{"Disallow: *.png\n", "/A.PNG", false},
		{"Disallow: *.PNG\n", "/a.\xffpng", true},
		{"Disallow: *.\xff\n", "/a.\xfe", true},
		{"Disallow: *.k\n", "/a.\u212a", true}, // Kelvin sign
		{"Disallow: /gallery/\n", "/gallery/piece.html", false},
		{"Disallow: /*.pdf$\n", "/doc.pdf", false},
		{"Disallow: /*.pdf$\n", "/doc.pdf?x=1", true},
		{"Disallow: /a$\n", "/a", false},
		{"Disallow: /a$\n", "/ab", true},
		{"Disallow: $\n", "/a", true},
		{"Disallow: /private/\nAllow: /private/\n", "/private/x", true},
		{"Disallow: /p*/x\nAllow: /p\n", "/priv/x", false},
		{"Image: N\n", "/piece.PNG", false},
		{"Image: N\n", "/about.html", true},
		{"Image: N\nDisallow: /gallery/\n", "/piece.PNG", false},
	}
	for _, c := range cases {
		if got := ParseString(c.body).Permitted(c.path); got != c.want {
			t.Errorf("Permitted(%q) under %q = %v, want %v", c.path, c.body, got, c.want)
		}
	}
}

func TestPermittedZeroAlloc(t *testing.T) {
	cases := []struct {
		name, body, path string
	}{
		{"suffix", "Disallow: *.PNG\n", "/gallery/piece.png"},
		{"anchored", "Disallow: /*.pdf$\nAllow: /public/\n", "/public/doc.pdf"},
		{"media default", "Image: N\nDisallow: /private/\n", "/art/piece.JPG"},
	}
	for _, c := range cases {
		p := ParseString(c.body)
		if allocs := testing.AllocsPerRun(100, func() { p.Permitted(c.path) }); allocs != 0 {
			t.Errorf("%s: Permitted allocated %v/op, want 0", c.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { MediaOf("/x.PNG") }); allocs != 0 {
		t.Errorf("MediaOf allocated %v/op, want 0", allocs)
	}
}
