package robots

import "strings"

// Builder assembles robots.txt content programmatically. The corpus
// generator and the hosting-provider substrate use it to render the files
// whose parsed interpretation the experiments then measure, which keeps
// generation and interpretation honest against each other.
//
// The zero value is ready to use. Builders are not safe for concurrent use.
type Builder struct {
	lines []string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Comment appends "# text" lines; multi-line text becomes one comment line
// per input line.
func (b *Builder) Comment(text string) *Builder {
	for _, l := range strings.Split(text, "\n") {
		b.lines = append(b.lines, "# "+l)
	}
	return b
}

// Blank appends an empty line.
func (b *Builder) Blank() *Builder {
	b.lines = append(b.lines, "")
	return b
}

// Raw appends a verbatim line; used for error injection in the corpus.
func (b *Builder) Raw(line string) *Builder {
	b.lines = append(b.lines, line)
	return b
}

// Sitemap appends a Sitemap directive.
func (b *Builder) Sitemap(url string) *Builder {
	b.lines = append(b.lines, "Sitemap: "+url)
	return b
}

// Group starts a group for the given agents and returns a GroupBuilder for
// its rules. Finish the group by calling further Builder methods or by
// starting another group; no explicit close is needed.
func (b *Builder) Group(agents ...string) *GroupBuilder {
	if len(b.lines) > 0 && b.lines[len(b.lines)-1] != "" {
		b.Blank()
	}
	for _, a := range agents {
		b.lines = append(b.lines, "User-agent: "+a)
	}
	return &GroupBuilder{b: b}
}

// String renders the accumulated robots.txt content, ending with a
// newline when non-empty.
func (b *Builder) String() string {
	if len(b.lines) == 0 {
		return ""
	}
	return strings.Join(b.lines, "\n") + "\n"
}

// GroupBuilder adds rules to the group most recently started on its parent
// Builder.
type GroupBuilder struct {
	b *Builder
}

// Disallow appends Disallow rules for each path.
func (g *GroupBuilder) Disallow(paths ...string) *GroupBuilder {
	for _, p := range paths {
		g.b.lines = append(g.b.lines, "Disallow: "+p)
	}
	return g
}

// DisallowAll appends "Disallow: /".
func (g *GroupBuilder) DisallowAll() *GroupBuilder { return g.Disallow("/") }

// allow appends Allow rules for each path.
func (g *GroupBuilder) allow(paths ...string) *GroupBuilder {
	for _, p := range paths {
		g.b.lines = append(g.b.lines, "Allow: "+p)
	}
	return g
}

// AllowAll appends "Allow: /".
func (g *GroupBuilder) AllowAll() *GroupBuilder { return g.allow("/") }

// CrawlDelay appends a Crawl-delay extension line to the group.
func (g *GroupBuilder) CrawlDelay(value string) *GroupBuilder {
	g.b.lines = append(g.b.lines, "Crawl-delay: "+value)
	return g
}

// Group starts a sibling group on the parent builder.
func (g *GroupBuilder) Group(agents ...string) *GroupBuilder {
	return g.b.Group(agents...)
}
