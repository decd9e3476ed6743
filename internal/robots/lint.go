package robots

import "fmt"

// WarningCode identifies a class of robots.txt authoring problem.
type WarningCode int

const (
	// warnUnknownDirective flags a directive key that is neither standard
	// nor a recognized extension — one of the paper's ~1% "mistakes".
	warnUnknownDirective WarningCode = iota
	// warnRuleOutsideGroup flags an Allow/Disallow with no preceding
	// User-agent line; compliant parsers discard such rules.
	warnRuleOutsideGroup
	// warnPathNotAbsolute flags a rule path that does not begin with '/'
	// or a wildcard — the other canonical mistake the paper reports.
	warnPathNotAbsolute
	// warnEmptyUserAgent flags "User-agent:" with no value.
	warnEmptyUserAgent
	// warnMissingColon flags a non-empty line with no key:value separator.
	warnMissingColon
	// warnNonCanonicalKey flags accepted spellings like "useragent".
	warnNonCanonicalKey
	// warnDirectiveTypo flags accepted misspellings like "dissallow".
	warnDirectiveTypo
	// warnCrawlDelay flags use of the non-standard Crawl-delay directive,
	// which RFC 9309-compliant parsers ignore (App. B.2 case 3).
	warnCrawlDelay
	// warnTruncated flags input longer than maxSize.
	warnTruncated
)

// String returns a short identifier for the code.
func (c WarningCode) String() string {
	switch c {
	case warnUnknownDirective:
		return "unknown-directive"
	case warnRuleOutsideGroup:
		return "rule-outside-group"
	case warnPathNotAbsolute:
		return "path-not-absolute"
	case warnEmptyUserAgent:
		return "empty-user-agent"
	case warnMissingColon:
		return "missing-colon"
	case warnNonCanonicalKey:
		return "non-canonical-key"
	case warnDirectiveTypo:
		return "directive-typo"
	case warnCrawlDelay:
		return "crawl-delay-used"
	case warnTruncated:
		return "truncated"
	default:
		return "unknown"
	}
}

// Warning is one problem found while parsing.
type Warning struct {
	// Line is the 1-based line number of the problem.
	Line int
	// Code classifies the problem.
	Code WarningCode
	// Detail is the offending key, value or line fragment.
	Detail string
}

// String formats the warning as "line N: code (detail)".
func (w Warning) String() string {
	if w.Detail == "" {
		return fmt.Sprintf("line %d: %s", w.Line, w.Code)
	}
	return fmt.Sprintf("line %d: %s (%q)", w.Line, w.Code, w.Detail)
}

// IsMistake reports whether the warning is an authoring mistake in the
// paper's sense (§8.1: "not starting a path with '/' or using non-existent
// directives"), as opposed to tolerated legacy usage like Crawl-delay.
func (w Warning) IsMistake() bool {
	switch w.Code {
	case warnUnknownDirective, warnPathNotAbsolute, warnRuleOutsideGroup,
		warnMissingColon, warnEmptyUserAgent, warnDirectiveTypo:
		return true
	default:
		return false
	}
}

func (rb *Robots) warn(line int, code WarningCode, detail string) {
	rb.Warnings = append(rb.Warnings, Warning{Line: line, Code: code, Detail: detail})
}

// HasMistakes reports whether the file contains at least one authoring
// mistake per Warning.IsMistake.
func (rb *Robots) HasMistakes() bool {
	for _, w := range rb.Warnings {
		if w.IsMistake() {
			return true
		}
	}
	return false
}

// LintReport summarizes the problems in one robots.txt file.
type LintReport struct {
	// Warnings are all problems in source order.
	Warnings []Warning
	// Mistakes counts warnings that qualify as authoring mistakes.
	Mistakes int
	// Groups and Rules count the parsed structure, as a sanity signal.
	Groups int
	Rules  int
}

// Lint parses body and returns a report of its problems.
func Lint(body string) LintReport {
	rb := ParseString(body)
	rep := LintReport{Warnings: rb.Warnings, Groups: len(rb.Groups)}
	for _, g := range rb.Groups {
		rep.Rules += len(g.Rules)
	}
	for _, w := range rb.Warnings {
		if w.IsMistake() {
			rep.Mistakes++
		}
	}
	return rep
}
