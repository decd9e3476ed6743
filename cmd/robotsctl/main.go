// Command robotsctl inspects robots.txt files with the RFC 9309 engine
// from this repository: parse and lint a file, check whether a crawler
// may fetch a path, and categorize restriction levels the way the paper
// does.
//
// Usage:
//
//	robotsctl lint   < robots.txt
//	robotsctl check  -agent GPTBot -path /gallery/ < robots.txt
//	robotsctl level  -agent GPTBot < robots.txt
//	robotsctl agents < robots.txt
//	robotsctl diff   -old old.txt -new new.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/robots"
)

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	agent := fs.String("agent", "*", "crawler user agent or product token")
	path := fs.String("path", "/", "request path to check")
	profile := fs.String("profile", "google", "parser profile: google, strict-rfc, legacy-buggy, classic-1994")
	oldFile := fs.String("old", "", "previous robots.txt (diff)")
	newFile := fs.String("new", "", "current robots.txt (diff)")
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if cmd == "diff" {
		return runDiff(stdout, stderr, *oldFile, *newFile)
	}

	body, err := io.ReadAll(stdin)
	if err != nil {
		return fail(stderr, "reading stdin: %v", err)
	}
	p, ok := profileByName(*profile)
	if !ok {
		return fail(stderr, "unknown profile %q", *profile)
	}
	rb := robots.ParseStringProfile(string(body), p)

	switch cmd {
	case "lint":
		rep := robots.Lint(string(body))
		fmt.Fprintf(stdout, "groups: %d, rules: %d, mistakes: %d\n", rep.Groups, rep.Rules, rep.Mistakes)
		for _, w := range rep.Warnings {
			marker := " "
			if w.IsMistake() {
				marker = "!"
			}
			fmt.Fprintf(stdout, "%s %s\n", marker, w)
		}
		if rep.Mistakes > 0 {
			return 1
		}
	case "check":
		allowed := rb.Allowed(*agent, *path)
		verdict := "allowed"
		if !allowed {
			verdict = "disallowed"
		}
		fmt.Fprintf(stdout, "%s is %s to fetch %s\n", *agent, verdict, *path)
		if !allowed {
			return 1
		}
	case "level":
		lvl := rb.Restriction(*agent)
		explicitLvl, explicit := rb.ExplicitRestriction(*agent)
		fmt.Fprintf(stdout, "%s: %s", *agent, lvl)
		if explicit {
			fmt.Fprintf(stdout, " (explicitly named: %s)", explicitLvl)
		} else {
			fmt.Fprintf(stdout, " (not explicitly named)")
		}
		fmt.Fprintln(stdout)
	case "agents":
		for _, tok := range rb.AgentTokens() {
			lvl, _ := rb.ExplicitRestriction(tok)
			fmt.Fprintf(stdout, "%-24s %s\n", tok, lvl)
		}
	default:
		return usage(stderr)
	}
	return 0
}

// runDiff prints agent-level changes between two robots.txt files — the
// §3.3 licensing-deal signature detector as a command. Like diff(1), it
// exits 1 when it finds changes.
func runDiff(stdout, stderr io.Writer, oldPath, newPath string) int {
	if oldPath == "" || newPath == "" {
		return fail(stderr, "diff requires -old and -new files")
	}
	var versions [2]*robots.Robots
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return fail(stderr, "reading %s: %v", path, err)
		}
		versions[i] = robots.ParseString(string(data))
	}
	changes := robots.Diff(versions[0], versions[1])
	if len(changes) == 0 {
		fmt.Fprintln(stdout, "no agent-level changes")
		return 0
	}
	for _, c := range changes {
		fmt.Fprintf(stdout, "%-24s %-24s %s -> %s\n", c.Agent, c.Kind, c.From, c.To)
	}
	return 1
}

func profileByName(name string) (robots.Profile, bool) {
	for _, p := range []robots.Profile{
		robots.ProfileGoogle, robots.ProfileStrictRFC,
		robots.ProfileLegacyBuggy, robots.ProfileClassic1994,
	} {
		if p.Name == name {
			return p, true
		}
	}
	return robots.Profile{}, false
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: robotsctl <command> [flags] < robots.txt
commands:
  lint    report parse warnings and authoring mistakes
  check   -agent UA -path P   may the crawler fetch the path?
  level   -agent UA           restriction category for the crawler
  agents  list explicitly named crawler tokens
  diff    -old F -new F       agent-level changes between versions`)
	return 2
}

func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "robotsctl: "+format+"\n", args...)
	return 1
}
