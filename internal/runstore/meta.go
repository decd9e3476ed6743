// Package runstore is the longitudinal results store: a compact
// on-disk record of every run's semantic outputs — per-month scenario
// metrics, verdict tables, per-site policy plans, experiment results,
// policyd decision mixes, a gateway's per-tenant quota ledger, and an
// end-of-run obs snapshot — keyed by
// (spec hash, seed, git rev, timestamp), plus a differ that renders
// what changed between two runs or two code revisions.
//
// Layout: a store is a directory holding one subdirectory per run and
// an append-only NDJSON manifest (one Meta line per run). Within a run
// directory, each output lives in its own segment file. Semantic
// segments are written deterministically — same spec, seed, and
// revision produce byte-identical files — which is what makes the
// differ's "empty diff" result trustworthy; attribution segments
// (meta.json's timestamp, metrics.json's wall-clock histograms) are
// allowed to vary and the differ treats their drift as advisory.
//
// A run is saved once, after it has finished: SaveScenario,
// SaveExperiments and SaveLoadgen write its segments, then meta.json
// and the manifest line, and remove the directory on any error. Loading
// checks the segments against meta.json's counts, so a directory whose
// segments disagree with it fails to load instead of reading as a
// different run.
//
// The differ compares runs one way for every segment: a table of
// categories (verdicts, months, sites, decision mix, quotas,
// experiments, and the advisory bench segment) each names a view that
// projects a run's segment into keyed records of named text fields, and
// one comparator turns the records the two runs hold into Deltas —
// {Key, Field, A, B}, with (absent) for a record one run lacks. A Diff
// holds one Section of Deltas per category plus the advisory obs drift,
// each capped and totalled the same way.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Run kinds.
const (
	KindScenario    = "scenario"
	KindExperiments = "experiments"
	KindLoadgen     = "loadgen"
)

// Attribution stamps a run (or a benchmark snapshot) with where it came
// from: the code revision and the machine shape. cmd/loadgen embeds it
// in its -o JSON; the store embeds it in every manifest line.
type Attribution struct {
	GitRev     string `json:"git_rev,omitempty"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
}

// Stamp captures the current process's attribution.
func Stamp() Attribution {
	return Attribution{
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
	}
}

// gitRev resolves the current source revision without exec'ing git:
// from the binary's embedded VCS stamp when present (installed builds),
// else by reading .git/HEAD upward from the working directory (the
// `go run` and test path, where the toolchain embeds no stamp). Returns
// "" when neither source is available.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if rev := readGitHead(filepath.Join(dir, ".git")); rev != "" {
			return rev
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// readGitHead resolves HEAD within one .git directory (or worktree
// pointer file): a detached HEAD is the hash itself; a symbolic ref is
// resolved through the loose ref file, then packed-refs.
func readGitHead(gitDir string) string {
	if fi, err := os.Stat(gitDir); err != nil {
		return ""
	} else if !fi.IsDir() {
		// Worktree: ".git" is a file containing "gitdir: <path>".
		data, err := os.ReadFile(gitDir)
		if err != nil {
			return ""
		}
		line := strings.TrimSpace(string(data))
		if !strings.HasPrefix(line, "gitdir:") {
			return ""
		}
		gitDir = strings.TrimSpace(strings.TrimPrefix(line, "gitdir:"))
	}
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	line := strings.TrimSpace(string(head))
	if !strings.HasPrefix(line, "ref:") {
		return line // detached HEAD
	}
	ref := strings.TrimSpace(strings.TrimPrefix(line, "ref:"))
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(strings.TrimSpace(l), " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// Meta is one run's manifest entry: identity, keying, attribution, and
// a small summary for listings. It is the only place a run's wall-clock
// timestamp appears — segment files never embed one, which is what
// keeps them byte-identical across re-runs of the same (spec, seed,
// rev).
type Meta struct {
	// ID names the run directory, assigned when the run is saved:
	// <UTC-timestamp>-<kind>-<spec-hash-prefix>, uniquified on collision.
	ID string `json:"id"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Name labels the run (scenario spec name, CLI name).
	Name string `json:"name"`
	// SpecHash identifies what ran: a hash of the full spec/config.
	SpecHash string `json:"spec_hash"`
	Seed     int64  `json:"seed"`
	Attribution
	Timestamp time.Time `json:"timestamp"`

	// Listing summary, filled by the Save functions; LoadRunDir checks
	// the segments against it.
	Sites   int `json:"sites,omitempty"`
	Months  int `json:"months,omitempty"`
	Visits  int `json:"visits,omitempty"`
	Records int `json:"records,omitempty"`
}

// NewMeta assembles a manifest entry for a run about to start: kind and
// name label it, seed and the hash of spec (any canonical serialization
// of what is being run, e.g. scenario.Spec.CacheKey) key it, and the
// attribution and timestamp are stamped from the current process.
func NewMeta(kind, name string, seed int64, spec string) Meta {
	return Meta{
		Kind:        kind,
		Name:        name,
		SpecHash:    hashSpec(spec),
		Seed:        seed,
		Attribution: Stamp(),
		Timestamp:   time.Now().UTC(),
	}
}

// hashSpec is the store's spec identity: a short hex SHA-256.
func hashSpec(spec string) string {
	sum := sha256.Sum256([]byte(spec))
	return hex.EncodeToString(sum[:])[:12]
}

// shortRev abbreviates a revision hash for rendering.
func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
