// Package core is the experiment engine: every table and figure in the
// paper's evaluation is a named, runnable Experiment that drives the
// substrate packages through a shared Env and renders results in the
// paper's shape. RunAll schedules independent experiments on a bounded
// worker pool and emits results to a pluggable Sink in deterministic
// registration order. The cmd/somesite binary and the benchmark harness
// are thin wrappers around this package.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes experiment runs. The zero value is not usable; use
// DefaultConfig (paper scale) or QuickConfig (CI scale).
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies the longitudinal corpus populations (1.0 = the
	// paper's 40,455 analysis sites).
	Scale float64
	// BlockingSites is the §6.2 survey population (paper: 10,000).
	BlockingSites int
	// CloudflareSites is the §6.3 survey population (paper: 2,018).
	CloudflareSites int
	// Apps is the number of GPT apps exercised in §5.2.2.
	Apps int
	// Workers bounds probe and substrate concurrency (0 = GOMAXPROCS).
	Workers int
}

// effectiveWorkers resolves the Workers field (0 means GOMAXPROCS).
func (c Config) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig runs experiments at the paper's full scale.
func DefaultConfig() Config {
	return Config{
		Seed:            stats.DefaultSeed,
		Scale:           1.0,
		BlockingSites:   10_000,
		CloudflareSites: 2_018,
		Apps:            120,
		Workers:         64,
	}
}

// QuickConfig runs everything at reduced scale, suitable for tests.
func QuickConfig() Config {
	return Config{
		Seed:            stats.DefaultSeed,
		Scale:           0.08,
		BlockingSites:   600,
		CloudflareSites: 400,
		Apps:            60,
		Workers:         16,
	}
}

// Table is a rendered result table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Section is one heading plus its content.
type Section struct {
	Heading string         `json:",omitempty"`
	Table   *Table         `json:",omitempty"`
	Series  []stats.Series `json:",omitempty"`
	Notes   []string       `json:",omitempty"`
}

// Result is a completed experiment.
type Result struct {
	ID       string
	Title    string
	Sections []Section
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the registry key ("figure2", "table1", …).
	ID string
	// Title describes the artifact in the paper's terms.
	Title string
	// Run executes the experiment against a shared environment. It must
	// honor ctx cancellation and must not mutate env beyond its cache.
	Run func(ctx context.Context, env *Env) (*Result, error)
}

var (
	registryMu   sync.Mutex
	registry     []Experiment
	registryByID = make(map[string]Experiment)
	// registryWall holds each experiment's core_experiment_wall_ns series.
	registryWall = make(map[string]*obs.Histogram)
)

func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registryByID[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment id %q", e.ID))
	}
	registry = append(registry, e)
	registryByID[e.ID] = e
	registryWall[e.ID] = obs.NewHistogram(fmt.Sprintf(`core_experiment_wall_ns{id=%q}`, e.ID),
		"Wall-clock of one experiment's Run within RunAll, substrate builds it waits on included, ns.")
}

// wallClock returns the experiment's core_experiment_wall_ns series.
func wallClock(id string) *obs.Histogram {
	registryMu.Lock()
	defer registryMu.Unlock()
	return registryWall[id]
}

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	return append([]Experiment(nil), registry...)
}

// byID returns the experiment with the given ID.
func byID(id string) (Experiment, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	e, ok := registryByID[id]
	return e, ok
}

// pct formats a percentage cell.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// count formats an integer cell.
func count(v int) string { return fmt.Sprintf("%d", v) }
