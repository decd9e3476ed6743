package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// A metric name is `family` or `family{label="x",other="y"}`. The part
// before the brace is the Prometheus family; everything inside braces is
// rendered verbatim as the label set. Families group in the output with
// one # TYPE line each.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name   string // full name incl. labels
	family string
	labels string // raw `a="b",c="d"` part, "" if none
	kind   metricKind
	help   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds registered metrics and renders them. Registration
// happens at package init or program start; rendering takes a snapshot
// under a read lock.
type Registry struct {
	mu         sync.RWMutex
	metrics    []*metric
	byName     map[string]*metric
	collectors []func()
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Default is the process-wide registry the package-level constructors
// register into.
var Default = newRegistry()

func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.name]; ok {
		if prev.kind != m.kind {
			panic("obs: metric " + m.name + " re-registered with a different kind")
		}
		// Idempotent re-registration returns the existing storage via
		// the caller's lookup; keep prev.
		return
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, help string) *Counter {
	fam, lab := splitName(name)
	r.mu.RLock()
	prev := r.byName[name]
	r.mu.RUnlock()
	if prev != nil && prev.kind == kindCounter {
		return prev.c
	}
	m := &metric{name: name, family: fam, labels: lab, kind: kindCounter, help: help, c: newCounter()}
	r.add(m)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name].c
}

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	fam, lab := splitName(name)
	r.mu.RLock()
	prev := r.byName[name]
	r.mu.RUnlock()
	if prev != nil && prev.kind == kindGauge {
		return prev.g
	}
	m := &metric{name: name, family: fam, labels: lab, kind: kindGauge, help: help, g: newGauge()}
	r.add(m)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name].g
}

// NewHistogram registers (or returns the existing) histogram under name.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	fam, lab := splitName(name)
	r.mu.RLock()
	prev := r.byName[name]
	r.mu.RUnlock()
	if prev != nil && prev.kind == kindHistogram {
		return prev.h
	}
	m := &metric{name: name, family: fam, labels: lab, kind: kindHistogram, help: help, h: newHistogram()}
	r.add(m)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name].h
}

// addCollector registers a function run at the start of every render —
// the hook point for sampled sources like runtime/metrics gauges.
func (r *Registry) addCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Package-level constructors against Default.
func NewCounter(name, help string) *Counter     { return Default.NewCounter(name, help) }
func NewGauge(name, help string) *Gauge         { return Default.NewGauge(name, help) }
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// snapshotMetrics runs collectors and returns a stable-ordered copy of
// the metric list (sorted by family then labels).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	collectors := append([]func(){}, r.collectors...)
	ms := append([]*metric{}, r.metrics...)
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Histograms render cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`; empty buckets
// are skipped (the cumulative count still covers them) to keep 64-bucket
// histograms from dominating the page.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.snapshotMetrics()
	var b strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if m.family != lastFamily {
			lastFamily = m.family
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.family, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, typeString(m.kind))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", promSeries(m.family, m.labels, ""), m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %g\n", promSeries(m.family, m.labels, ""), m.g.Value())
		case kindHistogram:
			s := m.h.Snapshot()
			var cum uint64
			for i := 0; i < histBuckets-1; i++ {
				if s.Buckets[i] == 0 {
					continue
				}
				cum += s.Buckets[i]
				fmt.Fprintf(&b, "%s %d\n",
					promSeries(m.family+"_bucket", m.labels, fmt.Sprintf(`le="%d"`, bucketUpper(i))), cum)
			}
			// The +Inf terminator always renders so the cumulative
			// series is complete even when the histogram is empty.
			fmt.Fprintf(&b, "%s %d\n", promSeries(m.family+"_bucket", m.labels, `le="+Inf"`), s.Count)
			fmt.Fprintf(&b, "%s %d\n", promSeries(m.family+"_sum", m.labels, ""), s.Sum)
			fmt.Fprintf(&b, "%s %d\n", promSeries(m.family+"_count", m.labels, ""), s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promSeries assembles `name{labels,extra}` with correct brace handling
// for any combination of empty parts.
func promSeries(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// WriteJSON renders every metric as one JSON object keyed by full
// metric name; histograms include count/sum/mean and the p50/p90/p99
// bucket upper bounds. Keys are sorted, output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	ms := r.snapshotMetrics()
	var b strings.Builder
	b.WriteString("{\n")
	for i, m := range ms {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  %q: ", m.name)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%d", m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%g", m.g.Value())
		case kindHistogram:
			s := m.h.Snapshot()
			_, p50 := s.Quantile(0.50)
			_, p90 := s.Quantile(0.90)
			_, p99 := s.Quantile(0.99)
			fmt.Fprintf(&b, `{"count":%d,"sum":%d,"mean":%.1f,"p50_le":%d,"p90_le":%d,"p99_le":%d}`,
				s.Count, s.Sum, s.Mean(), p50, p90, p99)
		}
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
