package obs

import (
	"runtime/metrics"
)

// Runtime GC gauges, sampled from runtime/metrics at render time via a
// Default-registry collector. These make the ROADMAP's "~8% of macro
// bench time in background marking" claim visible per run instead of
// requiring an offline profile.
var (
	gGCMarkSeconds = NewGauge("go_gc_mark_cpu_seconds",
		"Cumulative CPU seconds spent in GC mark (assist + dedicated + idle).")
	gCPUTotalSeconds = NewGauge("go_cpu_total_seconds",
		"Cumulative CPU seconds available to the process (runtime/metrics /cpu/classes/total).")
	gGCMarkFraction = NewGauge("go_gc_mark_cpu_fraction",
		"Fraction of available CPU spent in GC mark since process start.")
	gGCCycles = NewGauge("go_gc_cycles_total",
		"Completed GC cycles since process start.")
	gHeapObjects = NewGauge("go_heap_objects_bytes",
		"Bytes of live heap occupied by objects.")
)

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func init() { Default.addCollector(sampleRuntime) }

// sampleRuntime refreshes the runtime gauges. Also callable directly
// (e.g. before an end-of-run dump with collectors disabled).
func sampleRuntime() {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	mark := sampleFloat(s[0]) + sampleFloat(s[1]) + sampleFloat(s[2])
	total := sampleFloat(s[3])
	gGCMarkSeconds.Set(mark)
	gCPUTotalSeconds.Set(total)
	if total > 0 {
		gGCMarkFraction.Set(mark / total)
	}
	gGCCycles.Set(sampleFloat(s[4]))
	gHeapObjects.Set(sampleFloat(s[5]))
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	default:
		return 0
	}
}
