package main

import (
	"runtime"
	"time"
)

// The sandbox this benchmark runs on shares its cores with neighbours
// and moves between speed regimes some 30% apart that last from seconds
// to many minutes: whole runs, and whole sets of runs, land in different
// regimes, and every workload moves with them. A speedometer times a
// fixed kernel throughout a run — two goroutines handing a token back
// and forth over unbuffered channels, which is what every netsim
// connection, server loop and worker pool of the program under test does
// between its own steps — and the end-to-end metrics are reported in
// seconds of a machine on which that kernel makes refTripsPerS round
// trips a second.
//
// Over 40 runs of each workload in a noisy hour the measured work_per_s
// followed the kernel's speed with slope 0.7 to 1.3 (r² about 0.7), and
// dividing by it narrowed the spread of work_per_s from 12-25% to 5-10%.
// README.md has the numbers per workload and the kernels tried and
// dropped (a random walk over memory under-corrects by half). All of
// that evidence is from one machine.
//
// The kernel shares the process with the program under test, so the
// callers of sample keep the program quiet while it runs: no call is in
// flight, the reloader of fleet-json-reload is held off, and sample
// itself first finishes a whole garbage collection, so that no marking
// or sweeping left over from the work just measured competes with it.
// What remains of the program during a sample is its idle servers. The
// kernel uses nothing of the repository, so no change to the program
// moves it except by leaving work running in the background.
type speedometer struct {
	sampleFor time.Duration
	samples   []float64 // round trips per second
}

// refTripsPerS is the kernel's usual speed on the 2-vCPU sandbox (the
// median of 240 runs). It only fixes the scale the metrics are printed
// in, so that there they read about what was measured; it cancels
// between two runs.
const refTripsPerS = 2.09e6

func newSpeedometer(sz sizes) *speedometer { return &speedometer{sampleFor: sz.sampleFor} }

// sample collects the process's garbage, then bounces a token between
// two goroutines for sampleFor and records the round trips per second.
// The caller keeps the program under test quiet meanwhile. A nil
// speedometer samples nothing.
func (s *speedometer) sample() {
	if s == nil {
		return
	}
	runtime.GC()
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	trips := 0
	start := time.Now()
	for time.Since(start) < s.sampleFor {
		for i := 0; i < 100; i++ {
			ping <- struct{}{}
			<-pong
		}
		trips += 100
	}
	el := time.Since(start).Seconds()
	close(ping)
	<-pong // the other goroutine has ended
	s.samples = append(s.samples, float64(trips)/el)
}

// factor is the machine's speed during the run relative to the
// reference machine: the median sample over refTripsPerS.
func (s *speedometer) factor() float64 { return median(s.samples) / refTripsPerS }
