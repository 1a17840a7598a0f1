package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnapshot is the process-level state read at a phase boundary: the
// kernel's CPU and peak-RSS accounting plus the Go runtime's own
// counters from runtime/metrics.
type procSnapshot struct {
	at         time.Time
	cpu        time.Duration // user + system
	peakRSSKB  int64         // ru_maxrss: the VmHWM high-water mark, in KiB
	gcCPU      float64       // estimated GC CPU seconds
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// snapshot reads the process counters. A failed getrusage leaves the
// kernel fields zero; the caller reports what it got.
func snapshot() procSnapshot {
	s := procSnapshot{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.peakRSSKB = ru.Maxrss
	}
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, name := range goMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	s.allocBytes = samples[1].Value.Uint64()
	s.allocObjs = samples[2].Value.Uint64()
	s.gcCycles = samples[3].Value.Uint64()
	return s
}
