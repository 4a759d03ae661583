package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates the process start: package variables are
// initialised before main runs, after only the runtime's own start-up.
var procStart = time.Now()

// cpuTime returns the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime/metrics counters the benchmark reports.
// The sample slice is allocated once, so reading it during a measured
// phase allocates nothing.
type runtimeSample struct {
	s []metrics.Sample
}

const (
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
)

func newRuntimeSample() *runtimeSample {
	names := []string{mHeapAllocs, mGCCPU, mSchedLat, mLiveHeap}
	r := &runtimeSample{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

func (r *runtimeSample) read() { metrics.Read(r.s) }

func (r *runtimeSample) heapAllocs() uint64 { return r.s[0].Value.Uint64() }
func (r *runtimeSample) gcCPU() float64     { return r.s[1].Value.Float64() }
func (r *runtimeSample) liveHeap() uint64   { return r.s[3].Value.Uint64() }

// schedCounts copies the scheduler-latency histogram so a later sample
// can be differenced against it.
func (r *runtimeSample) schedCounts() []uint64 {
	return append([]uint64(nil), r.s[2].Value.Float64Histogram().Counts...)
}

// schedP50 returns the median scheduling latency, in seconds, of the
// goroutine wakeups between two histogram snapshots: the upper bound of
// the bucket holding the median.
func (r *runtimeSample) schedP50(before []uint64) float64 {
	h := r.s[2].Value.Float64Histogram()
	var total uint64
	for i, c := range h.Counts {
		total += c - before[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c - before[i]
		if seen*2 >= total {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// liveHeapAfterGC forces a collection and reports the heap still live.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	r := newRuntimeSample()
	r.read()
	return r.liveHeap()
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, fv := range fields[1:] {
			v, err := strconv.ParseUint(fv, 10, 64)
			if err != nil {
				return cpuStat{}
			}
			// guest and guest_nice (fields 9 and 10) are already
			// counted in user and nice.
			if i < 8 {
				st.total += v
			}
			if i == 7 {
				st.steal = v
			}
		}
		st.ok = true
		return st
	}
	return cpuStat{}
}

// stealShare is the share of the host's CPU time stolen by the
// hypervisor between two readings, or -1 when /proc/stat is unreadable.
func stealShare(a, b cpuStat) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile returns the p-th percentile (0..100, nearest rank) of
// samples, sorting them in place.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank]
}

// phase brackets one measured phase: process CPU, heap allocations,
// wall time and the host's steal counters at its start and end.
type phase struct {
	rt                *runtimeSample
	cpu0, cpu1        time.Duration
	alloc0, alloc1    uint64
	gc0, gc1          float64
	wall0, wall1      time.Time
	stat0, stat1      cpuStat
	sched0            []uint64
	schedP50          float64
	excluded          time.Duration
	excludedAllocated uint64
}

func newPhase() *phase { return &phase{rt: newRuntimeSample()} }

func (p *phase) start() {
	p.stat0 = readCPUStat()
	p.rt.read()
	p.alloc0, p.gc0 = p.rt.heapAllocs(), p.rt.gcCPU()
	p.sched0 = p.rt.schedCounts()
	p.wall0 = time.Now()
	p.cpu0 = cpuTime()
}

func (p *phase) stop() {
	p.cpu1 = cpuTime()
	p.wall1 = time.Now()
	p.rt.read()
	p.alloc1, p.gc1 = p.rt.heapAllocs(), p.rt.gcCPU()
	p.schedP50 = p.rt.schedP50(p.sched0)
	p.stat1 = readCPUStat()
}

// exclude runs fn (a correctness check inside the measured phase) and
// removes its CPU time and allocations from the phase's totals.
func (p *phase) exclude(fn func()) {
	c0 := cpuTime()
	p.rt.read()
	a0 := p.rt.heapAllocs()
	fn()
	p.rt.read()
	p.excludedAllocated += p.rt.heapAllocs() - a0
	p.excluded += cpuTime() - c0
}

func (p *phase) cpu() time.Duration  { return p.cpu1 - p.cpu0 - p.excluded }
func (p *phase) wall() time.Duration { return p.wall1.Sub(p.wall0) }
func (p *phase) allocated() uint64   { return p.alloc1 - p.alloc0 - p.excludedAllocated }
func (p *phase) steal() float64      { return stealShare(p.stat0, p.stat1) }

// gcShare is the runtime's estimate of GC CPU over the process's CPU.
func (p *phase) gcShare() float64 {
	c := (p.cpu1 - p.cpu0).Seconds()
	if c <= 0 {
		return 0
	}
	return math.Min(1, (p.gc1-p.gc0)/c)
}
