package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pct returns the p-th percentile (nearest rank) of sorted samples, 0
// when there are none.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func sorted(s []float64) []float64 {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	return s
}

// series holds a measurement window's latency samples, each tagged
// with when it completed. Its tail and rate are medians over equal
// parts of the window, so a disturbance that hits a few seconds of a
// run (a noisy neighbour, a GC burst) moves them less than it would a
// whole-window figure.
type series struct {
	from, span int64     // window start and length, nanotime
	v          []float64 // latency, µs
	at         []int64   // completion time, ns into the window
}

func newSeries(from, to int64) *series { return &series{from: from, span: to - from} }

func (s *series) add(done int64, v float64) {
	s.v = append(s.v, v)
	s.at = append(s.at, done-s.from)
}

// parts splits the window into up to 10 equal parts such that, on
// average, each part still has ten samples beyond percentile p.
func (s *series) parts(p float64) int {
	return max(1, min(10, int(float64(len(s.v))*(1-p/100)/10)))
}

// byPart groups the samples into k parts by when they completed.
// Samples completing after the window (a closed loop's drain) count in
// the last part.
func (s *series) byPart(k int) [][]float64 {
	out := make([][]float64, k)
	for i, v := range s.v {
		p := min(max(int(s.at[i]*int64(k)/s.span), 0), k-1)
		out[p] = append(out[p], v)
	}
	return out
}

// p50 is the median of all samples.
func (s *series) p50() float64 { return pct(sorted(s.v), 50) }

// tail is the median over the window's parts of each part's p-th
// percentile.
func (s *series) tail(p float64) float64 {
	var ps []float64
	for _, part := range s.byPart(s.parts(p)) {
		ps = append(ps, pct(sorted(part), p))
	}
	return median(ps)
}

// rate is the median over the window's parts of each part's completion
// rate: its samples after the first, over the time from its first
// completion to its last.
func (s *series) rate() float64 {
	k := s.parts(90)
	first, last := make([]int64, k), make([]int64, k)
	n := make([]int, k)
	for _, at := range s.at {
		p := min(max(int(at*int64(k)/s.span), 0), k-1)
		if n[p] == 0 || at < first[p] {
			first[p] = at
		}
		last[p] = max(last[p], at)
		n[p]++
	}
	var rs []float64
	for p := range n {
		if n[p] > 1 && last[p] > first[p] {
			rs = append(rs, float64(n[p]-1)/(float64(last[p]-first[p])/1e9))
		}
	}
	return median(rs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of unsorted values.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPU is the process's user+system CPU time in ns.
func procCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeSample holds the Go runtime counters the stcps layer metrics
// are derived from.
type runtimeSample struct {
	allocs       uint64  // heap objects allocated
	gcCPU, total float64 // GC and total available CPU seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}
