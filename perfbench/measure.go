package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

func msMicros(fromUS, toUS uint64) float64 { return (float64(toUS) - float64(fromUS)) / 1e3 }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rtSample is one read of the Go runtime counters a window reports.
type rtSample struct {
	at       time.Time
	cpu      time.Duration
	sched    *metrics.Float64Histogram
	gcCPU    float64
	totalCPU float64
	allocs   uint64
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	return rtSample{
		at:       time.Now(),
		cpu:      cpuTime(),
		sched:    &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		allocs:   s[3].Value.Uint64(),
	}
}

// window brackets one measured interval: process CPU, heap allocation,
// GC CPU share, scheduler latency and the goroutine high-water mark.
type window struct {
	start, end rtSample
	// probe reads a workload's own counters; at holds its value at open
	// and close.
	probe      func() []float64
	at         [2][]float64
	frames     int // frames due inside the window (open-loop workloads)
	goroutines int
	stop       chan struct{}
	done       chan struct{}
}

// openWindow samples the runtime and probe now and polls the goroutine
// count until close.
func openWindow(probe func() []float64) *window {
	w := &window{probe: probe, goroutines: runtime.NumGoroutine(), stop: make(chan struct{}), done: make(chan struct{})}
	if probe != nil {
		w.at[0] = probe()
	}
	w.start = readRuntime()
	go func() {
		defer close(w.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > w.goroutines {
					w.goroutines = n
				}
			}
		}
	}()
	return w
}

func (w *window) close() {
	close(w.stop)
	<-w.done
	w.end = readRuntime()
	if w.probe != nil {
		w.at[1] = w.probe()
	}
}

// delta is the change of probe value k across the window.
func (w *window) delta(k int) float64 { return w.at[1][k] - w.at[0][k] }

// windows are the consecutive parts of one measured window.
type windows []*window

// median is the median of f over the parts.
func (ws windows) median(f func(*window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// delta is the change of probe value k across all parts.
func (ws windows) delta(k int) float64 { return ws[len(ws)-1].at[1][k] - ws[0].at[0][k] }

// rate is the median over the parts of probe value k's change per
// second.
func (ws windows) rate(k int) float64 {
	return ws.median(func(w *window) float64 { return ratio(w.delta(k), w.seconds()) })
}

func (w *window) seconds() float64 { return w.end.at.Sub(w.start.at).Seconds() }

func (w *window) cpuMs() float64 { return float64(w.end.cpu-w.start.cpu) / 1e6 }

func (w *window) allocKiB() float64 { return float64(w.end.allocs-w.start.allocs) / 1024 }

func (w *window) gcCPUFrac() float64 {
	return ratio(w.end.gcCPU-w.start.gcCPU, w.end.totalCPU-w.start.totalCPU)
}

// schedP99Ms is the 99th percentile of goroutine scheduling latency
// (runnable → running) inside the window, interpolated within the
// runtime histogram's bucket.
func (w *window) schedP99Ms() float64 {
	a, b := w.start.sched, w.end.sched
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	target := 0.99 * float64(total)
	cum := 0.0
	for i, c := range diff {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + (hi-lo)*(target-cum)/float64(c)) * 1e3
		}
		cum += float64(c)
	}
	return 0
}

// span is one timed interval of a frame's path through one layer.
// Trace is the frame's index in the workload schedule, shared by every
// span of that frame; Parent indexes the frame's root span (the root
// itself has Parent -1). Times are nanoseconds since the run's epoch.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStore keeps a run's spans in memory until the run ends.
type spanStore struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (s *spanStore) ns(t time.Time) int64 { return int64(t.Sub(s.epoch)) }

// root adds a frame's root span and returns its index.
func (s *spanStore) root(name string, trace int, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{Name: name, Trace: trace, Parent: -1, Start: s.ns(start), End: s.ns(end)})
	return len(s.spans) - 1
}

// child adds a span under parent (the frame's root index, or -1).
func (s *spanStore) child(name string, trace, parent int, start, end time.Time) {
	if end.Before(start) {
		end = start
	}
	s.mu.Lock()
	s.spans = append(s.spans, span{Name: name, Trace: trace, Parent: parent, Start: s.ns(start), End: s.ns(end)})
	s.mu.Unlock()
}

// selfMs returns every span's self time — its duration minus the time
// its children cover — in milliseconds, grouped by span name.
func (s *spanStore) selfMs() map[string][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := make([]int64, len(s.spans))
	for _, sp := range s.spans {
		if sp.Parent >= 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string][]float64{}
	for i, sp := range s.spans {
		self := sp.End - sp.Start - covered[i]
		if self < 0 {
			self = 0
		}
		out[sp.Name] = append(out[sp.Name], float64(self)/1e6)
	}
	return out
}

// write dumps the spans as JSON lines.
func (s *spanStore) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	s.mu.Lock()
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
