// Command perfbench is SemHolo's end-to-end benchmark: one process runs
// one workload (call-direct, room-fanout or decode-service) for a fixed
// window, checks the program's outputs, and prints every metric by name
// with its unit. With -trace 0 it reports the end-to-end metrics; with
// -trace 1 it measures the same workload untraced and then traced, and
// reports the per-layer metrics (see README.md). The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics.
//
//	go build -o perfbench . && ./perfbench -workload call-direct -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"semholo/internal/mesh"
)

// metricDef names one reported metric and its unit. The same tables are
// declared in BENCHMARK.json; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"m2p_p50_ms", "ms"},
	{"m2p_p95_ms", "ms"},
	{"on_time_frac", "fraction"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p95_ms", "ms"},
	{"delivered_frac", "fraction"},
	{"decode_fps", "frames/s"},
	{"wire_bytes_per_frame", "B"},
	{"chamfer_mm", "mm"},
	{"cpu_ms_per_frame", "ms"},
	{"alloc_kb_per_frame", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"loadgen.lag_p95_ms", "ms"},
	{"capture.ms_per_frame", "ms"},
	{"encode.ms_p50", "ms"},
	{"encode.ms_p95", "ms"},
	{"encode.bytes_tier0", "B"},
	{"encode.bytes_tier1", "B"},
	{"encode.bytes_tier2", "B"},
	{"transmit.ms_p50", "ms"},
	{"transmit.ms_p95", "ms"},
	{"transport.header_bytes_per_frame", "B"},
	{"wire.ms_p50", "ms"},
	{"wire.ms_p95", "ms"},
	{"wire.excess_ms_p95", "ms"},
	{"relay.dwell_ms_p50", "ms"},
	{"relay.dwell_ms_p95", "ms"},
	{"relay.shed_frac", "fraction"},
	{"relay.tier_switches", "count"},
	{"relay.top_tier_share", "fraction"},
	{"relay.slow_leg_tier_mean", "tier"},
	{"trunk.dwell_ms_p95", "ms"},
	{"deliver_p95_ms.home", "ms"},
	{"deliver_p95_ms.trunked", "ms"},
	{"deliver_p95_ms.fast", "ms"},
	{"deliver_p95_ms.slow", "ms"},
	{"pipeline.dropped_frac", "fraction"},
	{"pipeline.queue_wait_ms_p95", "ms"},
	{"decode.ms_p50", "ms"},
	{"decode.ms_p95", "ms"},
	{"recon.warm_frac", "fraction"},
	{"recon.sample_reuse_frac", "fraction"},
	{"field.capsule_tests_per_sample", "count"},
	{"service.call_ms_p50", "ms"},
	{"service.call_ms_p95", "ms"},
	{"meshcache.hit_frac", "fraction"},
	{"meshcache.crosstenant_hits", "count"},
	{"render.ms_p50", "ms"},
	{"render.ms_p95", "ms"},
	{"runtime.sched_p99_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.goroutines_peak", "count"},
	{"harness.cpu_ms_per_frame", "ms"},
	{"harness.deliver_p95_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"trace.m2p_p50_ms", "ms"},
	{"trace.blocking_sum_p50_ms", "ms"},
}

// fps is the publishers' capture rate: the paper's 30 fps holographic
// stream, whose 33 ms frame interval sets the scheduler-latency alarm.
const fps = 30.0

// frameInterval is 1/fps.
const frameInterval = time.Second / fps

// onTimeBudget is the paper's interactive motion-to-photon limit.
const onTimeBudget = 100 * time.Millisecond

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
}

// setupReps is how many times a run builds its world; setup_s is the
// median, and all but the last build are torn down.
func (c config) setupReps() int {
	if c.smoke {
		return 1
	}
	return 5
}

// subWindows is how many equal parts the main window is cut into. Each
// latency percentile and per-frame cost is computed per part and the
// median reported, so a burst of host noise moves one value of three. At
// 20 s and 30 fps a part holds 200 frames: ten beyond its p95.
func (c config) subWindows() int {
	if c.smoke {
		return 1
	}
	return 3
}

// warmup is the streamed lead-in before the first measured window:
// queues fill, tier selectors settle and warm decoders get their first
// frame.
func (c config) warmup() time.Duration {
	if c.smoke {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// plan lays a run out on the frame schedule. Frame i is due at
// start + i/fps. Frames [0, warm) are warm-up; with tracing on, the
// untraced reference window [warm, ref), half as long as the main
// window, precedes the traced main window [ref, end); without it the
// main window is [warm, end).
type plan struct {
	start            time.Time
	warm, ref, total int
	subs             int
	traced           bool
}

func newPlan(c config) plan {
	warm := int(c.warmup().Seconds() * fps)
	n := int(math.Round(c.seconds * fps))
	if n < 2 {
		n = 2
	}
	p := plan{warm: warm, ref: warm, total: warm + n, subs: c.subWindows(), traced: c.traced}
	if c.traced {
		p.ref = warm + n/2
		p.total = p.ref + n
	}
	return p
}

func (p plan) due(i int) time.Time { return p.start.Add(time.Duration(i) * frameInterval) }

// inMain reports whether frame i is in the measured main window.
func (p plan) inMain(i int) bool { return i >= p.ref && i < p.total }

// tracing reports whether frame i's spans are recorded.
func (p plan) tracing(i int) bool { return p.traced && p.inMain(i) }

func (p plan) mainFrames() int { return p.total - p.ref }

// subStart is the first frame of main sub-window k (k == subs gives the
// window's end).
func (p plan) subStart(k int) int { return p.ref + k*p.mainFrames()/p.subs }

// sub is the main sub-window frame i falls in, or -1 outside the main
// window.
func (p plan) sub(i int) int {
	if !p.inMain(i) {
		return -1
	}
	return (i - p.ref) * p.subs / p.mainFrames()
}

// frameOfDue maps a capture stamp that is a frame's due time (µs) back
// to the frame index.
func (p plan) frameOfDue(us uint64) int {
	return int(math.Round(float64(int64(us)-p.start.UnixMicro()) / float64(frameInterval.Microseconds())))
}

// runWindows opens the reference window and the main sub-windows at
// their first frames' due times and returns them once all have closed
// (ref is nil without tracing). atMain, when set, runs as the main
// window opens. It blocks for the whole schedule.
func (p plan) runWindows(probe func() []float64, atMain func()) (ref *window, main windows) {
	sleepUntil(p.due(p.warm))
	if p.traced {
		ref = openWindow(probe)
		ref.frames = p.ref - p.warm
		sleepUntil(p.due(p.ref))
		ref.close()
	}
	if atMain != nil {
		atMain()
	}
	for k := 0; k < p.subs; k++ {
		w := openWindow(probe)
		w.frames = p.subStart(k+1) - p.subStart(k)
		sleepUntil(p.due(p.subStart(k + 1)))
		w.close()
		main = append(main, w)
	}
	return ref, main
}

// subQuantile is the median, over the main sub-windows, of each
// sub-window's q-quantile of its samples.
func subQuantile(parts [][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range parts {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// result is what a workload reports.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// addWindow fills the metrics every workload derives from its main
// sub-windows and, when tracing, the reference window. frames is a
// window's denominator: frames due, or decodes completed.
func (r *result) addWindow(ref *window, main windows, frames func(*window) float64) {
	cpu := main.median(func(w *window) float64 { return ratio(w.cpuMs(), frames(w)) })
	r.metrics["cpu_ms_per_frame"] = cpu
	r.metrics["alloc_kb_per_frame"] = main.median(func(w *window) float64 { return ratio(w.allocKiB(), frames(w)) })
	r.metrics["runtime.sched_p99_ms"] = main.median((*window).schedP99Ms)
	r.metrics["runtime.gc_cpu_frac"] = main.median((*window).gcCPUFrac)
	peak := 0
	for _, w := range main {
		peak = max(peak, w.goroutines)
	}
	r.metrics["runtime.goroutines_peak"] = float64(peak)
	if ref != nil {
		r.metrics["trace.overhead_frac"] = ratio(cpu, ratio(ref.cpuMs(), frames(ref))) - 1
	}
}

// dueFrames is the denominator of an open-loop workload's windows.
func dueFrames(w *window) float64 { return float64(w.frames) }

// setUp builds a workload's world cfg.setupReps() times, tears down all
// but the last build, and returns it with the median build time in
// seconds.
func setUp[W any](cfg config, build func(config) (W, error), teardown func(W)) (W, float64, error) {
	var w W
	var secs []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		begin := time.Now()
		next, err := build(cfg)
		if err != nil {
			return w, 0, err
		}
		secs = append(secs, time.Since(begin).Seconds())
		if rep < cfg.setupReps()-1 {
			teardown(next)
			runtime.GC()
			continue
		}
		w = next
	}
	return w, median(secs), nil
}

// meshHash fingerprints a mesh's geometry and topology.
func meshHash(m *mesh.Mesh) uint64 {
	if m == nil {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.Vertices {
		for _, x := range [3]float64{v.X, v.Y, v.Z} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	for _, f := range m.Faces {
		for _, x := range [3]int{f.A, f.B, f.C} {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// header is the run's environment record, printed before the result.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	// SchedBound marks a run whose scheduler-latency p99 exceeded a
	// tenth of the frame interval: its latencies then measure the Go
	// scheduler, not the system.
	SchedBound  bool    `json:"sched_bound"`
	SchedP99Ms  float64 `json:"sched_p99_ms"`
	GCCPUFrac   float64 `json:"gc_cpu_frac"`
	Goroutines  int     `json:"goroutines_peak"`
	DurationSec float64 `json:"duration_s"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out revision from the build stamp, or from
// .git in the working directory; a source tree without either reports
// "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(config) (*result, error){
	"call-direct":    runCallDirect,
	"room-fanout":    runRoomFanout,
	"decode-service": runDecodeService,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "call-direct | room-fanout | decode-service")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured window length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "short run: one build, short warm-up")
	flag.StringVar(&c.outDir, "out", ".bench_build", "directory for span dumps")
	flag.Parse()
	c.traced = trace == 1
	run, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	began := time.Now()
	res, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		os.Exit(1)
	}

	h := header{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit(),
		SchedP99Ms:  res.metrics["runtime.sched_p99_ms"],
		GCCPUFrac:   res.metrics["runtime.gc_cpu_frac"],
		Goroutines:  int(res.metrics["runtime.goroutines_peak"]),
		DurationSec: time.Since(began).Seconds(),
	}
	h.SchedBound = h.SchedP99Ms > frameInterval.Seconds()*1e3/10
	hb, _ := json.Marshal(h)
	fmt.Printf("header %s\n", hb)
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}

	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A layer a workload does not exercise reads 0 (README.md).
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	extra := make([]string, 0)
	for n := range res.metrics {
		if _, ok := out.Metrics[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Printf("info %-34s %14.4f\n", n, res.metrics[n])
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}
