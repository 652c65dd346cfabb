package main

import (
	"encoding/json"
	"os"
	"testing"
)

// layersOf lists the per-layer metrics each workload measures; the
// others read 0 on it (README.md, "Per-layer metrics").
var layersOf = map[string][]string{
	"call-direct": {
		"loadgen.lag_p95_ms", "capture.ms_per_frame", "encode.ms_p50", "encode.ms_p95", "encode.bytes_tier0",
		"transmit.ms_p50", "transmit.ms_p95", "transport.header_bytes_per_frame",
		"wire.ms_p50", "wire.ms_p95", "wire.excess_ms_p95",
		"pipeline.dropped_frac", "pipeline.queue_wait_ms_p95", "decode.ms_p50", "decode.ms_p95",
		"recon.warm_frac", "recon.sample_reuse_frac", "field.capsule_tests_per_sample",
		"render.ms_p50", "render.ms_p95",
		"runtime.sched_p99_ms", "runtime.gc_cpu_frac", "runtime.goroutines_peak",
		"harness.cpu_ms_per_frame", "harness.deliver_p95_ms",
		"trace.overhead_frac", "trace.m2p_p50_ms", "trace.blocking_sum_p50_ms",
	},
	"room-fanout": {
		"loadgen.lag_p95_ms", "capture.ms_per_frame", "encode.ms_p50", "encode.ms_p95",
		"encode.bytes_tier0", "encode.bytes_tier1", "encode.bytes_tier2",
		"transmit.ms_p50", "transmit.ms_p95", "transport.header_bytes_per_frame",
		"wire.ms_p50", "wire.ms_p95", "wire.excess_ms_p95",
		"relay.dwell_ms_p50", "relay.dwell_ms_p95", "relay.shed_frac", "relay.tier_switches",
		"relay.top_tier_share", "relay.slow_leg_tier_mean", "trunk.dwell_ms_p95",
		"deliver_p95_ms.home", "deliver_p95_ms.trunked", "deliver_p95_ms.fast", "deliver_p95_ms.slow", "decode.ms_p50", "decode.ms_p95",
		"recon.warm_frac", "recon.sample_reuse_frac", "field.capsule_tests_per_sample",
		"render.ms_p50", "render.ms_p95",
		"runtime.sched_p99_ms", "runtime.gc_cpu_frac", "runtime.goroutines_peak",
		"harness.cpu_ms_per_frame", "harness.deliver_p95_ms",
		"trace.overhead_frac", "trace.m2p_p50_ms", "trace.blocking_sum_p50_ms",
	},
	"decode-service": {
		"loadgen.lag_p95_ms", "capture.ms_per_frame", "encode.ms_p50", "encode.ms_p95", "encode.bytes_tier0",
		"decode.ms_p50", "decode.ms_p95", "recon.warm_frac", "recon.sample_reuse_frac",
		"field.capsule_tests_per_sample", "service.call_ms_p50", "service.call_ms_p95",
		"meshcache.hit_frac", "meshcache.crosstenant_hits",
		"runtime.sched_p99_ms", "runtime.gc_cpu_frac", "runtime.goroutines_peak", "trace.overhead_frac",
	},
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestTablesMatchBenchmarkJSON keeps the program's metric and workload
// tables identical to BENCHMARK.json.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if _, ok := layersOf[w.Name]; !ok {
			t.Errorf("workload %q has no per-layer list", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it passes its output checks and sets every end-to-end metric and
// every per-layer metric it measures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, traced: traced, smoke: true, outDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, traced, res.attempted, res.failed, res.notes)
			}
			want := make([]string, 0, len(endToEnd))
			for _, d := range endToEnd {
				want = append(want, d.name)
			}
			if traced {
				want = layersOf[name]
			}
			for _, n := range want {
				if _, ok := res.metrics[n]; !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", name, traced, n)
				}
			}
		}
	}
}
