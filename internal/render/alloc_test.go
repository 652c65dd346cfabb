//go:build !race

// Allocation regressions; race instrumentation skews allocation counts,
// so these run only in non-race builds.

package render

import (
	"runtime"
	"testing"

	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// renderAllocMax bounds a RenderMesh call on a reused Frame. Measured
// 288 B/call serial and 640–1040 B/call on two workers (the band
// fan-out's goroutine closures) at 162 and 10242 vertices alike; a
// per-vertex projection buffer would be 48 B × vertices.
const renderAllocMax = 4 << 10

// TestRenderMeshReusedFrameAllocs: rendering into a reused Frame keeps
// its projection scratch, so a call allocates only the fixed cost of
// fanning out over bands, whatever the vertex count.
func TestRenderMeshReusedFrameAllocs(t *testing.T) {
	f := NewFrame(sphereCam(geom.V3(0, 0, -3), 64))
	for _, m := range []*mesh.Mesh{mesh.UnitSphere(2), mesh.UnitSphere(5)} {
		for _, workers := range []int{1, 2} {
			opt := MeshOptions{Workers: workers}
			RenderMesh(f, m, opt) // grows the scratch
			const runs = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				RenderMesh(f, m, opt)
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d vertices, workers %d: %d B/call", len(m.Vertices), workers, perCall)
			if perCall > renderAllocMax {
				t.Errorf("%d vertices, workers %d: RenderMesh allocated %d B/call on a reused frame, want ≤ %d",
					len(m.Vertices), workers, perCall, renderAllocMax)
			}
		}
	}
}
