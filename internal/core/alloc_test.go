//go:build !race

// Allocation regressions; race instrumentation skews allocation counts,
// so these run only in non-race builds.

package core

import (
	"runtime"
	"testing"
	"unsafe"

	"semholo/internal/compress"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/transport"
)

// decodeAllocSlack bounds warm keypoint decode's heap traffic relative
// to the meshes it returns. Measured 1.04× at res 80 (the rest is the
// LZR decode, pose unmarshal and per-frame posing); the slack absorbs
// scheduling-dependent par.For closures.
const decodeAllocSlack = 1.2

// TestKeypointDecodeWarmAllocs: once a warm decoder's scratch has grown
// to the stream's largest frame, a decode allocates little beyond the
// exact-size mesh it hands back.
func TestKeypointDecodeWarmAllocs(t *testing.T) {
	enc := newKeypointEncoder(false)
	var frames [][]transport.Frame
	for i := 0; i < 8; i++ {
		ef, err := enc.Encode(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, toFrames(ef))
	}
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 80, Workers: 2, WarmStart: true}
	// The first pass grows every arena to the largest frame; the second
	// pass is steady state.
	for _, f := range frames {
		if _, err := dec.Decode(f); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	var meshBytes uint64
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, f := range frames {
		d, err := dec.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		meshBytes += uint64(len(d.Mesh.Vertices))*uint64(unsafe.Sizeof(geom.Vec3{})) +
			uint64(len(d.Mesh.Faces))*uint64(unsafe.Sizeof(mesh.Face{}))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	ratio := float64(got) / float64(meshBytes)
	t.Logf("warm decode allocated %d B for %d B of meshes (%.3f×)", got, meshBytes, ratio)
	if ratio > decodeAllocSlack {
		t.Fatalf("warm decode allocated %.3f× its meshes' bytes, want ≤ %.2f×", ratio, decodeAllocSlack)
	}
}
