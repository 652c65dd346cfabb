package avatar

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"semholo/internal/body"
	"semholo/internal/mesh"
)

// goldenMeshHashes pins the exact output of the sparse extractor: an
// FNV-64a hash over the vertex float bits and face indices of a 30-frame
// walking motion, per resolution. Any change to polygonization order,
// vertex numbering or interpolation arithmetic moves the hash.
var goldenMeshHashes = map[int]uint64{
	64: 0x269d0dbcd35d8f95,
	80: 0xb8971536f5e197fd,
}

// hashMesh folds one mesh into h: counts first, so frames cannot run
// together, then every vertex coordinate's bits and every face index.
func hashMesh(h interface{ Write([]byte) (int, error) }, m *mesh.Mesh) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(m.Vertices)))
	put(uint64(len(m.Faces)))
	for _, v := range m.Vertices {
		put(math.Float64bits(v.X))
		put(math.Float64bits(v.Y))
		put(math.Float64bits(v.Z))
	}
	for _, f := range m.Faces {
		put(uint64(f.A))
		put(uint64(f.B))
		put(uint64(f.C))
	}
}

// TestWarmStartGoldenMeshHash replays a fixed motion warm and cold at
// one and two workers and requires every configuration to hash to the
// pinned value: the extractor's output is byte-identical across warmth
// and scheduling, and across refactors of the extractor itself.
func TestWarmStartGoldenMeshHash(t *testing.T) {
	if testing.Short() {
		// A pure output check: `make cache-determinism` and plain
		// `go test` run it in full; under the race gate it would only
		// re-run the extraction the other warm/cold tests already race.
		t.Skip("golden mesh replay skipped in -short mode")
	}
	frames := motionFrames(body.Walking(nil), 30, 1.0/30)
	for _, res := range []int{64, 80} {
		for _, warm := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				rec := &Reconstructor{Model: fitModel, Resolution: res, Workers: workers, WarmStart: warm}
				h := fnv.New64a()
				for _, p := range frames {
					hashMesh(h, rec.Reconstruct(p))
				}
				if got := h.Sum64(); got != goldenMeshHashes[res] {
					t.Errorf("res %d warm=%v workers=%d: mesh hash %#x, want %#x",
						res, warm, workers, got, goldenMeshHashes[res])
				}
			}
		}
	}
}
