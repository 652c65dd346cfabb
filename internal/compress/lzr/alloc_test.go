//go:build !race

// Allocation regressions; race instrumentation skews allocation counts,
// so these run only in non-race builds.

package lzr

import (
	"math/rand"
	"runtime"
	"testing"
)

// compressAllocMax bounds Compress on a 2 KB input. Measured 9.3 KiB
// (model, coder output, header); a fresh 64K-entry hash head alone
// would be 256 KiB.
const compressAllocMax = 16 << 10

// TestCompressSmallInputAllocs: compressing a keypoint-sized payload
// takes its match-finder tables from the pools, so only the model, the
// range coder's output and the header are allocated.
func TestCompressSmallInputAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 2048)
	for i := range src {
		if i >= 64 && rng.Intn(3) > 0 {
			src[i] = src[i-64]
		} else {
			src[i] = byte(rng.Intn(32))
		}
	}
	Compress(src) // fills the pools
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Compress(src)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Compress(2 KB) allocated %d B/call", perCall)
	if perCall >= compressAllocMax {
		t.Fatalf("Compress(2 KB) allocated %d B/call, want < %d", perCall, compressAllocMax)
	}
}
