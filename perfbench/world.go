package main

import (
	"time"

	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/experiments"
	"semholo/internal/keypoint"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/render"
)

// loopFrames is how many distinct captures a publisher cycles through.
// Capture is the simulated camera, not the system under test, so it runs
// during set-up; two seconds of motion keep every pose in a window
// distinct from its neighbours.
const loopFrames = 60

// scene is one seeded capture site: the simulated RGB-D rig (sensor
// noise and link jitter draw on the seed) and its pre-rendered captures.
type scene struct {
	env  *experiments.Env
	caps []capture.Capture
	// index maps a capture's ground-truth mesh back to its loop slot.
	index map[*mesh.Mesh]int
	// captureMs is the mean Sequence.FrameAt cost.
	captureMs float64
}

// newScene captures n frames starting at motion frame offset.
func newScene(seed int64, offset, n int) *scene {
	env := experiments.NewEnv(experiments.EnvOptions{Seed: seed})
	s := &scene{env: env, caps: make([]capture.Capture, n), index: make(map[*mesh.Mesh]int, n)}
	begin := time.Now()
	for k := range s.caps {
		s.caps[k] = env.Seq.FrameAt(offset + k)
		s.index[s.caps[k].Mesh] = k
	}
	s.captureMs = msBetween(begin, time.Now()) / float64(n)
	return s
}

// keypointEncoder is the standard keypoint encoder (the configuration
// the experiments and cmds use).
func (s *scene) keypointEncoder() *core.KeypointEncoder {
	return &core.KeypointEncoder{
		Model:    s.env.Model,
		Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
}

// chamferMm is the mean chamfer distance of decoded meshes to their
// ground truth, in millimetres, over pairs sampled after the window.
func chamferMm(pairs [][2]*mesh.Mesh) float64 {
	var xs []float64
	for _, p := range pairs {
		if p[0] == nil || p[1] == nil {
			continue
		}
		xs = append(xs, metrics.CompareMeshes(p[0], p[1], 2000, 0.02).Chamfer*1e3)
	}
	return mean(xs)
}

// renderer draws decoded meshes from the scene's probe camera — the
// "photon" end of motion-to-photon.
type renderer struct{ frame *render.Frame }

func newRenderer(s *scene) *renderer { return &renderer{frame: render.NewFrame(s.env.Probe)} }

func (r *renderer) draw(m *mesh.Mesh) {
	if m == nil {
		return
	}
	r.frame.Clear()
	render.RenderMesh(r.frame, m, render.MeshOptions{})
}
