package gaze

import (
	"math"
	"testing"

	"semholo/internal/geom"
)

func TestClassifierThresholds(t *testing.T) {
	c := DefaultClassifier()
	mk := func(speed float64) (Sample, Sample) {
		return Sample{T: 0, Pos: geom.V2(0, 0)},
			Sample{T: 0.01, Pos: geom.V2(speed*0.01, 0)}
	}
	a, b := mk(5)
	if got := c.Classify(a, b); got != Fixation {
		t.Errorf("5 deg/s = %v", got)
	}
	a, b = mk(60)
	if got := c.Classify(a, b); got != SmoothPursuit {
		t.Errorf("60 deg/s = %v", got)
	}
	a, b = mk(400)
	if got := c.Classify(a, b); got != Saccade {
		t.Errorf("400 deg/s = %v", got)
	}
}

func TestClassifierDegenerateDt(t *testing.T) {
	c := DefaultClassifier()
	s := Sample{T: 1, Pos: geom.V2(3, 3)}
	if got := c.Classify(s, s); got != Fixation {
		t.Errorf("zero-dt = %v", got)
	}
}

func TestMovementStrings(t *testing.T) {
	if Fixation.String() == Saccade.String() || Movement(99).String() != "unknown" {
		t.Error("movement strings broken")
	}
}

func TestPredictorHoldsDuringFixation(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(1, 1)}, 0.05)
	pred, mv := p.Observe(Sample{T: 0.01, Pos: geom.V2(1.001, 1)}, 0.05)
	if mv != Fixation {
		t.Fatalf("movement = %v", mv)
	}
	if pred.Dist(geom.V2(1.001, 1)) > 1e-9 {
		t.Errorf("fixation prediction drifted to %v", pred)
	}
}

func TestPredictorExtrapolatesPursuit(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(0, 0)}, 0.1)
	// 50 deg/s rightward.
	pred, mv := p.Observe(Sample{T: 0.01, Pos: geom.V2(0.5, 0)}, 0.1)
	if mv != SmoothPursuit {
		t.Fatalf("movement = %v", mv)
	}
	want := geom.V2(0.5+50*0.1, 0)
	if pred.Dist(want) > 1e-6 {
		t.Errorf("pursuit prediction %v, want %v", pred, want)
	}
}

func TestPredictorLeadsSaccade(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(0, 0)}, 0.05)
	// 300 deg/s saccade.
	cur := Sample{T: 0.01, Pos: geom.V2(3, 0)}
	pred, mv := p.Observe(cur, 0.05)
	if mv != Saccade {
		t.Fatalf("movement = %v", mv)
	}
	// Prediction must lead the current position along the motion.
	if pred.X <= cur.Pos.X {
		t.Errorf("saccade prediction %v does not lead %v", pred, cur.Pos)
	}
}

func TestScriptProducesSaccadesAndFixations(t *testing.T) {
	script := NewScript(3)
	cls := DefaultClassifier()
	counts := map[Movement]int{}
	prev := script.At(0)
	for i := 1; i < 3000; i++ {
		cur := script.At(float64(i) * 0.002) // 500 Hz
		counts[cls.Classify(prev, cur)]++
		prev = cur
	}
	if counts[Fixation] == 0 || counts[Saccade] == 0 {
		t.Errorf("gaze script lacks variety: %v", counts)
	}
	// Mostly fixation (natural viewing is ~90% fixation time).
	if counts[Fixation] < counts[Saccade] {
		t.Errorf("more saccade samples than fixation: %v", counts)
	}
}

func TestScriptMonotonicSafe(t *testing.T) {
	script := NewScript(4)
	last := script.At(0)
	for i := 1; i < 500; i++ {
		s := script.At(float64(i) * 0.01)
		if math.IsNaN(s.Pos.X) || math.IsNaN(s.Pos.Y) {
			t.Fatal("NaN gaze sample")
		}
		if s.T < last.T {
			t.Fatal("time went backwards")
		}
		last = s
	}
}

func TestPredictorReducesSaccadeError(t *testing.T) {
	// Over a scripted trace, predicting with the saccade model must
	// beat the zero-order hold (use current gaze) during saccades.
	// The script is stateful in time, so precompute the whole trace with
	// monotonic queries before evaluating predictions against it.
	script := NewScript(5)
	const horizon = 0.03
	const dt = 0.004
	const steps = 4000
	lead := int(math.Round(horizon / dt))
	trace := make([]Sample, steps+lead+1)
	for i := range trace {
		trace[i] = script.At(float64(i) * dt)
	}
	pred := NewPredictor()
	cls := DefaultClassifier()
	var errPred, errHold float64
	n := 0
	for i := 1; i < steps; i++ {
		cur := trace[i]
		future := trace[i+lead]
		p, _ := pred.Observe(cur, horizon)
		if cls.Classify(trace[i-1], cur) == Saccade {
			errPred += p.Dist(future.Pos)
			errHold += cur.Pos.Dist(future.Pos)
			n++
		}
	}
	if n == 0 {
		t.Skip("no saccade samples in trace")
	}
	if errPred >= errHold {
		t.Errorf("saccade prediction error %.2f not better than hold %.2f (n=%d)",
			errPred/float64(n), errHold/float64(n), n)
	}
}

func TestFovealSelector(t *testing.T) {
	f := FovealSelector{Radius: 5, ViewDistance: 2}
	anchor := geom.V3(0, 1, 0)
	if !f.InFovea(anchor, anchor) {
		t.Error("anchor not in fovea")
	}
	// 5° at 2 m ≈ 0.175 m.
	near := anchor.Add(geom.V3(0.1, 0, 0))
	far := anchor.Add(geom.V3(0.5, 0, 0))
	if !f.InFovea(near, anchor) {
		t.Error("near point excluded")
	}
	if f.InFovea(far, anchor) {
		t.Error("far point included")
	}
	centroids := []geom.Vec3{anchor, near, far}
	if fov := countInFovea(f, centroids, anchor); fov != 2 {
		t.Errorf("split %d/%d", fov, len(centroids)-fov)
	}
}

// countInFovea counts the points f places in the fovea around anchor.
func countInFovea(f FovealSelector, pts []geom.Vec3, anchor geom.Vec3) int {
	n := 0
	for _, p := range pts {
		if f.InFovea(p, anchor) {
			n++
		}
	}
	return n
}

func TestFovealSelectorRadiusMonotone(t *testing.T) {
	anchor := geom.V3(0, 0, 0)
	centroids := make([]geom.Vec3, 50)
	for i := range centroids {
		centroids[i] = geom.V3(float64(i)*0.02, 0, 0)
	}
	small := FovealSelector{Radius: 2, ViewDistance: 2}
	large := FovealSelector{Radius: 8, ViewDistance: 2}
	fs := countInFovea(small, centroids, anchor)
	fl := countInFovea(large, centroids, anchor)
	if fl <= fs {
		t.Errorf("larger radius selected fewer faces: %d vs %d", fl, fs)
	}
}
