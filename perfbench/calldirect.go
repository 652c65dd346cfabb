package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/pipeline"
	"semholo/internal/transport"
)

// callDirectRes is the receiver's reconstruction resolution: it keeps the
// decode stage under half the 33 ms frame interval on a 2-core host, so
// the call is loaded but not saturated. At 96 decode took 52–63% of the
// interval there, and host noise then queued frames often enough to
// swing m2p_p95_ms by up to 18% between runs.
const callDirectRes = 80

// sampleEvery spaces the frames whose outputs are kept for the
// correctness and quality checks: the first frame decoded at or after
// each sampling point, so a dropped frame does not skip its sample.
const sampleEvery = 16

// cdFrame is what the benchmark saw of one scheduled frame. Each field
// is written by one pipeline goroutine and read after the run.
type cdFrame struct {
	wake                   time.Time
	encStart, encEnd       time.Time
	encBytes               int
	sendUS                 uint64
	decStart, decEnd       time.Time
	arrived                time.Time
	renderStart, renderEnd time.Time
	rendered               bool
}

// cdSample is a decoded frame kept for the post-run checks.
type cdSample struct {
	i      int
	frames []transport.Frame
	hash   uint64
	mesh   *mesh.Mesh
}

// callDirect is the paper's §4 two-party keypoint call over the staged
// runtime and one broadband link.
type callDirect struct {
	plan plan
	sc   *scene

	cancel   context.CancelFunc
	link     *netsim.Link
	sendSess *transport.Session
	sender   *core.Sender
	receiver *core.Receiver
	rend     *renderer
	recon    metrics.ReconCounters
	field    metrics.FieldCounters

	frames []cdFrame
	// entered[i] is when the capture stage asked for frame i (unix µs);
	// the sender stamps the instant just before it as the frame's capture
	// time, so entered maps wire stamps back to frame indices.
	entered  []atomic.Int64
	produced atomic.Int64

	decodes      atomic.Int64
	payloadBytes atomic.Int64
	samples      []cdSample
	nextSample   int // owned by the decode stage
}

func newCallDirect(cfg config) (*callDirect, error) {
	n := loopFrames
	if cfg.smoke {
		n = 8
	}
	cd := &callDirect{plan: newPlan(cfg), sc: newScene(cfg.seed, 0, n)}
	cd.frames = make([]cdFrame, cd.plan.total)
	cd.entered = make([]atomic.Int64, cd.plan.total)
	cd.rend = newRenderer(cd.sc)

	ctx, cancel := context.WithCancel(context.Background())
	cd.cancel = cancel
	a, b, link := netsim.Pipe(netsim.BroadbandUS(cfg.seed))
	cd.link = link
	type accepted struct {
		s   *transport.Session
		err error
	}
	ach := make(chan accepted, 1)
	go func() {
		s, _, err := transport.AcceptContext(ctx, b, transport.Hello{Peer: "receiver", Mode: "keypoint"})
		ach <- accepted{s, err}
	}()
	sendSess, _, err := transport.DialContext(ctx, a, transport.Hello{Peer: "sender", Mode: "keypoint", FPS: fps})
	acc := <-ach
	if err == nil {
		err = acc.err
	}
	if err != nil {
		cd.close()
		return nil, fmt.Errorf("call handshake: %w", err)
	}
	cd.sendSess = sendSess
	cd.sender = &core.Sender{
		Session: sendSess,
		Encoder: &cdEncoder{inner: cd.sc.keypointEncoder(), cd: cd},
		Obs:     obs.NewPipelineMetrics(obs.NewRegistry()),
		Site:    1,
	}
	kd := &core.KeypointDecoder{
		Model: cd.sc.env.Model, Codec: compress.LZR(), Resolution: callDirectRes,
		WarmStart: true, Counters: &cd.recon, FieldStats: &cd.field,
	}
	cd.receiver = &core.Receiver{
		Session: acc.s,
		Decoder: &cdDecoder{inner: kd, cd: cd},
		Obs:     obs.NewPipelineMetrics(obs.NewRegistry()),
		Site:    2,
		Traces:  obs.NewTraceStore(0),
	}
	return cd, nil
}

func (cd *callDirect) close() {
	cd.cancel()
	if cd.sendSess != nil {
		_ = cd.sendSess.Close()
	}
	if cd.receiver != nil {
		_ = cd.receiver.Session.Close()
	}
	cd.link.Close()
}

// source is the publisher's generator: open loop, frame i released at
// its due time whatever the pipeline is doing.
func (cd *callDirect) source(i int) (capture.Capture, bool) {
	if i >= cd.plan.total {
		return capture.Capture{}, false
	}
	entered := time.Now()
	cd.entered[i].Store(entered.UnixMicro())
	cd.produced.Store(int64(i + 1))
	sleepUntil(cd.plan.due(i))
	// Keep consecutive capture stamps at least 2 µs apart so a stamp
	// always maps back to exactly one frame.
	for time.Since(entered) < 2*time.Microsecond {
	}
	cd.frames[i].wake = time.Now()
	return cd.sc.caps[i%len(cd.sc.caps)], true
}

// frameOf maps a capture stamp (unix µs) to its frame index, or -1.
func (cd *callDirect) frameOf(us uint64) int {
	n := int(cd.produced.Load())
	j := sort.Search(n, func(j int) bool { return cd.entered[j].Load() >= int64(us) })
	if j >= n {
		return -1
	}
	return j
}

// frameOfCapture maps a capture handed to the encoder to its frame: the
// latest released frame that shows that loop slot.
func (cd *callDirect) frameOfCapture(c capture.Capture) int {
	k, ok := cd.sc.index[c.Mesh]
	last := int(cd.produced.Load()) - 1
	if !ok || last < 0 {
		return -1
	}
	n := len(cd.sc.caps)
	i := last - ((last-k)%n+n)%n
	if i < 0 {
		return -1
	}
	return i
}

// cdEncoder times the sender's encode stage.
type cdEncoder struct {
	inner core.Encoder
	cd    *callDirect
}

func (e *cdEncoder) Mode() core.Mode { return e.inner.Mode() }

func (e *cdEncoder) Encode(c capture.Capture) (core.EncodedFrame, error) {
	if !e.cd.plan.traced {
		return e.inner.Encode(c)
	}
	start := time.Now()
	enc, err := e.inner.Encode(c)
	end := time.Now()
	if i := e.cd.frameOfCapture(c); i >= 0 && e.cd.plan.tracing(i) {
		f := &e.cd.frames[i]
		f.encStart, f.encEnd, f.encBytes = start, end, enc.TotalBytes()
	}
	return enc, err
}

// cdDecoder times the receiver's decode stage and keeps sampled outputs.
type cdDecoder struct {
	inner *core.KeypointDecoder
	cd    *callDirect
}

func (d *cdDecoder) Mode() core.Mode { return d.inner.Mode() }

func (d *cdDecoder) ResetState() { d.inner.ResetState() }

func (d *cdDecoder) Decode(ch []transport.Frame) (core.FrameData, error) {
	cd := d.cd
	var start time.Time
	if cd.plan.traced {
		start = time.Now()
	}
	data, err := d.inner.Decode(ch)
	end := time.Now()
	cd.decodes.Add(1)
	pb := 0
	for _, f := range ch {
		pb += len(f.Payload)
	}
	cd.payloadBytes.Add(int64(pb))
	if err != nil || len(ch) == 0 {
		return data, err
	}
	eof := ch[len(ch)-1]
	i := cd.frameOf(eof.CaptureTS)
	if i < 0 {
		return data, nil
	}
	if cd.plan.tracing(i) {
		f := &cd.frames[i]
		f.decStart, f.decEnd = start, end
		if len(eof.Hops) > 0 && eof.Hops[0].Kind == obs.HopSender {
			f.sendUS = eof.Hops[0].SendMicros
		}
	}
	if cd.plan.inMain(i) && i >= cd.nextSample && data.Mesh != nil {
		cd.nextSample = i + sampleEvery
		kept := make([]transport.Frame, len(ch))
		for k, fr := range ch {
			kept[k] = fr.Clone()
		}
		cd.samples = append(cd.samples, cdSample{i: i, frames: kept, hash: meshHash(data.Mesh), mesh: data.Mesh.Clone()})
	}
	return data, nil
}

// sink is the render stage: every decoded mesh is drawn from the probe
// camera; its completion is the frame's photon.
func (cd *callDirect) sink(data core.FrameData) error {
	start := time.Now()
	cd.rend.draw(data.Mesh)
	end := time.Now()
	if data.Trace == nil {
		return errors.New("frame arrived without its capture stamp")
	}
	i := cd.frameOf(data.Trace.CaptureMicros)
	if i < 0 {
		return nil
	}
	f := &cd.frames[i]
	f.rendered, f.renderEnd, f.arrived = true, end, data.Trace.ArrivedAt
	if cd.plan.tracing(i) {
		f.renderStart = start
	}
	return nil
}

// probe reads the counters windows difference: link bytes delivered to
// the receiver, decodes, decoded payload bytes, reconstruction and field
// counters.
func (cd *callDirect) probe() []float64 {
	r := cd.recon.Snapshot()
	fs := cd.field.Snapshot()
	return []float64{
		float64(cd.link.AtoB.Bytes()), float64(cd.decodes.Load()), float64(cd.payloadBytes.Load()),
		float64(r.WarmFrames), float64(r.ColdFrames), float64(r.SamplesReused), float64(r.SamplesEvaluated),
		float64(fs.Samples), float64(fs.CapsuleTests),
	}
}

func runCallDirect(cfg config) (*result, error) {
	cd, setupS, err := setUp(cfg, newCallDirect, (*callDirect).close)
	if err != nil {
		return nil, err
	}
	defer cd.close()
	p := &cd.plan
	p.start = time.Now().Add(20 * time.Millisecond)
	spans := &spanStore{epoch: p.start}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		rstats pipeline.ReceiverStats
		rerr   error
		ref    *window
		main   windows
	)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		rstats, rerr = pipeline.RunReceiver(ctx, cd.receiver, cd.sink, pipeline.ReceiverOptions{QueueDepth: 1})
	}()
	winDone := make(chan struct{})
	go func() {
		defer close(winDone)
		ref, main = p.runWindows(cd.probe, nil)
	}()
	sstats, serr := pipeline.RunSender(ctx, cd.sender, cd.source, pipeline.SenderOptions{Frames: p.total, QueueDepth: 1})
	<-winDone
	// A graceful close travels behind the last frame, so the receiver
	// drains before it stops.
	_ = cd.sendSess.Close()
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		cancel()
		<-recvDone
		return nil, errors.New("receiver did not drain within 10 s")
	}
	if serr != nil {
		return nil, fmt.Errorf("sender: %w", serr)
	}
	if rerr != nil {
		return nil, fmt.Errorf("receiver: %w", rerr)
	}

	res := newResult()
	m := res.metrics
	res.attempted = p.mainFrames()
	m2p, deliver := make([][]float64, p.subs), make([][]float64, p.subs)
	var lag []float64
	onTime := 0
	for i := p.ref; i < p.total; i++ {
		f := &cd.frames[i]
		due := p.due(i)
		lag = append(lag, msBetween(due, f.wake))
		if !f.rendered {
			continue
		}
		k := p.sub(i)
		mt := msBetween(due, f.renderEnd)
		m2p[k] = append(m2p[k], mt)
		if mt <= float64(onTimeBudget)/1e6 {
			onTime++
		}
		deliver[k] = append(deliver[k], msBetween(due, f.arrived))
	}
	m["m2p_p50_ms"] = subQuantile(m2p, 0.5)
	m["m2p_p95_ms"] = subQuantile(m2p, 0.95)
	m["on_time_frac"] = ratio(float64(onTime), float64(p.mainFrames()))
	m["deliver_p50_ms"] = subQuantile(deliver, 0.5)
	m["deliver_p95_ms"] = subQuantile(deliver, 0.95)
	m["delivered_frac"] = ratio(float64(rstats.Received), float64(p.total))
	m["decode_fps"] = main.rate(1)
	m["wire_bytes_per_frame"] = ratio(main.delta(0), main.delta(1))
	m["transport.header_bytes_per_frame"] = ratio(main.delta(0)-main.delta(2), main.delta(1))
	m["recon.warm_frac"] = ratio(main.delta(3), main.delta(3)+main.delta(4))
	m["recon.sample_reuse_frac"] = ratio(main.delta(5), main.delta(5)+main.delta(6))
	m["field.capsule_tests_per_sample"] = ratio(main.delta(8), main.delta(7))
	m["loadgen.lag_p95_ms"] = quantile(lag, 0.95)
	m["pipeline.dropped_frac"] = ratio(float64(sstats.Dropped+rstats.Dropped), float64(p.total))
	m["capture.ms_per_frame"] = cd.sc.captureMs
	m["setup_s"] = setupS
	res.addWindow(ref, main, dueFrames)

	// Output checks: every sampled mesh must equal a cold decode of the
	// same wire frames (warm start is byte-identical to cold).
	var pairs [][2]*mesh.Mesh
	for _, s := range cd.samples {
		cold := &core.KeypointDecoder{Model: cd.sc.env.Model, Codec: compress.LZR(), Resolution: callDirectRes}
		ref, err := cold.Decode(s.frames)
		if err != nil {
			res.fail("frame %d: cold reference decode: %v", s.i, err)
			continue
		}
		if h := meshHash(ref.Mesh); h != s.hash {
			res.fail("frame %d: warm mesh %016x != cold reference %016x", s.i, s.hash, h)
		}
		pairs = append(pairs, [2]*mesh.Mesh{s.mesh, cd.sc.caps[s.i%len(cd.sc.caps)].Mesh})
	}
	if len(cd.samples) == 0 {
		res.fail("no frame was sampled for the output check")
	}
	m["chamfer_mm"] = chamferMm(pairs)

	if p.traced {
		cd.spans(spans, m)
		sizes := []int{int(m["wire_bytes_per_frame"])}
		cpu, dl, err := harnessArm([]netsim.LinkConfig{netsim.BroadbandUS(cfg.seed)}, sizes, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		m["harness.cpu_ms_per_frame"], m["harness.deliver_p95_ms"] = cpu, dl
		if err := spans.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-call-direct-seed%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = peakRSSMiB()
	return res, nil
}

// spans builds each traced frame's span tree — the root runs from due
// to render completion; its children are the blocking-path layers — and
// reports the layers' self times.
func (cd *callDirect) spans(spans *spanStore, m map[string]float64) {
	p := cd.plan
	var encBytes []float64
	for i := p.ref; i < p.total; i++ {
		f := &cd.frames[i]
		if !f.rendered || f.encStart.IsZero() || f.decStart.IsZero() || f.sendUS == 0 || f.renderStart.IsZero() {
			continue
		}
		sent := time.UnixMicro(int64(f.sendUS))
		root := spans.root("frame", i, p.due(i), f.renderEnd)
		spans.child("loadgen.lag", i, root, p.due(i), f.wake)
		spans.child("encode", i, root, f.encStart, f.encEnd)
		spans.child("transmit", i, root, f.encEnd, sent)
		spans.child("wire", i, root, sent, f.arrived)
		spans.child("pipeline.queue_wait", i, root, f.arrived, f.decStart)
		spans.child("decode", i, root, f.decStart, f.decEnd)
		spans.child("render", i, root, f.renderStart, f.renderEnd)
		encBytes = append(encBytes, float64(f.encBytes))
	}
	self := spans.selfMs()
	fill := func(name, prefix string) {
		m[prefix+"_p50"] = quantile(self[name], 0.5)
		m[prefix+"_p95"] = quantile(self[name], 0.95)
	}
	fill("encode", "encode.ms")
	fill("transmit", "transmit.ms")
	fill("wire", "wire.ms")
	fill("decode", "decode.ms")
	fill("render", "render.ms")
	m["pipeline.queue_wait_ms_p95"] = quantile(self["pipeline.queue_wait"], 0.95)
	excess := make([]float64, 0, len(self["wire"]))
	for _, w := range self["wire"] {
		excess = append(excess, w-float64(netsim.BroadbandUS(0).Delay)/1e6)
	}
	m["wire.excess_ms_p95"] = quantile(excess, 0.95)
	m["encode.bytes_tier0"] = mean(encBytes)

	var roots []float64
	for _, sp := range spans.spans {
		if sp.Parent < 0 {
			roots = append(roots, float64(sp.End-sp.Start)/1e6)
		}
	}
	m["trace.m2p_p50_ms"] = quantile(roots, 0.5)
	sum := 0.0
	for _, n := range []string{"encode", "transmit", "wire", "pipeline.queue_wait", "decode", "render"} {
		sum += quantile(self[n], 0.5)
	}
	m["trace.blocking_sum_p50_ms"] = sum
}
