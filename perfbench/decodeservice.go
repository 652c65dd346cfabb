package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/avatar"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/service"
	"semholo/internal/transport"
)

const (
	// speakers × viewersPerSpeaker tenants share one DecodeService: the
	// server-side rendering case, where every viewer of a speaker gets
	// its own decoded stream of the same frames. Two speakers at 30 fps
	// keep the service about a third busy on a 2-core host, so a frame's
	// latency is its decode, not a queue.
	speakers          = 2
	viewersPerSpeaker = 4
	// serviceRes is the tenants' reconstruction resolution.
	serviceRes = 64
)

// dsFrame is what the benchmark saw of one speaker's scheduled frame.
// It is written by the speaker's receive goroutine and read after the
// run.
type dsFrame struct {
	wake    time.Time
	arrived time.Time
	calls   [viewersPerSpeaker]struct{ start, end time.Time }
	decoded int // viewers whose decode succeeded
}

// dsSample is a decoded tenant frame kept for the post-run checks.
type dsSample struct {
	speaker, frame, viewer int
	hash                   uint64
	mesh                   *mesh.Mesh
}

// dsSpeaker is one speaker's pre-encoded loop and its link to the
// service.
type dsSpeaker struct {
	// frames[f] is encoded frame f as it arrives; wireBytes[f] is its
	// size on the wire.
	frames    []core.RawFrame
	wireBytes []int
	send      net.Conn
	recv      net.Conn
	link      *netsim.Link
}

// decodeService is speakers × viewersPerSpeaker tenants in one
// DecodeService. Each speaker streams pre-encoded keypoint frames over
// its own broadband link; on arrival every viewer of the speaker decodes
// the frame in turn.
type decodeService struct {
	sc       *scene
	speakers []*dsSpeaker
	encodeMs []float64
	encBytes []float64

	svc     *service.DecodeService
	tenants [][]*service.StreamCtx
	recon   metrics.ReconCounters
	field   metrics.FieldCounters
	// decodeMs holds the decoder's own time inside traced service calls.
	decodeMs  []float64
	decodeMu  sync.Mutex
	tracing   atomic.Bool
	completed atomic.Int64
}

func newDecodeService(cfg config) (*decodeService, error) {
	n := loopFrames
	if cfg.smoke {
		n = 6
	}
	// Each speaker is its own stretch of the motion, so no two speakers
	// share a pose. The speakers' poses together (2×60) outnumber the
	// mesh cache's 32 entries, so a pose is evicted before its speaker
	// comes round again: only the viewers of one frame share an entry.
	ds := &decodeService{sc: newScene(cfg.seed, 0, speakers*n)}
	for s := 0; s < speakers; s++ {
		enc := ds.sc.keypointEncoder()
		sp := &dsSpeaker{}
		for f := 0; f < n; f++ {
			begin := time.Now()
			e, err := enc.Encode(ds.sc.caps[s*n+f])
			if err != nil {
				return nil, fmt.Errorf("pre-encode speaker %d frame %d: %w", s, f, err)
			}
			ds.encodeMs = append(ds.encodeMs, msBetween(begin, time.Now()))
			ds.encBytes = append(ds.encBytes, float64(e.TotalBytes()))
			raw, size, err := wireFrames(e)
			if err != nil {
				return nil, err
			}
			sp.frames = append(sp.frames, raw)
			sp.wireBytes = append(sp.wireBytes, size)
		}
		sp.send, sp.recv, sp.link = netsim.Pipe(netsim.BroadbandUS(cfg.seed*speakers + int64(s)))
		ds.speakers = append(ds.speakers, sp)
	}
	// Only the ground-truth meshes are needed from here on.
	for k := range ds.sc.caps {
		ds.sc.caps[k].Views = nil
	}

	model := ds.sc.env.Model
	ds.svc = service.New(service.Options{
		Model: model, Resolution: serviceRes, WarmStart: true,
		Cache:    &avatar.MeshCache{Counters: &ds.recon},
		Counters: &ds.recon, FieldStats: &ds.field,
		NewDecoder: func(o service.Options) core.Decoder {
			return &dsDecoder{ds: ds, inner: &core.KeypointDecoder{
				Model: o.Model, Codec: compress.LZR(), Resolution: o.Resolution, WarmStart: o.WarmStart,
				Cache: o.Cache, Counters: o.Counters, FieldStats: o.FieldStats,
			}}
		},
	})
	for s := 0; s < speakers; s++ {
		var group []*service.StreamCtx
		for v := 0; v < viewersPerSpeaker; v++ {
			st, err := ds.svc.Admit(fmt.Sprintf("speaker%d-viewer%d", s, v))
			if err != nil {
				ds.close()
				return nil, err
			}
			group = append(group, st)
		}
		ds.tenants = append(ds.tenants, group)
	}
	return ds, nil
}

// wireFrames frames an encoded media frame as the transport would and
// reads it back, returning the frames a receiver hands to a decoder and
// the bytes they occupy on the wire.
func wireFrames(e core.EncodedFrame) (core.RawFrame, int, error) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	for k, ch := range e.Channels {
		f := transport.Frame{Type: transport.TypeSemantic, Channel: ch.Channel, Flags: ch.Flags, Seq: uint32(k), Payload: ch.Payload}
		if err := fw.WriteFrame(&f); err != nil {
			return core.RawFrame{}, 0, err
		}
	}
	size := buf.Len()
	fr := transport.NewFrameReader(&buf)
	var raw core.RawFrame
	for range e.Channels {
		f, err := fr.ReadFrame()
		if err != nil {
			return core.RawFrame{}, 0, err
		}
		raw.Frames = append(raw.Frames, f.Clone())
	}
	return raw, size, nil
}

func (ds *decodeService) close() {
	for _, sp := range ds.speakers {
		sp.link.Close()
		_ = sp.send.Close()
		_ = sp.recv.Close()
	}
	if ds.svc != nil {
		ds.svc.Close()
	}
}

// dsDecoder times the decoder inside each service call.
type dsDecoder struct {
	ds    *decodeService
	inner *core.KeypointDecoder
}

func (d *dsDecoder) Mode() core.Mode { return d.inner.Mode() }

func (d *dsDecoder) ResetState() { d.inner.ResetState() }

func (d *dsDecoder) SetWorkers(n int) { d.inner.SetWorkers(n) }

func (d *dsDecoder) Decode(ch []transport.Frame) (core.FrameData, error) {
	if !d.ds.tracing.Load() {
		return d.inner.Decode(ch)
	}
	begin := time.Now()
	data, err := d.inner.Decode(ch)
	dt := msBetween(begin, time.Now())
	d.ds.decodeMu.Lock()
	d.ds.decodeMs = append(d.ds.decodeMs, dt)
	d.ds.decodeMu.Unlock()
	return data, err
}

func (ds *decodeService) probe() []float64 {
	r := ds.recon.Snapshot()
	fs := ds.field.Snapshot()
	return []float64{
		float64(ds.completed.Load()),
		float64(r.MeshHits), float64(r.MeshMisses), float64(r.CrossTenantHits),
		float64(r.WarmFrames), float64(r.ColdFrames), float64(r.SamplesReused), float64(r.SamplesEvaluated),
		float64(fs.Samples), float64(fs.CapsuleTests),
	}
}

func runDecodeService(cfg config) (*result, error) {
	ds, setupS, err := setUp(cfg, newDecodeService, (*decodeService).close)
	if err != nil {
		return nil, err
	}
	defer ds.close()
	p := newPlan(cfg)
	p.start = time.Now().Add(20 * time.Millisecond)
	n := len(ds.speakers[0].frames)
	recs := make([][]dsFrame, speakers)
	for s := range recs {
		recs[s] = make([]dsFrame, p.total)
	}

	var (
		failMu  sync.Mutex
		fails   []string
		samples []dsSample
		wg      sync.WaitGroup
	)
	failf := func(format string, args ...any) {
		failMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}
	// The speakers' schedules are spread evenly over the frame interval,
	// so their frames do not arrive, and are decoded, at the same
	// instant. When they were not, both cores decoded at once every frame
	// and the generators and links waited behind them.
	dueOf := func(s, i int) time.Time { return p.due(i).Add(time.Duration(s) * frameInterval / speakers) }
	ctx := context.Background()
	for s, sp := range ds.speakers {
		// The speaker's generator sends frame i at its due time; the
		// frame's sequence number is its schedule index.
		wg.Add(2)
		go func() {
			defer wg.Done()
			fw := transport.NewFrameWriter(sp.send)
			for i := 0; i < p.total; i++ {
				sleepUntil(dueOf(s, i))
				recs[s][i].wake = time.Now()
				for _, f := range sp.frames[i%n].Frames {
					f.Seq = uint32(i)
					if err := fw.WriteFrame(&f); err != nil {
						return
					}
				}
			}
		}()
		// The receiver collects each frame's channels and, once the frame
		// is whole, has every viewer of the speaker decode it in turn.
		go func() {
			defer wg.Done()
			fr := transport.NewFrameReader(sp.recv)
			var cur []transport.Frame
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					return
				}
				i := int(f.Seq)
				if i >= p.total {
					failf("speaker %d: frame %d is past the schedule", s, i)
					continue
				}
				if len(cur) > 0 && cur[0].Seq != f.Seq {
					failf("speaker %d: frame %d arrived before frame %d was whole", s, i, cur[0].Seq)
					cur = nil
				}
				cur = append(cur, f.Clone())
				if len(cur) < len(sp.frames[i%n].Frames) {
					continue
				}
				rec := &recs[s][i]
				rec.arrived = time.Now()
				raw := core.RawFrame{Frames: cur}
				cur = nil
				for v, st := range ds.tenants[s] {
					rec.calls[v].start = time.Now()
					data, err := st.Decode(ctx, raw)
					rec.calls[v].end = time.Now()
					if err != nil {
						failf("speaker %d frame %d viewer %d: %v", s, i, v, err)
						continue
					}
					rec.decoded++
					ds.completed.Add(1)
					// One frame in sampleEvery is kept, from a rotating
					// viewer, for the output check.
					if i%sampleEvery == 0 && v == (i/sampleEvery)%viewersPerSpeaker && data.Mesh != nil {
						failMu.Lock()
						samples = append(samples, dsSample{speaker: s, frame: i % n, viewer: v, hash: meshHash(data.Mesh), mesh: data.Mesh.Clone()})
						failMu.Unlock()
					}
				}
			}
		}()
	}

	ref, main := p.runWindows(ds.probe, func() { ds.tracing.Store(p.traced) })
	ds.tracing.Store(false)
	// The last frames are still on the wire or decoding: let them finish,
	// then close the links so the receivers stop.
	time.Sleep(500 * time.Millisecond)
	for _, sp := range ds.speakers {
		sp.link.Close()
		_ = sp.send.Close()
		_ = sp.recv.Close()
	}
	wg.Wait()

	res := newResult()
	m := res.metrics
	m2p := make([][]float64, p.subs)
	deliver := make([][]float64, p.subs)
	var calls, lag []float64
	var due, arrived, onTime, decodes int
	var wire float64
	for s, sp := range ds.speakers {
		for i := p.ref; i < p.total; i++ {
			r := &recs[s][i]
			k := p.sub(i)
			due++
			decodes += viewersPerSpeaker
			lag = append(lag, msBetween(dueOf(s, i), r.wake))
			if r.arrived.IsZero() {
				continue
			}
			arrived++
			wire += float64(sp.wireBytes[i%n])
			deliver[k] = append(deliver[k], msBetween(dueOf(s, i), r.arrived))
			for v := range r.calls {
				if !r.calls[v].end.IsZero() {
					calls = append(calls, msBetween(r.calls[v].start, r.calls[v].end))
				}
			}
			if r.decoded < viewersPerSpeaker {
				continue
			}
			// A frame is shown to its viewers when the last of them has
			// the decoded mesh.
			lat := msBetween(dueOf(s, i), r.calls[viewersPerSpeaker-1].end)
			m2p[k] = append(m2p[k], lat)
			if lat <= float64(onTimeBudget)/1e6 {
				onTime++
			}
		}
	}
	res.attempted = decodes
	for _, f := range fails {
		res.fail("%s", f)
	}

	// Output check: every sampled tenant mesh must equal what a solo,
	// cache-less keypoint decoder makes of the same frame.
	var pairs [][2]*mesh.Mesh
	for _, s := range samples {
		solo := &core.KeypointDecoder{Model: ds.sc.env.Model, Codec: compress.LZR(), Resolution: serviceRes}
		ref, err := solo.Decode(ds.speakers[s.speaker].frames[s.frame].Frames)
		if err != nil {
			res.fail("speaker %d frame %d: solo decode: %v", s.speaker, s.frame, err)
			continue
		}
		if h := meshHash(ref.Mesh); h != s.hash {
			res.fail("speaker %d frame %d viewer %d: tenant mesh %016x != solo decoder %016x", s.speaker, s.frame, s.viewer, s.hash, h)
		}
		pairs = append(pairs, [2]*mesh.Mesh{s.mesh, ds.sc.caps[s.speaker*n+s.frame].Mesh})
	}
	if len(samples) == 0 {
		res.fail("no decode was sampled for the output check")
	}

	// Server-side decoding has no render stage: a frame is "shown" when
	// its last viewer has the decoded mesh.
	m["m2p_p50_ms"] = subQuantile(m2p, 0.5)
	m["m2p_p95_ms"] = subQuantile(m2p, 0.95)
	m["deliver_p50_ms"] = subQuantile(deliver, 0.5)
	m["deliver_p95_ms"] = subQuantile(deliver, 0.95)
	m["on_time_frac"] = ratio(float64(onTime), float64(due))
	m["delivered_frac"] = ratio(float64(arrived), float64(due))
	m["decode_fps"] = main.rate(0)
	m["wire_bytes_per_frame"] = ratio(wire, float64(arrived))
	m["chamfer_mm"] = chamferMm(pairs)
	m["setup_s"] = setupS
	m["loadgen.lag_p95_ms"] = quantile(lag, 0.95)
	m["capture.ms_per_frame"] = ds.sc.captureMs
	m["encode.ms_p50"] = quantile(ds.encodeMs, 0.5)
	m["encode.ms_p95"] = quantile(ds.encodeMs, 0.95)
	m["encode.bytes_tier0"] = mean(ds.encBytes)
	m["service.call_ms_p50"] = quantile(calls, 0.5)
	m["service.call_ms_p95"] = quantile(calls, 0.95)
	m["meshcache.hit_frac"] = ratio(main.delta(1), main.delta(1)+main.delta(2))
	m["meshcache.crosstenant_hits"] = main.delta(3)
	m["recon.warm_frac"] = ratio(main.delta(4), main.delta(4)+main.delta(5))
	m["recon.sample_reuse_frac"] = ratio(main.delta(6), main.delta(6)+main.delta(7))
	m["field.capsule_tests_per_sample"] = ratio(main.delta(9), main.delta(8))
	res.addWindow(ref, main, func(w *window) float64 { return w.delta(0) })
	if p.traced {
		m["decode.ms_p50"] = quantile(ds.decodeMs, 0.5)
		m["decode.ms_p95"] = quantile(ds.decodeMs, 0.95)
		spans := &spanStore{epoch: p.start}
		for s := range ds.speakers {
			for i := p.ref; i < p.total; i++ {
				r := &recs[s][i]
				if r.decoded < viewersPerSpeaker {
					continue
				}
				trace := s*p.total + i
				root := spans.root("frame", trace, dueOf(s, i), r.calls[viewersPerSpeaker-1].end)
				spans.child("wire", trace, root, r.wake, r.arrived)
				for v := range r.calls {
					spans.child("service.call", trace, root, r.calls[v].start, r.calls[v].end)
				}
			}
		}
		if err := spans.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-decode-service-seed%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = peakRSSMiB()
	return res, nil
}
