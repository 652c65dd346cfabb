package core

import (
	"fmt"
	"sync/atomic"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/transport"
)

// HybridEncoder implements the foveated hybrid scheme of §3.1: the
// region around the viewer's gaze gets the compressed ground-truth mesh
// (full quality), while the periphery travels as keypoints only and is
// reconstructed with limited refinement at the receiver. The gaze anchor
// arrives from the receiver over the control channel (the Sender runtime
// wires it through SetGazeAnchor); the foveal radius is the
// bandwidth-versus-reconstruction-cost trade-off knob of the ablation.
type HybridEncoder struct {
	Keypoint *KeypointEncoder
	Selector gaze.FovealSelector
	// MeshOptions tunes foveal submesh compression.
	MeshOptions dracogo.Options

	// anchor is written by the control-plane goroutine (gaze reports
	// arriving over the session) while Encode reads it from the pipeline
	// goroutine, so it must be an atomic swap, not a plain field; nil
	// means no gaze report has arrived yet.
	anchor atomic.Pointer[geom.Vec3]

	// Foveal-submesh scratch (see fovealSubmesh); like every Encoder,
	// a HybridEncoder is not safe for concurrent Encode calls.
	fovealFaces []int
	remap       []int
}

// SetGazeAnchor updates the world-space point the remote viewer is
// looking at (from receiver gaze reports). Safe to call concurrently
// with Encode.
func (e *HybridEncoder) SetGazeAnchor(p geom.Vec3) {
	e.anchor.Store(&p)
}

// Mode implements Encoder.
func (e *HybridEncoder) Mode() Mode { return ModeHybrid }

// Encode implements Encoder.
func (e *HybridEncoder) Encode(c capture.Capture) (EncodedFrame, error) {
	if e.Keypoint == nil {
		return EncodedFrame{}, fmt.Errorf("core: hybrid encoder missing keypoint encoder")
	}
	kp, err := e.Keypoint.Encode(c)
	if err != nil {
		return EncodedFrame{}, err
	}
	// Strip EndOfFrame from the keypoint payloads; the foveal mesh
	// closes the frame.
	for i := range kp.Channels {
		kp.Channels[i].Flags &^= transport.FlagEndOfFrame
	}
	out := EncodedFrame{Channels: kp.Channels}

	foveal := e.fovealSubmesh(c.Mesh)
	var payload []byte
	if foveal != nil && len(foveal.Faces) > 0 {
		payload = dracogo.EncodeMesh(foveal, e.MeshOptions)
	}
	out.Channels = append(out.Channels, ChannelPayload{
		Channel: ChanFovealMesh,
		Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
		Payload: payload, // empty payload = no foveal region this frame
	})
	return out, nil
}

// fovealSubmesh extracts the faces of m inside the foveal region as a
// compact mesh: the vertices those faces use, in ascending order of
// their index in m, and the faces in m's order over the new indices.
// Only the result is allocated; the face and vertex-remap scratch stays
// on the encoder.
func (e *HybridEncoder) fovealSubmesh(m *mesh.Mesh) *mesh.Mesh {
	anchor := e.anchor.Load()
	if m == nil || anchor == nil {
		return nil
	}
	faces := e.fovealFaces[:0]
	for i := range m.Faces {
		if e.Selector.InFovea(m.FaceCentroid(i), *anchor) {
			faces = append(faces, i)
		}
	}
	e.fovealFaces = faces
	if len(faces) == 0 {
		return nil
	}
	// remap[v] is the submesh index of vertex v plus one; 0 = unused.
	if cap(e.remap) < len(m.Vertices) {
		e.remap = make([]int, len(m.Vertices))
	}
	remap := e.remap[:len(m.Vertices)]
	clear(remap)
	for _, fi := range faces {
		f := m.Faces[fi]
		remap[f.A], remap[f.B], remap[f.C] = 1, 1, 1
	}
	n := 0
	for v, used := range remap {
		if used != 0 {
			n++
			remap[v] = n
		}
	}
	sub := &mesh.Mesh{Vertices: make([]geom.Vec3, 0, n), Faces: make([]mesh.Face, len(faces))}
	for v, r := range remap {
		if r != 0 {
			sub.Vertices = append(sub.Vertices, m.Vertices[v])
		}
	}
	for k, fi := range faces {
		f := m.Faces[fi]
		sub.Faces[k] = mesh.Face{A: remap[f.A] - 1, B: remap[f.B] - 1, C: remap[f.C] - 1}
	}
	return sub
}

// HybridDecoder reconstructs the periphery from keypoints at a reduced
// resolution and grafts the received foveal mesh over it: peripheral
// faces falling inside the foveal region are dropped, then the foveal
// patch is merged. The seam between the two parts is the integration
// challenge §3.1 leaves open; the decoder makes it measurable rather
// than hiding it.
type HybridDecoder struct {
	Model *body.Model
	Codec compress.Codec
	// PeripheralResolution is the keypoint-reconstruction resolution for
	// the periphery (deliberately low; that is the point of the hybrid).
	PeripheralResolution int
	Selector             gaze.FovealSelector
	// Workers bounds peripheral-reconstruction parallelism (0 =
	// GOMAXPROCS, 1 = serial); output is identical at any setting.
	Workers int
	// WarmStart enables temporal-coherence peripheral reconstruction
	// (byte-identical output, see avatar.Reconstructor).
	WarmStart bool
	// Cache, when non-nil, serves repeated (quantized) poses from a mesh
	// LRU before peripheral reconstruction runs.
	Cache *avatar.MeshCache
	// Counters, when non-nil, accumulates cache and warm-start telemetry.
	Counters *metrics.ReconCounters
	// FieldStats, when non-nil, accumulates SDF field-evaluation telemetry.
	FieldStats *metrics.FieldCounters
	// Unpruned disables the capsule culling grid (ablation knob; output is
	// byte-identical either way).
	Unpruned bool

	rec *avatar.Reconstructor
	// anchor is written from the control/input plane while Decode reads
	// it from the pipeline goroutine; see HybridEncoder.anchor.
	anchor atomic.Pointer[geom.Vec3]
}

// SetGazeAnchor mirrors the encoder-side anchor (receivers know their
// own gaze). Safe to call concurrently with Decode.
func (d *HybridDecoder) SetGazeAnchor(p geom.Vec3) {
	d.anchor.Store(&p)
}

// SetWorkers rebinds the parallelism bound between frames — the decode
// service sets each frame's pool grant here before decoding. Not safe
// concurrently with Decode (callers serialize per stream).
func (d *HybridDecoder) SetWorkers(n int) { d.Workers = n }

// ResetState implements StateResetter: drop warm-start peripheral
// reconstruction state so the next frame decodes as a cold start.
func (d *HybridDecoder) ResetState() {
	if d.rec != nil {
		d.rec.ResetWarmState()
	}
}

// Mode implements Decoder.
func (d *HybridDecoder) Mode() Mode { return ModeHybrid }

// Decode implements Decoder.
func (d *HybridDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	var params *body.Params
	var foveal *mesh.Mesh
	for _, f := range channels {
		switch f.Channel {
		case ChanKeypointData:
			raw := f.Payload
			if f.Flags&transport.FlagCompressed != 0 {
				dec, err := d.Codec.Decode(f.Payload)
				if err != nil {
					return FrameData{}, fmt.Errorf("core: hybrid pose decompress: %w", err)
				}
				raw = dec
			}
			p, err := body.UnmarshalParams(raw)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: hybrid pose: %w", err)
			}
			params = p
		case ChanFovealMesh:
			if len(f.Payload) == 0 {
				continue // no foveal region this frame
			}
			m, err := dracogo.DecodeMesh(f.Payload)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: foveal mesh: %w", err)
			}
			foveal = m
		case ChanTextureData:
			// Texture riding along with the keypoint payloads; ignored
			// here (the session runtime exposes it via KeypointDecoder
			// when texturing is on).
		default:
			return FrameData{}, errUnexpectedChannel(ModeHybrid, f.Channel)
		}
	}
	if params == nil {
		return FrameData{}, fmt.Errorf("core: hybrid decoder got no pose payload")
	}
	res := d.PeripheralResolution
	if res <= 0 {
		res = 48
	}
	if d.rec == nil || d.rec.Model != d.Model {
		d.rec = &avatar.Reconstructor{Model: d.Model}
	}
	d.rec.Resolution = res
	d.rec.Workers = d.Workers
	d.rec.WarmStart = d.WarmStart
	d.rec.Cache = d.Cache
	d.rec.Counters = d.Counters
	d.rec.FieldStats = d.FieldStats
	d.rec.Unpruned = d.Unpruned
	peripheral := d.rec.Reconstruct(params)

	merged := peripheral
	anchor := d.anchor.Load()
	if foveal != nil && anchor != nil {
		// Drop peripheral faces inside the fovea, then graft the patch.
		kept := &mesh.Mesh{Vertices: peripheral.Vertices}
		for i, face := range peripheral.Faces {
			if !d.Selector.InFovea(peripheral.FaceCentroid(i), *anchor) {
				kept.Faces = append(kept.Faces, face)
			}
		}
		kept.CompactVertices()
		kept.Merge(foveal)
		merged = kept
	} else if foveal != nil {
		peripheral.Merge(foveal)
	}
	return FrameData{Params: params, Mesh: merged}, nil
}
