// Package render implements a software rasterizer: perspective-correct,
// z-buffered triangle rasterization with Lambertian shading, plus point
// splatting for clouds. It serves two roles in the reproduction: it
// generates the synthetic RGB-D captures that stand in for the paper's
// physical camera rig (§2.1), and it renders receiver-side reconstructions
// so visual quality can be measured objectively (Figures 2 and 3).
//
// Both rasterization entry points parallelize over horizontal screen
// bands: each worker owns a contiguous range of rows and walks the full
// primitive list, touching only pixels inside its band. Per-pixel output
// depends only on primitive order — identical in every band — so the
// frame is byte-identical for every worker count, and no two goroutines
// ever write the same depth/color slot.
package render

import (
	"image"
	"image/color"
	"math"

	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/par"
	"semholo/internal/pointcloud"
)

// Frame is a color+depth framebuffer bound to a camera. A Frame also
// owns the vertex-projection scratch RenderMesh reuses from call to
// call, so rendering into one frame repeatedly allocates nothing per
// vertex. Rendering calls on one Frame must not run concurrently: they
// write Depth and Color, and share that scratch.
type Frame struct {
	Camera geom.Camera
	Color  []pointcloud.Color // row-major, W*H
	Depth  []float64          // camera-space z; 0 = no hit

	projs []projVert // RenderMesh projection scratch
}

// NewFrame allocates a cleared framebuffer for the camera.
func NewFrame(cam geom.Camera) *Frame {
	n := cam.Intr.Width * cam.Intr.Height
	return &Frame{
		Camera: cam,
		Color:  make([]pointcloud.Color, n),
		Depth:  make([]float64, n),
	}
}

// Clear resets color and depth.
func (f *Frame) Clear() {
	for i := range f.Color {
		f.Color[i] = pointcloud.Color{}
		f.Depth[i] = 0
	}
}

// At returns the color at pixel (x, y).
func (f *Frame) At(x, y int) pointcloud.Color {
	return f.Color[y*f.Camera.Intr.Width+x]
}

// DepthView converts the frame into a calibrated RGB-D view for fusion.
func (f *Frame) DepthView() pointcloud.DepthView {
	return pointcloud.DepthView{
		Camera: f.Camera,
		Depth:  append([]float64(nil), f.Depth...),
		Colors: append([]pointcloud.Color(nil), f.Color...),
	}
}

// Image converts the color buffer to a standard library image.
func (f *Frame) Image() *image.RGBA {
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := f.Color[y*w+x]
			img.SetRGBA(x, y, color.RGBA{
				R: uint8(geom.Clamp(c.R, 0, 1) * 255),
				G: uint8(geom.Clamp(c.G, 0, 1) * 255),
				B: uint8(geom.Clamp(c.B, 0, 1) * 255),
				A: 255,
			})
		}
	}
	return img
}

// Shader computes the color of a surface sample. bary are the barycentric
// coordinates within face fi; pos and normal are world-space.
//
// Shaders run from multiple goroutines when rendering with Workers != 1
// and must be safe for concurrent calls (the procedural shaders used
// throughout are pure functions).
type Shader func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color

// MeshOptions configures RenderMesh.
type MeshOptions struct {
	// Albedo is the uniform surface color when Shader is nil.
	Albedo pointcloud.Color
	// Shader overrides Albedo when non-nil (used for texture mapping).
	Shader Shader
	// LightDir is the direction *toward* the light (world space);
	// defaults to a headlight from the camera.
	LightDir geom.Vec3
	// Ambient light floor in [0,1]; default 0.25.
	Ambient float64
	// Unlit disables shading entirely (colors pass through).
	Unlit bool
	// Workers bounds rasterization parallelism: 0 uses GOMAXPROCS, 1
	// forces the serial path. Output is byte-identical either way.
	Workers int
}

// projVert is a projected vertex: camera-space position plus screen
// coordinates when in front of the near plane.
type projVert struct {
	cam geom.Vec3
	px  geom.Vec2
	ok  bool
}

// RenderMesh rasterizes m into the frame. Triangles with any vertex
// behind the near plane are culled (adequate for the outside-in capture
// rigs used throughout). With opt.Workers != 1 the screen is split into
// horizontal bands rasterized concurrently. Concurrent RenderMesh calls
// on the same Frame are not safe (see Frame).
func RenderMesh(f *Frame, m *mesh.Mesh, opt MeshOptions) {
	const near = 1e-3
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	if opt.Ambient == 0 {
		opt.Ambient = 0.25
	}
	light := opt.LightDir
	if light.LenSq() == 0 {
		// Headlight: from the surface toward the camera.
		light = f.Camera.CamToWorld().TransformDir(geom.V3(0, 0, -1))
	}
	light = light.Normalize()
	albedo := opt.Albedo
	if albedo == (pointcloud.Color{}) {
		albedo = pointcloud.Color{R: 0.8, G: 0.8, B: 0.8}
	}

	useVertexNormals := len(m.Normals) == len(m.Vertices)
	workers := par.Resolve(opt.Workers)

	// Precompute camera-space positions and projections (parallel over
	// vertices; each slot written exactly once).
	if cap(f.projs) < len(m.Vertices) {
		f.projs = make([]projVert, len(m.Vertices))
	}
	projs := f.projs[:len(m.Vertices)]
	par.For(workers, len(m.Vertices), func(i int) {
		c := f.Camera.WorldToCam.TransformPoint(m.Vertices[i])
		if c.Z <= near {
			projs[i] = projVert{cam: c}
			return
		}
		px, _, _ := f.Camera.Intr.Project(c)
		projs[i] = projVert{cam: c, px: px, ok: true}
	})

	// Rasterize bands of rows [bandLo, bandHi) concurrently. Every band
	// walks the full face list in order, so per-pixel depth resolution
	// matches the serial pass exactly.
	par.ForChunks(workers, h, func(_, bandLo, bandHi int) {
		for fi, face := range m.Faces {
			pa, pb, pc := projs[face.A], projs[face.B], projs[face.C]
			if !pa.ok || !pb.ok || !pc.ok {
				continue
			}
			// Screen-space bounding box, clipped to the band.
			minX := int(math.Floor(math.Min(pa.px.X, math.Min(pb.px.X, pc.px.X))))
			maxX := int(math.Ceil(math.Max(pa.px.X, math.Max(pb.px.X, pc.px.X))))
			minY := int(math.Floor(math.Min(pa.px.Y, math.Min(pb.px.Y, pc.px.Y))))
			maxY := int(math.Ceil(math.Max(pa.px.Y, math.Max(pb.px.Y, pc.px.Y))))
			if minX < 0 {
				minX = 0
			}
			if minY < bandLo {
				minY = bandLo
			}
			if maxX >= w {
				maxX = w - 1
			}
			if maxY >= bandHi {
				maxY = bandHi - 1
			}
			if minX > maxX || minY > maxY {
				continue
			}
			// Edge function setup.
			x0, y0 := pa.px.X, pa.px.Y
			x1, y1 := pb.px.X, pb.px.Y
			x2, y2 := pc.px.X, pc.px.Y
			area := (x1-x0)*(y2-y0) - (y1-y0)*(x2-x0)
			if math.Abs(area) < 1e-12 {
				continue
			}
			invArea := 1 / area
			invZ0, invZ1, invZ2 := 1/pa.cam.Z, 1/pb.cam.Z, 1/pc.cam.Z

			va, vb, vc := m.Vertices[face.A], m.Vertices[face.B], m.Vertices[face.C]
			var na, nb, nc geom.Vec3
			if useVertexNormals {
				na, nb, nc = m.Normals[face.A], m.Normals[face.B], m.Normals[face.C]
			} else {
				n := m.FaceNormal(fi)
				na, nb, nc = n, n, n
			}

			for y := minY; y <= maxY; y++ {
				fy := float64(y) + 0.5
				for x := minX; x <= maxX; x++ {
					fx := float64(x) + 0.5
					w0 := ((x1-fx)*(y2-fy) - (y1-fy)*(x2-fx)) * invArea
					w1 := ((x2-fx)*(y0-fy) - (y2-fy)*(x0-fx)) * invArea
					w2 := 1 - w0 - w1
					if w0 < 0 || w1 < 0 || w2 < 0 {
						continue
					}
					// Perspective-correct interpolation via 1/z.
					invZ := w0*invZ0 + w1*invZ1 + w2*invZ2
					z := 1 / invZ
					idx := y*w + x
					if f.Depth[idx] != 0 && z >= f.Depth[idx] {
						continue
					}
					b0 := w0 * invZ0 * z
					b1 := w1 * invZ1 * z
					b2 := w2 * invZ2 * z
					pos := va.Scale(b0).Add(vb.Scale(b1)).Add(vc.Scale(b2))
					normal := na.Scale(b0).Add(nb.Scale(b1)).Add(nc.Scale(b2)).Normalize()

					var col pointcloud.Color
					if opt.Shader != nil {
						col = opt.Shader(fi, [3]float64{b0, b1, b2}, pos, normal)
					} else {
						col = albedo
					}
					if !opt.Unlit {
						lam := math.Abs(normal.Dot(light))
						shade := opt.Ambient + (1-opt.Ambient)*lam
						col = pointcloud.Color{R: col.R * shade, G: col.G * shade, B: col.B * shade}
					}
					f.Depth[idx] = z
					f.Color[idx] = col
				}
			}
		}
	})
}

// RenderCloud splats cloud points as size×size squares with z-buffering
// on the serial path (Workers 1).
func RenderCloud(f *Frame, c *pointcloud.Cloud, size int) {
	RenderCloudParallel(f, c, size, 1)
}

// RenderCloudParallel is RenderCloud over horizontal screen bands: each
// worker walks the full point list and clips splats to its rows, so
// output is byte-identical for every worker count (0 = GOMAXPROCS).
func RenderCloudParallel(f *Frame, c *pointcloud.Cloud, size, workers int) {
	if size < 1 {
		size = 1
	}
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	par.ForChunks(workers, h, func(_, bandLo, bandHi int) {
		for i, p := range c.Points {
			px, z, ok := f.Camera.ProjectWorld(p)
			if !ok {
				continue
			}
			col := pointcloud.Color{R: 0.8, G: 0.8, B: 0.8}
			if c.Colors != nil {
				col = c.Colors[i]
			}
			x0, y0 := int(px.X)-size/2, int(px.Y)-size/2
			yLo, yHi := y0, y0+size
			if yLo < bandLo {
				yLo = bandLo
			}
			if yHi > bandHi {
				yHi = bandHi
			}
			for y := yLo; y < yHi; y++ {
				for dx := 0; dx < size; dx++ {
					x := x0 + dx
					if x < 0 || x >= w {
						continue
					}
					idx := y*w + x
					if f.Depth[idx] != 0 && z >= f.Depth[idx] {
						continue
					}
					f.Depth[idx] = z
					f.Color[idx] = col
				}
			}
		}
	})
}
