package mesh

import (
	"math"
	"sort"

	"semholo/internal/geom"
	"semholo/internal/par"
)

// ExtractIsosurfaceSparse polygonizes the zero level set like
// ExtractIsosurface but visits only lattice cubes near the surface: it
// seeds from the given surface points and flood-fills across
// sign-crossing cubes (6-adjacency). Field evaluations are cached per
// lattice vertex, so cost scales with surface area (O(R²)) instead of
// volume (O(R³)).
//
// Every connected surface component must contain at least one seed point
// (within one cell of the surface); components with no seed are silently
// missed. The avatar reconstructor seeds from its bone capsules, covering
// every component by construction.
//
// This is the strict serial path:
// ExtractIsosurfaceSparseParallel(field, grid, seeds, 1).
func ExtractIsosurfaceSparse(field ScalarField, grid GridSpec, seeds []geom.Vec3) *Mesh {
	return ExtractIsosurfaceSparseParallel(field, grid, seeds, 1)
}

// ExtractIsosurfaceSparseParallel is the narrow-band extractor with
// concurrent field evaluation. Discovery proceeds in wavefront rounds:
// each round gathers the not-yet-sampled lattice vertices of every
// frontier cube and evaluates them in parallel (the dominant cost — one
// smooth-union over all bone capsules per point), then grows the next
// ring across sign-crossing faces. The discovered band is finally sorted
// into lattice scan order and polygonized serially, so the output mesh is
// a pure function of the band set and the field values: worker count only
// changes how the batched evaluations are scheduled, and Workers=N output
// is byte-identical to Workers=1.
func ExtractIsosurfaceSparseParallel(field ScalarField, grid GridSpec, seeds []geom.Vec3, workers int) *Mesh {
	return extractSparse(scalarTemporal{field}, grid, seeds, workers, nil, false)
}

// ExtractIsosurfaceSparseTemporal is the temporal-coherence variant used
// by the avatar reconstructor. It differs from
// ExtractIsosurfaceSparseParallel in three ways:
//
//   - Seeds are interior points (bone midpoints), not surface points: the
//     extractor snaps each seed to the lattice and marches the six axis
//     directions itself until the field changes sign. Marching samples
//     lattice vertices, so its evaluations land in the same cache the
//     wavefront uses.
//   - st carries the previous frame's surface band and lattice samples:
//     the wavefront starts from the whole previous band (discovery then
//     completes in O(1) rounds instead of one ring per round), and any
//     sample the field's Reusable test vouches for is copied instead of
//     re-evaluated.
//   - After discovery the band is filtered to the cells reachable from
//     this frame's seed cells, which makes the band — and therefore the
//     mesh — provably identical to what a cold run produces (see
//     DESIGN.md, "Temporal-coherence reconstruction cache").
//
// Sample reuse and band carry-over require an anchored grid (GridSpec
// with Cell > 0); on bounds-derived grids st still provides scratch-arena
// reuse but every frame runs cold. Passing st == nil runs cold with
// throwaway scratch. The returned mesh never aliases st's arenas, so the
// caller may keep it across later extractions.
func ExtractIsosurfaceSparseTemporal(tf TemporalField, grid GridSpec, seeds []geom.Vec3, workers int, st *SparseState) *Mesh {
	return extractSparse(tf, grid, seeds, workers, st, true)
}

// axis-aligned march/neighbor directions.
var axisDirs = [6][3]int{
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
}

// marchCap bounds seed-march length, matching the old per-seed cap.
const marchCap = 1024

// bandOrder co-sorts the discovered band cells and their 8-per-cell
// corner arena slots into lattice scan order (z, then y, then x). Cells
// are unique, so the unstable sort still yields one deterministic order.
type bandOrder struct {
	cells   []cell3
	corners []int32
}

func (b bandOrder) Len() int { return len(b.cells) }
func (b bandOrder) Less(x, y int) bool {
	cx, cy := b.cells[x], b.cells[y]
	if cx.k != cy.k {
		return cx.k < cy.k
	}
	if cx.j != cy.j {
		return cx.j < cy.j
	}
	return cx.i < cy.i
}
func (b bandOrder) Swap(x, y int) {
	b.cells[x], b.cells[y] = b.cells[y], b.cells[x]
	cx, cy := b.corners[x*8:x*8+8], b.corners[y*8:y*8+8]
	for t := 0; t < 8; t++ {
		cx[t], cy[t] = cy[t], cx[t]
	}
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// extractSparse is the shared narrow-band engine. march selects between
// interior seeds (lattice-aligned marching to the surface) and
// near-surface seeds (a one-cell ring around each seed's cube).
func extractSparse(tf TemporalField, grid GridSpec, seeds []geom.Vec3, workers int, st *SparseState, march bool) *Mesh {
	lay, ok := grid.layout()
	if !ok || len(seeds) == 0 {
		return &Mesh{}
	}
	throwaway := st == nil
	if throwaway {
		st = &SparseState{}
	}

	// Temporal state is only sound on anchored grids: global lattice
	// coordinates must mean the same world point in every frame.
	temporal := lay.anchored
	warm := temporal && st.cell == lay.cell && len(st.band) > 0
	usePrev := temporal && st.cell == lay.cell && len(st.prevSamples) > 0
	st.Reused, st.Evaluated, st.Warm = 0, 0, warm

	// Lattice samples live in a flat arena; the slot index — a dense
	// int32 per lattice vertex on moderate grids, a map keyed by packed
	// global coordinates on huge ones — assigns each vertex its arena
	// slot once, at discovery time. Every later read — sign detection,
	// polygonization — is plain array indexing. Profiling showed repeated
	// map reads of the same vertices dominating extraction once the field
	// itself was pruned. Dense slot arrays store slot+1 so a cleared
	// array (all zeros) means "unsampled".
	const denseMax = 1 << 24 // cells or vertices; ≤64MB int32 scratch
	nVX, nVY, nVZ := lay.nx+1, lay.ny+1, lay.nz+1
	nVerts := nVX * nVY * nVZ
	denseSlots := nVerts <= denseMax
	var slots []int32
	if denseSlots {
		if cap(st.slotDense) < nVerts {
			st.slotDense = make([]int32, nVerts)
		}
		slots = st.slotDense[:nVerts]
		clear(slots)
	} else {
		if st.cur == nil {
			st.cur = make(map[int64]int32)
		}
		clear(st.cur)
	}
	values := st.cur
	samples := st.curSamples[:0]
	prev, prevSamples := st.prev, st.prevSamples
	prevDense, prevSlots := st.prevDense, st.prevSlotDense
	pBase, pVX, pVY, pVZ := st.prevBase, st.prevVX, st.prevVY, st.prevVZ

	// prevSlot resolves a lattice vertex (grid-local coords) to its arena
	// slot in prevSamples, or -1 when the previous frame never sampled
	// it. In dense mode this is pure array indexing.
	prevSlot := func(i, j, k int) int32 {
		if prevDense {
			pi := lay.base[0] + i - pBase[0]
			pj := lay.base[1] + j - pBase[1]
			pk := lay.base[2] + k - pBase[2]
			if pi < 0 || pj < 0 || pk < 0 || pi >= pVX || pj >= pVY || pk >= pVZ {
				return -1
			}
			return prevSlots[(pk*pVY+pj)*pVX+pi] - 1
		}
		if si, ok := prev[packG(lay.base[0]+i, lay.base[1]+j, lay.base[2]+k)]; ok {
			return si
		}
		return -1
	}

	// Wavefront dedup: a dense byte per cube when the grid is moderate,
	// a map on the huge grids where a dense array would dwarf the band.
	nCells := lay.nx * lay.ny * lay.nz
	denseVis := nCells <= denseMax
	var vis []uint8
	if denseVis {
		if cap(st.visitedDense) < nCells {
			st.visitedDense = make([]uint8, nCells)
		}
		vis = st.visitedDense[:nCells]
		clear(vis)
	} else {
		if st.visited == nil {
			st.visited = make(map[int64]bool)
		}
		clear(st.visited)
	}
	visited := st.visited

	s := newSlabMesh(lay)

	gkey := func(i, j, k int) int64 {
		return packG(lay.base[0]+i, lay.base[1]+j, lay.base[2]+k)
	}

	next := st.next[:0]
	roots := st.roots[:0]
	enqueue := func(c cell3, root bool) {
		if c.i < 0 || c.j < 0 || c.k < 0 || c.i >= lay.nx || c.j >= lay.ny || c.k >= lay.nz {
			return
		}
		if root {
			// Roots anchor the reachability filter; record them even when
			// a previous-band enqueue got to the cell first.
			roots = append(roots, gkey(c.i, c.j, c.k))
		}
		if denseVis {
			li := (c.k*lay.ny+c.j)*lay.nx + c.i
			if vis[li] != 0 {
				return
			}
			vis[li] = 1
		} else {
			key := gkey(c.i, c.j, c.k)
			if visited[key] {
				return
			}
			visited[key] = true
		}
		next = append(next, c)
	}
	ring := func(c cell3, root bool) {
		for dk := -1; dk <= 1; dk++ {
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					enqueue(cell3{c.i + di, c.j + dj, c.k + dk}, root)
				}
			}
		}
	}

	if march {
		// Lattice-aligned seed marching: snap each seed to its nearest
		// lattice vertex and walk the six axis directions until the field
		// changes sign. Rays run concurrently with per-ray result
		// buffers; the merge walks rays in index order, so the sample
		// cache and the enqueue order are worker-count invariant.
		nRays := len(seeds) * 6
		for len(st.rays) < nRays {
			st.rays = append(st.rays, seedRay{})
		}
		rays := st.rays[:nRays]
		par.For(workers, nRays, func(r int) {
			ry := &rays[r]
			ry.keys, ry.out, ry.hit, ry.cross = ry.keys[:0], ry.out[:0], ry.hit[:0], ry.cross[:0]
			sd := seeds[r/6]
			dir := axisDirs[r%6]
			i := clampi(int(math.Round((sd.X-lay.origin.X)/lay.cell)), 0, lay.nx)
			j := clampi(int(math.Round((sd.Y-lay.origin.Y)/lay.cell)), 0, lay.ny)
			k := clampi(int(math.Round((sd.Z-lay.origin.Z)/lay.cell)), 0, lay.nz)
			eval := func(i, j, k int) float64 {
				key := gkey(i, j, k)
				pt := s.latticePoint(i, j, k)
				if usePrev {
					if ps := prevSlot(i, j, k); ps >= 0 {
						if sm := prevSamples[ps]; tf.Reusable(pt, sm.Val, sm.Aux) {
							ry.keys = append(ry.keys, key)
							ry.out = append(ry.out, sm)
							ry.hit = append(ry.hit, true)
							return sm.Val
						}
					}
				}
				v, a := tf.Eval(pt)
				ry.keys = append(ry.keys, key)
				ry.out = append(ry.out, Sample{v, a})
				ry.hit = append(ry.hit, false)
				return v
			}
			neg0 := eval(i, j, k) < 0
			// The start cell's ring covers seeds already on the surface
			// (and bones thinner than a cell, which may never produce a
			// lattice sign change along the ray).
			ry.cross = append(ry.cross, cell3{
				clampi(i, 0, lay.nx-1), clampi(j, 0, lay.ny-1), clampi(k, 0, lay.nz-1),
			})
			for step := 0; step < marchCap; step++ {
				ni, nj, nk := i+dir[0], j+dir[1], k+dir[2]
				if ni < 0 || nj < 0 || nk < 0 || ni > lay.nx || nj > lay.ny || nk > lay.nz {
					break
				}
				if (eval(ni, nj, nk) < 0) != neg0 {
					// The crossing lies on the edge between the two
					// vertices; ring-enqueue around the cell at the lower
					// vertex of that edge.
					li, lj, lk := i, j, k
					if dir[0] < 0 || dir[1] < 0 || dir[2] < 0 {
						li, lj, lk = ni, nj, nk
					}
					ry.cross = append(ry.cross, cell3{
						clampi(li, 0, lay.nx-1), clampi(lj, 0, lay.ny-1), clampi(lk, 0, lay.nz-1),
					})
					break
				}
				i, j, k = ni, nj, nk
			}
		})
		for r := range rays {
			ry := &rays[r]
			for n, key := range ry.keys {
				fresh := false
				if denseSlots {
					gi, gj, gk := unpackG(key)
					vi := ((gk-lay.base[2])*nVY+(gj-lay.base[1]))*nVX + (gi - lay.base[0])
					if slots[vi] == 0 {
						slots[vi] = int32(len(samples)) + 1
						fresh = true
					}
				} else if _, ok := values[key]; !ok {
					values[key] = int32(len(samples))
					fresh = true
				}
				if fresh {
					samples = append(samples, ry.out[n])
					if ry.hit[n] {
						st.Reused++
					} else {
						st.Evaluated++
					}
				}
			}
			for _, c := range ry.cross {
				ring(c, true)
			}
		}
	} else {
		for _, sd := range seeds {
			d := sd.Sub(lay.origin)
			c := cell3{int(d.X / lay.cell), int(d.Y / lay.cell), int(d.Z / lay.cell)}
			// Seed a small neighborhood to tolerate seeds slightly off
			// the surface.
			ring(c, true)
		}
	}

	if warm {
		// Seed the wavefront with the whole previous band: discovery then
		// finishes in a couple of rounds (one big batch plus the rim the
		// surface moved into) instead of one ring per round.
		for _, key := range st.band {
			gi, gj, gk := unpackG(key)
			enqueue(cell3{gi - lay.base[0], gj - lay.base[1], gk - lay.base[2]}, false)
		}
	}

	// Discovery: flood-fill across sign-crossing cubes, batching field
	// evaluation per wavefront round. Cells are recorded, not yet
	// polygonized — the band is sorted first so traversal order cannot
	// leak into the output.
	bf, batched := tf.(BatchField)
	front := st.front[:0]
	band := st.bandCells[:0]
	bandCorners := st.bandCorners[:0]
	needPts, needOut, needHit := st.needPts[:0], st.needOut[:0], st.needHit[:0]
	needIdx, needPrev := st.needIdx[:0], st.needPrev[:0]
	batchPts, batchOut, batchIdx := st.batchPts, st.batchOut, st.batchIdx
	cornerIdx := st.cornerIdx
	for len(next) > 0 {
		front, next = next, front[:0]

		// Gather: one slot probe per cube corner assigns (or finds) the
		// corner's arena slot; the 8 slots per frontier cube are recorded
		// so the sign test below reads the arena directly. The previous
		// frame's candidate slot is resolved here too, so the parallel
		// eval phase below runs entirely on flat arrays.
		needPts, needIdx, needPrev = needPts[:0], needIdx[:0], needPrev[:0]
		if cap(cornerIdx) < 8*len(front) {
			cornerIdx = make([]int32, 8*len(front))
		}
		cornerIdx = cornerIdx[:8*len(front)]
		for fi, c := range front {
			for ci, off := range cubeOffsets {
				i, j, k := c.i+off[0], c.j+off[1], c.k+off[2]
				var idx int32
				fresh := false
				if denseSlots {
					vi := (k*nVY+j)*nVX + i
					if sv := slots[vi]; sv != 0 {
						idx = sv - 1
					} else {
						idx = int32(len(samples))
						slots[vi] = idx + 1
						fresh = true
					}
				} else {
					key := gkey(i, j, k)
					var ok bool
					if idx, ok = values[key]; !ok {
						idx = int32(len(samples))
						values[key] = idx
						fresh = true
					}
				}
				if fresh {
					samples = append(samples, Sample{}) // placeholder; filled below
					needIdx = append(needIdx, idx)
					needPts = append(needPts, s.latticePoint(i, j, k))
					ps := int32(-1)
					if usePrev {
						ps = prevSlot(i, j, k)
					}
					needPrev = append(needPrev, ps)
				}
				cornerIdx[fi*8+ci] = idx
			}
		}
		if cap(needOut) < len(needIdx) {
			needOut = make([]Sample, len(needIdx))
			needHit = make([]bool, len(needIdx))
		}
		needOut, needHit = needOut[:len(needIdx)], needHit[:len(needIdx)]
		if batched {
			// Chunked evaluation through the field's batch entry point:
			// each worker owns a contiguous subrange of the round's
			// points, compacts the ones the previous frame cannot vouch
			// for, and evaluates them in a single EvalBatch call — a
			// whole chunk shares the field's per-call setup (and, for the
			// avatar SDF, its spatial candidate pruning). Every sample is
			// a pure function of its point, so neither the chunk
			// partition nor the worker count can affect the output.
			if cap(batchPts) < len(needIdx) {
				batchPts = make([]geom.Vec3, len(needIdx))
				batchOut = make([]Sample, len(needIdx))
				batchIdx = make([]int32, len(needIdx))
			}
			batchPts = batchPts[:len(needIdx)]
			batchOut = batchOut[:len(needIdx)]
			batchIdx = batchIdx[:len(needIdx)]
			par.ForChunks(workers, len(needIdx), func(_, lo, hi int) {
				m := lo
				for n := lo; n < hi; n++ {
					if ps := needPrev[n]; ps >= 0 {
						if sm := prevSamples[ps]; tf.Reusable(needPts[n], sm.Val, sm.Aux) {
							needOut[n], needHit[n] = sm, true
							continue
						}
					}
					batchPts[m], batchIdx[m] = needPts[n], int32(n)
					m++
				}
				if m > lo {
					bf.EvalBatch(batchPts[lo:m], batchOut[lo:m])
					for t := lo; t < m; t++ {
						needOut[batchIdx[t]], needHit[batchIdx[t]] = batchOut[t], false
					}
				}
			})
		} else {
			par.For(workers, len(needIdx), func(n int) {
				if ps := needPrev[n]; ps >= 0 {
					if sm := prevSamples[ps]; tf.Reusable(needPts[n], sm.Val, sm.Aux) {
						needOut[n], needHit[n] = sm, true
						return
					}
				}
				v, a := tf.Eval(needPts[n])
				needOut[n], needHit[n] = Sample{v, a}, false
			})
		}
		for n := range needIdx {
			samples[needIdx[n]] = needOut[n]
			if needHit[n] {
				st.Reused++
			} else {
				st.Evaluated++
			}
		}

		for fi, c := range front {
			base := fi * 8
			anyNeg, anyPos := false, false
			for ci := 0; ci < 8; ci++ {
				if samples[cornerIdx[base+ci]].Val < 0 {
					anyNeg = true
				} else {
					anyPos = true
				}
			}
			if !anyNeg || !anyPos {
				continue
			}
			band = append(band, c)
			bandCorners = append(bandCorners, cornerIdx[base:base+8]...)
			// The surface continues into face neighbors.
			for _, d := range axisDirs {
				enqueue(cell3{c.i + d[0], c.j + d[1], c.k + d[2]}, false)
			}
		}
	}

	if warm {
		// Reachability filter: keep only band cells connected to this
		// frame's seed cells through face-adjacent sign-crossing cells.
		// A cold run discovers exactly that set (expansion only ever
		// proceeds from sign-crossing cells, starting at the seed ring),
		// so the filtered warm band — over bitwise-identical sample
		// values — matches the cold band cell for cell.
		// The marks are a dense byte per lattice cell (the lattice is
		// bounded by Resolution³) so the flood fill runs on array
		// indexing; profiling shows map traffic dominates the warm path.
		n := lay.nx * lay.ny * lay.nz
		if cap(st.mark) < n {
			st.mark = make([]uint8, n)
		}
		mark := st.mark[:n]
		clear(mark)
		lidx := func(i, j, k int) int { return (k*lay.ny+j)*lay.nx + i }
		const (
			inBand uint8 = 1 // sign-crossing, not yet proven reachable
			kept   uint8 = 2 // reachable from a seed cell
		)
		for _, c := range band {
			mark[lidx(c.i, c.j, c.k)] = inBand
		}
		queue := st.queue[:0]
		for _, key := range roots {
			gi, gj, gk := unpackG(key)
			c := cell3{gi - lay.base[0], gj - lay.base[1], gk - lay.base[2]}
			if li := lidx(c.i, c.j, c.k); mark[li] == inBand {
				mark[li] = kept
				queue = append(queue, c)
			}
		}
		for len(queue) > 0 {
			c := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, d := range axisDirs {
				ni, nj, nk := c.i+d[0], c.j+d[1], c.k+d[2]
				if ni < 0 || nj < 0 || nk < 0 || ni >= lay.nx || nj >= lay.ny || nk >= lay.nz {
					continue
				}
				if li := lidx(ni, nj, nk); mark[li] == inBand {
					mark[li] = kept
					queue = append(queue, cell3{ni, nj, nk})
				}
			}
		}
		st.queue = queue
		keptBand := band[:0]
		keptCorners := bandCorners[:0]
		for bi, c := range band {
			if mark[lidx(c.i, c.j, c.k)] == kept {
				keptBand = append(keptBand, c)
				keptCorners = append(keptCorners, bandCorners[bi*8:bi*8+8]...)
			}
		}
		band, bandCorners = keptBand, keptCorners
	}

	// Polygonize in lattice scan order (z, then y, then x — the dense
	// extractor's cube order), making the mesh a pure function of the
	// band set and sample values. Each cell's recorded corner slots are
	// permuted along with it, so this loop is map-free.
	//
	// Vertices are deduplicated through a flat edge table addressed by
	// (arena slot of the edge's lower endpoint, direction): every tet
	// edge runs in one of seven non-negative directions, so the pair
	// names a lattice edge uniquely, and the table is sized by the
	// frame's sample count rather than the lattice. Vertices and faces
	// accumulate in arenas that persist across frames.
	sort.Sort(bandOrder{band, bandCorners})
	nEdges := len(samples) * edgeDirs
	if cap(st.edges) < nEdges {
		st.edges = make([]int32, nEdges)
	}
	s.edges = st.edges[:nEdges]
	clear(s.edges)
	s.verts, s.faces = st.verts[:0], st.faces[:0]
	for bi, c := range band {
		s.corners = bandCorners[bi*8 : bi*8+8]
		var vals [8]float64
		for ci, slot := range s.corners {
			vals[ci] = samples[slot].Val
		}
		s.polygonizeCube(vals, c.i, c.j, c.k)
	}

	// Persist state for the next frame; on non-anchored grids only the
	// scratch arenas survive.
	st.front, st.next, st.roots = front, next, roots
	st.bandCells, st.bandCorners = band, bandCorners
	st.needPts, st.needOut, st.needHit = needPts, needOut, needHit
	st.needIdx, st.needPrev, st.cornerIdx = needIdx, needPrev, cornerIdx
	st.batchPts, st.batchOut, st.batchIdx = batchPts, batchOut, batchIdx
	st.curSamples = samples
	st.verts, st.faces = s.verts, s.faces
	if temporal {
		st.cell = lay.cell
		st.band = st.band[:0]
		for _, c := range band {
			st.band = append(st.band, gkey(c.i, c.j, c.k))
		}
		st.prevDense = denseSlots
		if denseSlots {
			st.slotDense, st.prevSlotDense = st.prevSlotDense, slots
			st.prevBase = lay.base
			st.prevVX, st.prevVY, st.prevVZ = nVX, nVY, nVZ
		} else {
			st.prev, st.cur = st.cur, st.prev
			if st.cur == nil {
				st.cur = make(map[int64]int32)
			}
		}
		st.prevSamples, st.curSamples = st.curSamples, st.prevSamples
	}
	if throwaway {
		// Nothing outlives this call, so the arenas themselves are the
		// result.
		return s.mesh()
	}
	// The arenas stay with st for the next frame; the caller owns an
	// exact-size copy (caches and pipelines keep returned meshes).
	return &Mesh{
		Vertices: append(make([]geom.Vec3, 0, len(s.verts)), s.verts...),
		Faces:    append(make([]Face, 0, len(s.faces)), s.faces...),
	}
}
