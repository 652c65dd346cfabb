package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/cluster"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

const (
	room = "bench"
	// sinksPerShard is the fan-out legs each shard serves besides the
	// probe. At 96 per shard the Go scheduler's p99 latency stays near
	// 2 ms, well under a tenth of the frame interval, on a 2-core host,
	// so the legs measure the relay rather than the scheduler; at 128 it
	// reached 3.6 ms on a busy host.
	sinksPerShard = 96
	// slowEvery makes every slowEvery-th sink a slow consumer.
	slowEvery = 4
	// slowDrainBps is the slow sinks' mean read rate: below the top
	// rung's bitrate, so their TierSelectors must hold a lower rung. Each
	// slow sink draws its own rate within ±slowDrainSpread of it, so the
	// legs' periodic upward tier probes do not all fall on the same
	// frames.
	slowDrainBps    = 1e6
	slowDrainSpread = 0.2
	// probeRes is the probe's keypoint reconstruction resolution; the
	// probe usually holds the hybrid rung, decoded at peripheral res 24.
	probeRes = 64
)

// ladderBitrates are the semantic ladder's nominal rung rates (bits/s):
// keypoints, keypoints+texture, full foveated hybrid.
var ladderBitrates = [3]float64{0.3e6, 2e6, 8e6}

// gazeAnchor is the viewer's fixation point for foveated coding.
var gazeAnchor = geom.V3(0, 1.5, 0.1)

var fovea = gaze.FovealSelector{Radius: 8, ViewDistance: 2}

// sinkConn is a sink's end of an in-process pipe: it counts bytes read
// and, for a slow sink, paces reads to a fixed drain rate.
type sinkConn struct {
	net.Conn
	bps  float64
	read int64 // owned by the reading goroutine
	next time.Time
}

func (c *sinkConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	if c.bps > 0 && n > 0 {
		now := time.Now()
		if c.next.Before(now) {
			c.next = now
		}
		c.next = c.next.Add(time.Duration(float64(n*8) / c.bps * float64(time.Second)))
		sleepUntil(c.next)
	}
	return n, err
}

// rfSink is one fan-out leg's subscriber end: it completes the
// handshake, stamps each media frame's arrival and checks the stream.
// Fields below arrived are owned by the sink goroutine until it exits.
type rfSink struct {
	name          string
	slow, trunked bool
	sess          *transport.Session
	conn          *sinkConn
	arrived       atomic.Int64

	lastSeq   map[uint16]uint32
	seqGaps   int
	deliver   []float64
	frames    int
	wire      int64
	payload   int64
	tierSum   int
	topTier   int
	relayHops []float64
	trunkHops []float64
	err       error
}

// rfProbeFrame is what the probe saw of one scheduled frame.
type rfProbeFrame struct {
	rendered                  bool
	arrived, decStart, decEnd time.Time
	renderEnd                 time.Time
	sendUS, homeIn, homeOut   uint64
	leafIn, leafOut           uint64
}

// roomFanout is one publisher's three-rung ladder fanned out by a
// two-shard cluster room to 2×96 sink legs and one decoding probe.
type roomFanout struct {
	plan plan
	sc   *scene

	ladder  *core.TierLadder
	sender  *core.Sender
	pubSess *transport.Session
	pubLink *netsim.Link

	mgr        *cluster.RoomManager
	home, leaf *cluster.Shard
	sinks      []*rfSink

	probeSess *transport.Session
	probeLink *netsim.Link
	probeRcv  *core.Receiver
	recon     metrics.ReconCounters
	field     metrics.FieldCounters
	rend      *renderer

	// Publisher records, written by the generator goroutine.
	lag              []float64
	encStart, encEnd []time.Time
	txEnd            []time.Time
	tierBytes        [3][]float64
	published        int

	// Probe records, written by the probe goroutine.
	probe        []rfProbeFrame
	probeDecodes atomic.Int64
	probeErrs    int
	probeErr     error
	probeSamples [][2]*mesh.Mesh
}

func newRoomFanout(cfg config) (*roomFanout, error) {
	n, sinks := loopFrames, sinksPerShard
	if cfg.smoke {
		n, sinks = 8, 8
	}
	rf := &roomFanout{plan: newPlan(cfg), sc: newScene(cfg.seed, 0, n)}
	total := rf.plan.total
	rf.encStart, rf.encEnd, rf.txEnd = make([]time.Time, total), make([]time.Time, total), make([]time.Time, total)
	rf.probe = make([]rfProbeFrame, total)
	rf.rend = newRenderer(rf.sc)

	hybrid := &core.HybridEncoder{
		Keypoint:    rf.sc.keypointEncoder(),
		Selector:    fovea,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	hybrid.SetGazeAnchor(gazeAnchor)
	ladder, err := core.NewSemanticLadder(rf.sc.keypointEncoder(), hybrid, ladderBitrates)
	if err != nil {
		return nil, err
	}
	rf.ladder = ladder

	rf.mgr = cluster.NewRoomManager(cluster.ManagerOptions{})
	shards := map[string]*cluster.Shard{}
	for k := 0; k < 2; k++ {
		s := cluster.NewShard(fmt.Sprintf("shard-%d", k), cluster.ShardOptions{Site: byte(10 + k), TierLevels: ladder.Levels()})
		if err := rf.mgr.AddShard(s); err != nil {
			rf.close()
			return nil, err
		}
		shards[s.ID()] = s
	}
	homeID, err := rf.mgr.HomeShard(room)
	if err != nil {
		rf.close()
		return nil, err
	}
	for id, s := range shards {
		if id == homeID {
			rf.home = s
		} else {
			rf.leaf = s
		}
	}
	if err := rf.mgr.ActivateRoom(room, rf.home.ID()); err != nil {
		rf.close()
		return nil, err
	}
	// The publisher is the home relay's first peer, ahead of the trunk,
	// so its channels reach every subscriber unshifted.
	a, b, link := netsim.Pipe(netsim.BroadbandUS(cfg.seed))
	rf.pubLink = link
	if rf.pubSess, err = join(rf.home, a, b, "publisher"); err != nil {
		rf.close()
		return nil, err
	}
	if err := rf.mgr.ActivateRoom(room, rf.leaf.ID()); err != nil {
		rf.close()
		return nil, err
	}
	rf.sender = &core.Sender{Session: rf.pubSess, Obs: obs.NewPipelineMetrics(obs.NewRegistry()), Site: 1}
	rf.sender.OnKeyframeRequest = ladder.RequestKeyframe

	rng := rand.New(rand.NewSource(cfg.seed))
	for _, s := range []*cluster.Shard{rf.home, rf.leaf} {
		for k := 0; k < sinks; k++ {
			mine, theirs := net.Pipe()
			sk := &rfSink{
				name:    fmt.Sprintf("sink-%s-%03d", s.ID(), k),
				slow:    k%slowEvery == slowEvery-1,
				trunked: s == rf.leaf,
				lastSeq: map[uint16]uint32{},
			}
			sk.conn = &sinkConn{Conn: mine}
			if sk.slow {
				sk.conn.bps = slowDrainBps * (1 + slowDrainSpread*(2*rng.Float64()-1))
			}
			if sk.sess, err = join(s, sk.conn, theirs, sk.name); err != nil {
				rf.close()
				return nil, err
			}
			rf.sinks = append(rf.sinks, sk)
		}
	}

	a, b, rf.probeLink = netsim.Pipe(netsim.BroadbandUS(cfg.seed + 1))
	if rf.probeSess, err = join(rf.leaf, a, b, "probe"); err != nil {
		rf.close()
		return nil, err
	}
	kd := &core.KeypointDecoder{Model: rf.sc.env.Model, Codec: compress.LZR(), Resolution: probeRes, WarmStart: true, Counters: &rf.recon, FieldStats: &rf.field}
	hd := &core.HybridDecoder{Model: rf.sc.env.Model, Codec: compress.LZR(), PeripheralResolution: 24, Selector: fovea, WarmStart: true, Counters: &rf.recon, FieldStats: &rf.field}
	hd.SetGazeAnchor(gazeAnchor)
	rf.probeRcv = &core.Receiver{
		Session: rf.probeSess,
		Decoder: &core.AdaptiveDecoder{Keypoint: kd, Hybrid: hd},
		Obs:     obs.NewPipelineMetrics(obs.NewRegistry()),
		Site:    3,
		Traces:  obs.NewTraceStore(0),
	}
	return rf, nil
}

// join dials peer into the room on shard s over the (client, server)
// pipe ends.
func join(s *cluster.Shard, client, server net.Conn, peer string) (*transport.Session, error) {
	accepted := make(chan error, 1)
	go func() {
		_, _, err := s.Accept(server)
		accepted <- err
	}()
	sess, _, err := transport.Dial(client, transport.Hello{Peer: peer, Room: room})
	aerr := <-accepted
	if err == nil {
		err = aerr
	}
	if err != nil {
		return nil, fmt.Errorf("join %s on %s: %w", peer, s.ID(), err)
	}
	return sess, nil
}

func (rf *roomFanout) close() {
	if rf.pubSess != nil {
		_ = rf.pubSess.Close()
	}
	if rf.probeSess != nil {
		_ = rf.probeSess.Close()
	}
	for _, sk := range rf.sinks {
		_ = sk.sess.Close()
	}
	_ = rf.mgr.Close()
	if rf.pubLink != nil {
		rf.pubLink.Close()
	}
	if rf.probeLink != nil {
		rf.probeLink.Close()
	}
}

// relayStats returns every leg's relay counters, keyed by peer name.
func (rf *roomFanout) relayStats() map[string]core.RelayPeerStats {
	out := map[string]core.RelayPeerStats{}
	for _, s := range []*cluster.Shard{rf.home, rf.leaf} {
		if r := s.Relay(room); r != nil {
			for _, ps := range r.PeerStats() {
				out[ps.Name] = ps
			}
		}
	}
	return out
}

// probeCounters feeds the windows: probe decodes, sink-leg sheds and
// tier switches, then the probe's reconstruction and field counters.
func (rf *roomFanout) probeCounters() []float64 {
	var dropped, switches float64
	for name, ps := range rf.relayStats() {
		if strings.HasPrefix(name, "sink-") {
			dropped += float64(ps.Dropped)
			switches += float64(ps.TierSwitches)
		}
	}
	r := rf.recon.Snapshot()
	fs := rf.field.Snapshot()
	return []float64{
		float64(rf.probeDecodes.Load()), dropped, switches,
		float64(r.WarmFrames), float64(r.ColdFrames), float64(r.SamplesReused), float64(r.SamplesEvaluated),
		float64(fs.Samples), float64(fs.CapsuleTests),
	}
}

// publish is the publisher's generator: open loop, frame i encoded at
// every rung and sent when due, stamped with its due time.
func (rf *roomFanout) publish() error {
	p := rf.plan
	for i := 0; i < p.total; i++ {
		sleepUntil(p.due(i))
		wake := time.Now()
		if p.inMain(i) {
			rf.lag = append(rf.lag, msBetween(p.due(i), wake))
		}
		lf, err := rf.ladder.EncodeAll(rf.sc.caps[i%len(rf.sc.caps)])
		if err != nil {
			return err
		}
		if p.tracing(i) {
			rf.encStart[i], rf.encEnd[i] = wake, time.Now()
			for t, enc := range lf.Tiers {
				if t < len(rf.tierBytes) {
					rf.tierBytes[t] = append(rf.tierBytes[t], float64(enc.TotalBytes()))
				}
			}
		}
		if err := rf.sender.TransmitLadder(lf, p.due(i)); err != nil {
			return err
		}
		if p.tracing(i) {
			rf.txEnd[i] = time.Now()
		}
		rf.published++
	}
	return nil
}

// serveSink drains one fan-out leg until its session ends.
func (rf *roomFanout) serveSink(sk *rfSink) {
	p := rf.plan
	var payload int64
	var lastBytes int64
	for {
		f, err := sk.sess.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
				sk.err = err
			}
			return
		}
		if f.Type == transport.TypeClose {
			return
		}
		if f.Type != transport.TypeSemantic {
			continue
		}
		if last, ok := sk.lastSeq[f.Channel]; ok && f.Seq != last+1 {
			sk.seqGaps++
		}
		sk.lastSeq[f.Channel] = f.Seq
		payload += int64(len(f.Payload))
		if f.Flags&transport.FlagEndOfFrame == 0 {
			continue
		}
		now := time.Now()
		sk.arrived.Add(1)
		i := p.frameOfDue(f.CaptureTS)
		wire := sk.conn.read - lastBytes
		lastBytes = sk.conn.read
		if p.inMain(i) {
			sk.deliver = append(sk.deliver, msBetween(p.due(i), now))
			sk.frames++
			sk.wire += wire
			sk.payload += payload
			sk.tierSum += int(f.Tier)
			if int(f.Tier) == len(ladderBitrates)-1 {
				sk.topTier++
			}
			if p.tracing(i) {
				sk.relayHops, sk.trunkHops = appendHopDwell(sk.relayHops, sk.trunkHops, f.Hops)
			}
		}
		payload = 0
	}
}

// appendHopDwell appends each relay's ingress→egress dwell and, on a
// trunked path, the time from the home shard's trunk write to the leaf
// shard's write to the subscriber.
func appendHopDwell(relay, trunk []float64, hops []obs.Hop) ([]float64, []float64) {
	var egress []uint64
	for k, h := range hops {
		if h.Kind != obs.HopRelayIngress || k+1 >= len(hops) {
			continue
		}
		if out := hops[k+1]; out.Kind == obs.HopRelayEgress && out.Site == h.Site {
			relay = append(relay, msMicros(h.RecvMicros, out.SendMicros))
			egress = append(egress, out.SendMicros)
		}
	}
	if len(egress) == 2 {
		trunk = append(trunk, msMicros(egress[0], egress[1]))
	}
	return relay, trunk
}

// serveProbe decodes and renders whatever rung the probe leg is served.
func (rf *roomFanout) serveProbe() error {
	p := rf.plan
	nextSample := 0
	for {
		raw, err := rf.probeRcv.NextRaw()
		if err != nil {
			if errors.Is(err, core.ErrSessionClosed) || errors.Is(err, io.EOF) ||
				errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if raw.Trace == nil {
			return errors.New("probe frame arrived without its capture stamp")
		}
		i := p.frameOfDue(raw.Trace.CaptureMicros)
		decStart := time.Now()
		data, err := rf.probeRcv.DecodeRaw(raw)
		decEnd := time.Now()
		rf.probeDecodes.Add(1)
		if err != nil {
			if p.inMain(i) {
				rf.probeErrs++
				rf.probeErr = err
			}
			continue
		}
		rf.rend.draw(data.Mesh)
		renderEnd := time.Now()
		if i < 0 || i >= p.total {
			continue
		}
		f := &rf.probe[i]
		f.rendered, f.arrived, f.renderEnd = true, raw.Trace.ArrivedAt, renderEnd
		if p.tracing(i) {
			f.decStart, f.decEnd = decStart, decEnd
			hopTimes(f, raw.Trace.Hops)
		}
		if p.inMain(i) && i >= nextSample && data.Mesh != nil {
			nextSample = i + sampleEvery
			rf.probeSamples = append(rf.probeSamples, [2]*mesh.Mesh{data.Mesh.Clone(), rf.sc.caps[i%len(rf.sc.caps)].Mesh})
		}
	}
}

// hopTimes pulls the path's sender send, home ingress/egress and leaf
// ingress/egress instants out of a probe frame's hop record.
func hopTimes(f *rfProbeFrame, hops []obs.Hop) {
	relays := 0
	for _, h := range hops {
		switch h.Kind {
		case obs.HopSender:
			f.sendUS = h.SendMicros
		case obs.HopRelayIngress:
			if relays == 0 {
				f.homeIn = h.RecvMicros
			} else {
				f.leafIn = h.RecvMicros
			}
		case obs.HopRelayEgress:
			if relays == 0 {
				f.homeOut = h.SendMicros
			} else {
				f.leafOut = h.SendMicros
			}
			relays++
		}
	}
}

func runRoomFanout(cfg config) (*result, error) {
	rf, setupS, err := setUp(cfg, newRoomFanout, (*roomFanout).close)
	if err != nil {
		return nil, err
	}
	p := &rf.plan
	p.start = time.Now().Add(20 * time.Millisecond)
	spans := &spanStore{epoch: p.start}

	var wg sync.WaitGroup
	for _, sk := range rf.sinks {
		wg.Add(1)
		go func(sk *rfSink) {
			defer wg.Done()
			rf.serveSink(sk)
		}(sk)
	}
	var probeErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		probeErr = rf.serveProbe()
	}()
	// Tier-keyframe requests from the relay reach the publisher on its
	// inbound control plane.
	go func() {
		defer wg.Done()
		for {
			f, err := rf.pubSess.Recv()
			if err != nil {
				return
			}
			if f.Type == transport.TypeControl {
				_ = rf.sender.HandleControl(f)
			}
		}
	}()
	var (
		ref  *window
		main windows
	)
	winDone := make(chan struct{})
	go func() {
		defer close(winDone)
		ref, main = p.runWindows(rf.probeCounters, nil)
	}()
	pubErr := rf.publish()
	<-winDone
	rf.drain()
	stats := rf.relayStats()
	rf.close()
	wg.Wait()
	if pubErr != nil {
		return nil, fmt.Errorf("publisher: %w", pubErr)
	}
	if probeErr != nil {
		return nil, fmt.Errorf("probe: %w", probeErr)
	}

	res := newResult()
	m := res.metrics
	mainFrames := p.mainFrames()
	legs := len(rf.sinks)
	res.attempted = mainFrames * (legs + 1)

	// Output checks. The transport verified every frame's CRC on read (a
	// bad one ends the leg with an error). On every sink leg per-channel
	// sequence numbers must be contiguous, and on every leg each frame it
	// missed must be one the relay reports shedding — on the leg, or
	// upstream on the trunk for a leaf-shard leg.
	var trunkDropped uint64
	for name, ps := range stats {
		if strings.HasPrefix(name, cluster.TrunkPeerPrefix) {
			trunkDropped += ps.Dropped
		}
	}
	checkLeg := func(name string, arrived int64, trunked bool) {
		ps, ok := stats[name]
		if !ok {
			res.fail("%s: no relay stats", name)
			return
		}
		want := ps.Dropped
		if trunked {
			want += trunkDropped
		}
		if missed := uint64(rf.published) - uint64(arrived); missed != want {
			res.fail("%s: missed %d frames, relay reports %d shed", name, missed, want)
		}
	}
	checkLeg("probe", rf.probeDecodes.Load(), true)
	var deliver, deliverHome, deliverTrunk, deliverFast, deliverSlow, relayDwell, trunkDwell []float64
	var frames, tierSum, topTier, slowFrames, slowTierSum int
	var wireBytes, payloadBytes int64
	for _, sk := range rf.sinks {
		if sk.err != nil {
			res.fail("%s: %v", sk.name, sk.err)
		}
		if sk.seqGaps != 0 {
			res.fail("%s: %d sequence gaps", sk.name, sk.seqGaps)
		}
		checkLeg(sk.name, sk.arrived.Load(), sk.trunked)
		deliver = append(deliver, sk.deliver...)
		if sk.trunked {
			deliverTrunk = append(deliverTrunk, sk.deliver...)
		} else {
			deliverHome = append(deliverHome, sk.deliver...)
		}
		if sk.slow {
			deliverSlow = append(deliverSlow, sk.deliver...)
		} else {
			deliverFast = append(deliverFast, sk.deliver...)
		}
		relayDwell = append(relayDwell, sk.relayHops...)
		trunkDwell = append(trunkDwell, sk.trunkHops...)
		frames += sk.frames
		wireBytes += sk.wire
		payloadBytes += sk.payload
		tierSum += sk.tierSum
		topTier += sk.topTier
		if sk.slow {
			slowFrames += sk.frames
			slowTierSum += sk.tierSum
		}
	}
	m2p := make([][]float64, p.subs)
	onTime := 0
	for i := p.ref; i < p.total; i++ {
		f := &rf.probe[i]
		if !f.rendered {
			continue
		}
		k := p.sub(i)
		mt := msBetween(p.due(i), f.renderEnd)
		m2p[k] = append(m2p[k], mt)
		if mt <= float64(onTimeBudget)/1e6 {
			onTime++
		}
	}
	if rf.probeErrs > 0 {
		res.fail("probe: %d frames failed to decode, last: %v", rf.probeErrs, rf.probeErr)
		res.failed += rf.probeErrs - 1
	}

	m["m2p_p50_ms"] = subQuantile(m2p, 0.5)
	m["m2p_p95_ms"] = subQuantile(m2p, 0.95)
	m["on_time_frac"] = ratio(float64(onTime), float64(mainFrames))
	// Sink-leg percentiles span the whole window: the slow legs' upward
	// tier probes come in episodes that recur every few seconds, so a
	// third of the window holds a varying share of them by design.
	m["deliver_p50_ms"] = quantile(deliver, 0.5)
	m["deliver_p95_ms"] = quantile(deliver, 0.95)
	m["delivered_frac"] = ratio(float64(frames), float64(mainFrames*legs))
	m["decode_fps"] = main.rate(0)
	m["wire_bytes_per_frame"] = ratio(float64(wireBytes), float64(frames))
	m["chamfer_mm"] = chamferMm(rf.probeSamples)
	m["setup_s"] = setupS
	m["capture.ms_per_frame"] = rf.sc.captureMs
	m["loadgen.lag_p95_ms"] = quantile(rf.lag, 0.95)
	m["transport.header_bytes_per_frame"] = ratio(float64(wireBytes-payloadBytes), float64(frames))
	m["relay.shed_frac"] = ratio(main.delta(1), float64(mainFrames*legs))
	m["relay.tier_switches"] = main.delta(2)
	m["relay.top_tier_share"] = ratio(float64(topTier), float64(frames))
	m["relay.slow_leg_tier_mean"] = ratio(float64(slowTierSum), float64(slowFrames))
	m["deliver_p95_ms.home"] = quantile(deliverHome, 0.95)
	m["deliver_p95_ms.trunked"] = quantile(deliverTrunk, 0.95)
	m["deliver_p95_ms.fast"] = quantile(deliverFast, 0.95)
	m["deliver_p95_ms.slow"] = quantile(deliverSlow, 0.95)

	m["recon.warm_frac"] = ratio(main.delta(3), main.delta(3)+main.delta(4))
	m["recon.sample_reuse_frac"] = ratio(main.delta(5), main.delta(5)+main.delta(6))
	m["field.capsule_tests_per_sample"] = ratio(main.delta(8), main.delta(7))
	res.addWindow(ref, main, dueFrames)

	if p.traced {
		m["relay.dwell_ms_p50"] = quantile(relayDwell, 0.5)
		m["relay.dwell_ms_p95"] = quantile(relayDwell, 0.95)
		m["trunk.dwell_ms_p95"] = quantile(trunkDwell, 0.95)
		for t := range rf.tierBytes {
			m[fmt.Sprintf("encode.bytes_tier%d", t)] = mean(rf.tierBytes[t])
		}
		rf.spans(spans, m)
		// The harness replays the publisher uplink (every rung) and the
		// probe downlink at their measured bytes per frame; the sinks have
		// no emulated link.
		uplink := ratio(float64(rf.pubLink.AtoB.Bytes()), float64(rf.published))
		downlink := ratio(float64(rf.probeLink.BtoA.Bytes()), float64(rf.probeDecodes.Load()))
		cpu, dl, err := harnessArm(
			[]netsim.LinkConfig{netsim.BroadbandUS(cfg.seed), netsim.BroadbandUS(cfg.seed + 1)},
			[]int{int(uplink), int(downlink)}, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		m["harness.cpu_ms_per_frame"], m["harness.deliver_p95_ms"] = cpu, dl
		if err := spans.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-room-fanout-seed%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = peakRSSMiB()
	return res, nil
}

// drain waits, after the last frame, until every egress queue is empty
// and no leg, the probe included, has received anything for a few polls
// (5 s at most).
func (rf *roomFanout) drain() {
	last, still := int64(-1), 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		queued := 0
		for _, ps := range rf.relayStats() {
			queued += ps.Queued
		}
		arrived := rf.probeDecodes.Load()
		for _, sk := range rf.sinks {
			arrived += sk.arrived.Load()
		}
		if queued == 0 && arrived == last {
			if still++; still >= 3 {
				return
			}
		} else {
			still = 0
		}
		last = arrived
	}
}

// spans builds the probe's per-frame span tree — publisher encode and
// send, uplink wire, home relay, trunk, leaf relay, downlink wire,
// receive queue, decode, render — and reports the layer self times.
func (rf *roomFanout) spans(spans *spanStore, m map[string]float64) {
	p := rf.plan
	us := func(v uint64) time.Time { return time.UnixMicro(int64(v)) }
	var roots []float64
	for i := p.ref; i < p.total; i++ {
		f := &rf.probe[i]
		if !f.rendered || rf.encStart[i].IsZero() || f.decStart.IsZero() || f.sendUS == 0 || f.leafOut == 0 {
			continue
		}
		root := spans.root("frame", i, p.due(i), f.renderEnd)
		roots = append(roots, msBetween(p.due(i), f.renderEnd))
		spans.child("loadgen.lag", i, root, p.due(i), rf.encStart[i])
		spans.child("encode", i, root, rf.encStart[i], rf.encEnd[i])
		spans.child("transmit", i, root, rf.encEnd[i], rf.txEnd[i])
		spans.child("wire", i, root, us(f.sendUS), us(f.homeIn))
		spans.child("relay.home", i, root, us(f.homeIn), us(f.homeOut))
		spans.child("trunk", i, root, us(f.homeOut), us(f.leafIn))
		spans.child("relay.leaf", i, root, us(f.leafIn), us(f.leafOut))
		spans.child("wire", i, root, us(f.leafOut), f.arrived)
		spans.child("pipeline.queue_wait", i, root, f.arrived, f.decStart)
		spans.child("decode", i, root, f.decStart, f.decEnd)
		spans.child("render", i, root, f.decEnd, f.renderEnd)
	}
	self := spans.selfMs()
	for _, n := range []string{"encode", "transmit", "wire", "decode", "render"} {
		m[n+".ms_p50"] = quantile(self[n], 0.5)
		m[n+".ms_p95"] = quantile(self[n], 0.95)
	}
	excess := make([]float64, 0, len(self["wire"]))
	for _, w := range self["wire"] {
		excess = append(excess, w-float64(netsim.BroadbandUS(0).Delay)/1e6)
	}
	m["wire.excess_ms_p95"] = quantile(excess, 0.95)
	m["trace.m2p_p50_ms"] = quantile(roots, 0.5)
	sum := 0.0
	for _, n := range []string{"loadgen.lag", "encode", "transmit", "relay.home", "trunk", "relay.leaf", "pipeline.queue_wait", "decode", "render"} {
		sum += quantile(self[n], 0.5)
	}
	// Two wire crossings per frame: the uplink and the probe's downlink.
	m["trace.blocking_sum_p50_ms"] = sum + 2*quantile(self["wire"], 0.5)
}
