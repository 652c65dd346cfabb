package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"semholo/internal/netsim"
)

// harnessArm replays a workload's frame schedule over fresh netsim links
// configured like the workload's own, with one writer and one drain per
// link and nothing else: no encoder, relay or decoder. Link k carries
// sizes[k] bytes per frame (the workload's measured wire bytes). It
// returns the process CPU per scheduled frame and the p95 of due →
// whole-blob arrival — the cost and delay of the emulated network alone,
// which the system's own figures include.
func harnessArm(links []netsim.LinkConfig, sizes []int, seconds float64) (cpuMsPerFrame, deliverP95Ms float64, err error) {
	frames := int(seconds * fps)
	if frames < 2 {
		frames = 2
	}
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * frameInterval) }

	var (
		mu   sync.Mutex
		lats []float64
		errs []error
		wg   sync.WaitGroup
	)
	report := func(e error) {
		mu.Lock()
		errs = append(errs, e)
		mu.Unlock()
	}
	cpu0 := cpuTime()
	for k, cfg := range links {
		size := sizes[k]
		if size < 8 {
			size = 8
		}
		a, b, link := netsim.Pipe(cfg)
		wg.Add(2)
		go func(a net.Conn) {
			defer wg.Done()
			defer a.Close()
			blob := make([]byte, size)
			for i := 0; i < frames; i++ {
				sleepUntil(due(i))
				binary.LittleEndian.PutUint32(blob[0:], uint32(i))
				binary.LittleEndian.PutUint32(blob[4:], uint32(size))
				if _, err := a.Write(blob); err != nil {
					report(fmt.Errorf("harness write: %w", err))
					return
				}
			}
		}(a)
		go func(b net.Conn, link *netsim.Link) {
			defer wg.Done()
			defer link.Close()
			buf := make([]byte, size)
			local := make([]float64, 0, frames)
			for {
				if _, err := io.ReadFull(b, buf[:8]); err != nil {
					if !errors.Is(err, io.EOF) {
						report(fmt.Errorf("harness read: %w", err))
					}
					break
				}
				i := int(binary.LittleEndian.Uint32(buf[0:]))
				n := int(binary.LittleEndian.Uint32(buf[4:]))
				if _, err := io.ReadFull(b, buf[8:n]); err != nil {
					report(fmt.Errorf("harness read: %w", err))
					break
				}
				local = append(local, msBetween(due(i), time.Now()))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(b, link)
	}
	wg.Wait()
	cpu := float64(cpuTime()-cpu0) / 1e6
	if len(errs) > 0 {
		return 0, 0, errs[0]
	}
	return cpu / float64(frames), quantile(lats, 0.95), nil
}
