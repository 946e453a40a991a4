package main

import (
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/geo"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// The sim/phy layer drive: the kernel and the channel alone, on a
// workload's own placement, with no MAC or transport above them. Every
// node transmits once on a quiet channel, then all nodes transmit at the
// same instant; counting handlers take the indications.

// driveAirtime is one frame's time on air: about a 1500-byte data frame
// at 2 Mbit/s.
const driveAirtime = 6 * time.Millisecond

// driveMin is the least time the drive is repeated for its timings.
const driveMin = 200 * time.Millisecond

type driveStats struct {
	eventsPerFrame float64 // exact: events the channel schedules per frame sent
	peakPending    int     // exact: the deepest the event queue gets
	nsPerFrame     float64
	nsPerEvent     float64
}

// countingHandler stands in for every node's MAC, counting the frames
// delivered and the transmissions completed.
type countingHandler struct{ rx, txDone int }

func (h *countingHandler) RxFrame(any, pkt.NodeID) { h.rx++ }
func (h *countingHandler) RxCorrupted()            {}
func (h *countingHandler) ChannelBusy()            {}
func (h *countingHandler) ChannelIdle()            {}
func (h *countingHandler) TxDone()                 { h.txDone++ }

func drive(nodes []manetsim.Position) (driveStats, error) {
	pts := make([]geo.Point, len(nodes))
	for i, p := range nodes {
		pts[i] = geo.Point{X: p.X, Y: p.Y}
	}
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, pts)
	h := &countingHandler{}
	for i := range pts {
		ch.Radio(pkt.NodeID(i)).SetHandler(h)
	}
	frame := new(int)
	peak := 0
	note := func() {
		if p := sched.Pending(); p > peak {
			peak = p
		}
	}
	drain := func() {
		for sched.Step() {
			note()
		}
	}
	once := func() {
		for i := range pts {
			ch.Radio(pkt.NodeID(i)).Transmit(frame, driveAirtime)
			note()
			drain()
		}
		for i := range pts {
			ch.Radio(pkt.NodeID(i)).Transmit(frame, driveAirtime)
		}
		note()
		drain()
	}
	frames := 2 * len(pts)
	// The first pass builds the neighbour tables; its counts are exact.
	once()
	// On a connected placement every lone transmission reaches someone.
	if h.txDone != frames || h.rx < len(pts) {
		return driveStats{}, fmt.Errorf("layer drive: %d of %d transmissions completed, %d frames delivered", h.txDone, frames, h.rx)
	}
	st := driveStats{eventsPerFrame: float64(sched.Dispatched()) / float64(frames), peakPending: peak}
	d0, n := sched.Dispatched(), 0
	start := time.Now()
	for n < 3 || time.Since(start) < driveMin {
		once()
		n++
	}
	el := float64(time.Since(start).Nanoseconds())
	st.nsPerFrame = el / float64(n*frames)
	st.nsPerEvent = el / float64(sched.Dispatched()-d0)
	return st, nil
}
