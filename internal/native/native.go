// Package native is the shared-memory backend of comm.Communicator:
// a machine of p PEs realized as p goroutines of the current process,
// exchanging data through the shared comm.Mailbox, with zero
// virtual-time bookkeeping. The identical generic algorithms that run
// on the simulator (internal/sim) sort real data at real multicore
// speed here — cost annotations are no-ops and the phase statistics
// read the wall clock instead of a virtual one.
//
// Messages hand over payload ownership by pointer (slices are not
// copied), which is exactly the shared-memory advantage the backend
// exists to exploit; the collectives' read-only conventions (see
// internal/coll) make that safe.
package native

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/obs"
)

// Machine is a shared-memory machine of p PEs (goroutines).
type Machine struct {
	p     int
	mbox  []*comm.Mailbox // mbox[i] is drained only by the goroutine running PE i
	world []int           // 0..p-1, the member list every world communicator shares
	epoch time.Time

	// rec holds the per-PE obs recorders when EnableObs was called
	// (nil otherwise — the disabled fast path).
	rec []*obs.Recorder
}

// pe is one processing element: the comm.Endpoint of every communicator
// split from its world.
type pe struct {
	rank int
	m    *Machine
}

// Send hands the payload to the PE with global rank `to`. The payload
// moves by reference — no copy — and ownership transfers to the
// receiver. words is carried along but costs nothing (no cost model).
func (p *pe) Send(to, tag int, payload any, words int64) {
	p.m.mbox[to].Put(p.rank, tag, comm.Message{Payload: payload, Words: words})
}

// Recv blocks until the message with the given tag from the PE with
// global rank `from` arrives.
func (p *pe) Recv(from, tag int) (any, int64) {
	m := p.m.mbox[p.rank].Take(from, tag)
	return m.Payload, m.Words
}

// Cost returns the wall-clock hook: annotations are free, Now reads
// real elapsed time since the Run started.
func (p *pe) Cost([]int) comm.Cost { return comm.WallClock{Epoch: p.m.epoch} }

// Recorder returns this PE's obs recorder (nil unless the machine's
// EnableObs was called) — the obs.Source hook; every communicator of
// the PE shares it and so stays traced.
func (p *pe) Recorder() *obs.Recorder { return p.m.ObsRecorder(p.rank) }

// New creates a machine with p PEs.
func New(p int) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("native: invalid machine size p=%d", p))
	}
	m := &Machine{p: p, mbox: make([]*comm.Mailbox, p), world: comm.WorldRanks(p)}
	for i := range m.mbox {
		m.mbox[i] = comm.NewMailbox(nil)
	}
	return m
}

// P returns the number of PEs.
func (m *Machine) P() int { return m.p }

// EnableObs attaches one obs recorder per PE, timestamped by the wall
// clock relative to the run epoch — the same clock the phase statistics
// read — and labels the PE goroutines for CPU profiles.
func (m *Machine) EnableObs() {
	if m.rec != nil {
		return
	}
	m.rec = make([]*obs.Recorder, m.p)
	for i := range m.rec {
		m.rec[i] = obs.NewRecorder(i, m.p, func() int64 { return time.Since(m.epoch).Nanoseconds() })
	}
}

// ObsRecorder returns the given PE's obs recorder (nil when EnableObs
// was not called).
func (m *Machine) ObsRecorder(rank int) *obs.Recorder {
	if m.rec == nil {
		return nil
	}
	return m.rec[rank]
}

// Run executes fn once per PE, each on its own goroutine, handing every
// PE its world communicator. It returns the wall-clock makespan of the
// whole program. If a PE panics, its peers blocked in Recv unwind and
// Run re-panics on the calling goroutine with the first panic and its
// PE (comm.RunPEs).
func (m *Machine) Run(fn func(c comm.Communicator)) time.Duration {
	m.epoch = time.Now()
	comm.RunPEs(m.mbox, func(rank int) {
		world := comm.NewGroup(&pe{rank: rank, m: m}, m.world, rank)
		if m.rec == nil {
			fn(world)
			return
		}
		// Label the PE goroutine so CPU profiles attribute samples per
		// rank; only when observability is on — labels cost an allocation
		// per goroutine.
		pprof.Do(context.Background(), pprof.Labels("pmsort_rank", strconv.Itoa(rank)), func(context.Context) {
			fn(world)
		})
	})
	return time.Since(m.epoch)
}
