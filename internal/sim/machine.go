package sim

import (
	"fmt"

	"pmsort/internal/comm"
	"pmsort/internal/obs"
)

// Machine is a simulated distributed-memory machine of p PEs.
type Machine struct {
	p    int
	topo Topology
	cost CostModel
	pes  []*PE
	// mbox[i] is PE i's mailbox: messages are matched by (source, tag)
	// and are FIFO per pair, which keeps virtual time deterministic.
	mbox  []*comm.Mailbox
	world []int // 0..p-1, the member list every World shares

	// rec holds the per-PE obs recorders when EnableObs was called
	// (nil otherwise — the disabled fast path).
	rec []*obs.Recorder
}

// New creates a machine with p PEs, the given topology and cost model.
func New(p int, topo Topology, cost CostModel) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("sim: invalid machine size p=%d", p))
	}
	m := &Machine{p: p, topo: topo, cost: cost, world: comm.WorldRanks(p)}
	m.pes = make([]*PE, p)
	m.mbox = make([]*comm.Mailbox, p)
	for i := range m.pes {
		m.mbox[i] = comm.NewMailbox(nil)
		m.pes[i] = &PE{rank: i, m: m}
	}
	return m
}

// NewDefault creates a machine with p PEs using DefaultTopology and
// DefaultCost.
func NewDefault(p int) *Machine {
	return New(p, DefaultTopology(), DefaultCost())
}

// P returns the number of PEs.
func (m *Machine) P() int { return m.p }

// Topology returns the machine's topology.
func (m *Machine) Topology() Topology { return m.topo }

// PE returns the PE with the given rank. Exposed for counter inspection
// between runs; PE methods remain bound to the goroutine running it.
func (m *Machine) PE(rank int) *PE { return m.pes[rank] }

// EnableObs attaches one obs recorder per PE, timestamped by the PE's
// virtual clock — spans recorded by the backend-neutral instrumentation
// land in virtual time, consistent with the Stats phase timings.
func (m *Machine) EnableObs() {
	if m.rec != nil {
		return
	}
	m.rec = make([]*obs.Recorder, m.p)
	for i, pe := range m.pes {
		pe := pe
		m.rec[i] = obs.NewRecorder(i, m.p, pe.Now)
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

// RunResult summarizes a bulk-synchronous program execution.
type RunResult struct {
	// Times[i] is PE i's virtual clock at the end of the program, in ns.
	Times []int64
	// MaxTime is the maximum over Times — the program's makespan.
	MaxTime int64
}

// Run executes fn once per PE (each on its own goroutine), waits for all
// of them, and returns the final virtual clocks. Clocks are *not* reset
// between runs; use Reset for that. If a PE panics, its peers blocked in
// Recv unwind and Run re-panics on the calling goroutine with the first
// panic and its PE (comm.RunPEs).
func (m *Machine) Run(fn func(pe *PE)) RunResult {
	comm.RunPEs(m.mbox, func(rank int) { fn(m.pes[rank]) })
	res := RunResult{Times: make([]int64, m.p)}
	for i, pe := range m.pes {
		res.Times[i] = pe.now
		if pe.now > res.MaxTime {
			res.MaxTime = pe.now
		}
	}
	return res
}

// Reset zeroes all virtual clocks and traffic counters. It panics if any
// mailbox still holds undelivered messages (a protocol bug in the
// previous program).
func (m *Machine) Reset() {
	for i, pe := range m.pes {
		if n := m.mbox[i].Pending(); n != 0 {
			panic(fmt.Sprintf("sim: PE %d has %d undelivered messages at Reset", pe.rank, n))
		}
		pe.now = 0
		pe.ResetCounters()
	}
	for _, r := range m.rec {
		r.Reset()
	}
}
