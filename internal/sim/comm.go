package sim

import (
	"pmsort/internal/comm"
	"pmsort/internal/obs"
)

// World returns the communicator containing all PEs of pe's machine.
// The PE is the group's endpoint (comm.Endpoint): messages cost virtual
// α + ℓ·β time by link class, and the cost hook charges local work
// against the virtual clock.
func World(pe *PE) comm.Communicator {
	return comm.NewGroup(pe, pe.m.world, pe.rank)
}

// Cost returns the hook charging cost annotations against this PE's
// virtual clock under the machine's cost model, for the group with the
// given members.
func (pe *PE) Cost(members []int) comm.Cost { return costHook{pe, members} }

// Recorder returns this PE's obs recorder (nil unless the machine's
// EnableObs was called) — the obs.Source hook; every communicator of
// the PE shares it and so stays traced.
func (pe *PE) Recorder() *obs.Recorder { return pe.m.ObsRecorder(pe.rank) }

// costHook implements comm.Cost by charging the virtual clock.
type costHook struct {
	pe      *PE
	members []int
}

func (h costHook) Ops(n int64)          { h.pe.ChargeOps(n) }
func (h costHook) PartitionOps(n int64) { h.pe.ChargePartitionOps(n) }
func (h costHook) Scan(n int64)         { h.pe.ChargeScan(n) }
func (h costHook) SortOps(n int64)      { h.pe.ChargeSortOps(n) }
func (h costHook) Now() int64           { return h.pe.Now() }

// BarrierSync replaces a timed barrier's internal message costs with the
// modeled exit time entry + 2·⌈log₂ p⌉·α over the group's widest link,
// setting all members' clocks to the identical value (§7.1: phases are
// delimited by MPI_Barrier calls in the paper's measurements). For the
// contiguous rank ranges used throughout the library the widest link is
// the one between the first and the last member.
func (h costHook) BarrierSync(entry int64) int64 {
	m, n := h.pe.m, len(h.members)
	span := m.topo.Link(h.members[0], h.members[n-1])
	exit := entry + 2*log2Ceil(int64(n))*m.cost.Alpha[span]
	h.pe.SyncTo(exit)
	return exit
}
