package sim

import (
	"fmt"

	"pmsort/internal/comm"
)

// PE is one processing element of the simulated machine, and the
// comm.Endpoint of every communicator split from its World. A PE is
// bound to the goroutine executing it; its methods must not be called
// from other goroutines.
type PE struct {
	rank int
	m    *Machine
	now  int64 // virtual clock, ns

	// Traffic counters, maintained since the last ResetCounters call.
	// They count application messages (collectives built on Send/Recv
	// contribute their constituent point-to-point messages).
	MsgsSent  int64
	MsgsRecv  int64
	WordsSent int64
	WordsRecv int64
}

// Rank returns this PE's global rank in 0..P()-1.
func (pe *PE) Rank() int { return pe.rank }

// P returns the total number of PEs of the machine.
func (pe *PE) P() int { return pe.m.p }

// Machine returns the machine this PE belongs to.
func (pe *PE) Machine() *Machine { return pe.m }

// Now returns the PE's virtual clock in nanoseconds.
func (pe *PE) Now() int64 { return pe.now }

// AdvanceTo moves the virtual clock forward to t; it never moves it back.
func (pe *PE) AdvanceTo(t int64) {
	if t > pe.now {
		pe.now = t
	}
}

// SyncTo sets the virtual clock to exactly t, possibly moving it
// backwards. It exists solely for collective barriers that replace their
// internal message costs with a modeled, globally identical exit time;
// algorithms must not use it directly.
func (pe *PE) SyncTo(t int64) { pe.now = t }

// Charge advances the virtual clock by ns nanoseconds of local work.
func (pe *PE) Charge(ns int64) {
	if ns > 0 {
		pe.now += ns
	}
}

// ChargeOps charges n compare-and-move operations (sorting, merging).
func (pe *PE) ChargeOps(n int64) {
	pe.Charge(int64(pe.m.cost.OpNS * float64(n)))
}

// ChargePartitionOps charges n branchless partition steps
// (element × splitter-tree level).
func (pe *PE) ChargePartitionOps(n int64) {
	pe.Charge(int64(pe.m.cost.PartitionOpNS * float64(n)))
}

// ChargeScan charges n sequential scan/copy steps.
func (pe *PE) ChargeScan(n int64) {
	pe.Charge(int64(pe.m.cost.ScanOpNS * float64(n)))
}

// ChargeSortOps charges the cost of comparison-sorting n elements
// (n · ⌈log₂ n⌉ compare-and-move operations).
func (pe *PE) ChargeSortOps(n int64) {
	pe.ChargeOps(n * log2Ceil(n))
}

// log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (and 0 for n ≤ 1).
func log2Ceil(n int64) int64 {
	var l int64
	for v := int64(1); v < n; v <<= 1 {
		l++
	}
	return l
}

// Send transmits a message of the given payload and size (in words) to
// the PE with the given global rank. The sender is charged the
// single-ported cost α + ℓ·β for the link between the two PEs; the
// receiver is charged the same cost upon the matching Recv and cannot
// complete the receive before the send began.
func (pe *PE) Send(to, tag int, payload any, words int64) {
	if to < 0 || to >= pe.m.p {
		panic(fmt.Sprintf("sim: send from PE %d to invalid rank %d (p=%d)", pe.rank, to, pe.m.p))
	}
	lc := pe.m.topo.Link(pe.rank, to)
	start := pe.now
	pe.now += pe.m.cost.MsgNS(lc, words)
	pe.MsgsSent++
	pe.WordsSent += words
	pe.m.mbox[to].Put(pe.rank, tag, comm.Message{Payload: payload, Words: words, SentAt: start})
}

// Recv blocks until the message with the given tag from the given global
// rank arrives and returns its payload and size in words. The receiver's
// clock is advanced to at least the send start time plus the α + ℓ·β cost.
func (pe *PE) Recv(from, tag int) (any, int64) {
	if from < 0 || from >= pe.m.p {
		panic(fmt.Sprintf("sim: recv on PE %d from invalid rank %d (p=%d)", pe.rank, from, pe.m.p))
	}
	m := pe.m.mbox[pe.rank].Take(from, tag)
	lc := pe.m.topo.Link(from, pe.rank)
	// The receive cannot complete before the send began.
	start := max(pe.now, m.SentAt)
	pe.now = start + pe.m.cost.MsgNS(lc, m.Words)
	pe.MsgsRecv++
	pe.WordsRecv += m.Words
	return m.Payload, m.Words
}

// SendRecv sends to `to` and then receives from `from` with the same tag.
// It returns the received payload and its size. (With eager buffered
// sends there is no deadlock in the simulator, so a plain send-then-recv
// sequence is safe; this helper exists for symmetry with MPI_Sendrecv.)
func (pe *PE) SendRecv(to int, outPayload any, outWords int64, from, tag int) (any, int64) {
	pe.Send(to, tag, outPayload, outWords)
	return pe.Recv(from, tag)
}

// ResetCounters zeroes the traffic counters.
func (pe *PE) ResetCounters() {
	pe.MsgsSent, pe.MsgsRecv, pe.WordsSent, pe.WordsRecv = 0, 0, 0, 0
}
