package netcomm

import (
	"fmt"

	"pmsort/internal/comm"
	"pmsort/internal/obs"
)

// ErrKind classifies a TransportError so the layers above can react
// differently to recoverable and fatal failures: the service layer
// retries jobs that died on a stalled-but-alive mesh, while a reset or
// an abort degrades it for good.
type ErrKind int

const (
	// KindUnknown covers failures that are not network conditions:
	// encoding bugs, corrupt frames, protocol violations.
	KindUnknown ErrKind = iota
	// KindReset is a broken connection: an I/O error on the stream
	// (ECONNRESET, EPIPE, unexpected close mid-frame).
	KindReset
	// KindHangup is the clean failure: the peer half-closed its stream
	// (EOF) while a message from it was still awaited.
	KindHangup
	// KindStalled is the liveness failure: the connection is open but
	// the peer stopped making progress — no heartbeat pong within the
	// stall window, or a write that could not complete within it. A
	// pong-detected stall is recoverable: if the peer resumes, receives
	// work again.
	KindStalled
	// KindAborted marks this rank's own Machine.Abort tearing the
	// endpoint down.
	KindAborted
	// KindRetired means the receive hit a tag namespace that was
	// retired (the job owning it was aborted mesh-wide); the message
	// will never be delivered.
	KindRetired
)

// String names the kind for logs, metrics, and HTTP error reports.
func (k ErrKind) String() string {
	switch k {
	case KindReset:
		return "reset"
	case KindHangup:
		return "hangup"
	case KindStalled:
		return "stalled"
	case KindAborted:
		return "aborted"
	case KindRetired:
		return "retired"
	default:
		return "unknown"
	}
}

// TransportError is the failure a receive surfaces when the TCP mesh
// breaks underneath it: a peer process died (connection reset, decode
// failure), hung up with a message still awaited, stalled past the
// liveness window, or the awaited tag namespace was retired by a
// mesh-wide job abort. The mailbox panics with a *TransportError,
// Machine.Run recovers it into the returned error, and long-lived
// callers that run collectives on their own goroutines (the job runner
// of internal/svc) recover it the same way — a dead peer fails the
// in-flight job, not the process.
type TransportError struct {
	// Err is the underlying failure.
	Err error
	// Peer is the global rank the failure was observed on, or -1 when it
	// cannot be attributed to one peer.
	Peer int
	// Kind classifies the failure (reset, hangup, stalled, …).
	Kind ErrKind
}

func (e *TransportError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// nsOf returns the tag namespace index of a tag: the service layer
// gives each job the 1<<24-wide block (epoch+1)<<24, so the index is
// simply the high bits. Namespace 0 holds every un-offset tag (the
// algorithms' own tags, the control and transport tags) and is never
// retired.
func nsOf(tag int) int { return tag >> 24 }

// mailbox is the process's incoming message store, shared by all peer
// reader goroutines: the comm.Mailbox every backend matches messages in
// — (source, tag) FIFO, concurrent receivers parked per key — plus the
// failure state only a network transport has. Readers never block
// (eager, unbounded buffering).
//
// Unlike on the in-process backends, a take can also end because the
// transport failed, the awaited peer hung up or stalled, or the tag
// namespace was retired: all of these wake the affected receivers and
// make take panic with a *TransportError diagnosis instead of blocking
// forever (check is the mailbox's guard). A fatal error poisons the
// whole mailbox and is sticky; a stall poisons only receives from the
// stalled peer and is lifted again when its heartbeats resume. The
// failure state is guarded by the embedded mailbox's lock, so it changes
// atomically with the queues.
type mailbox struct {
	*comm.Mailbox
	err     *TransportError         // fatal transport error, sticky
	stalled map[int]*TransportError // peers past the liveness window, recoverable
	closed  map[int]bool            // peers that reached EOF (graceful hangup)
	retired map[int]bool            // retired tag namespaces (tag >> 24)

	// depthMax tracks the high-watermark of undelivered messages (nil
	// when observability is off — Counter methods are nil-safe).
	depthMax *obs.Counter
}

func newMailbox() *mailbox {
	mb := &mailbox{
		stalled: make(map[int]*TransportError),
		closed:  make(map[int]bool),
		retired: make(map[int]bool),
	}
	mb.Mailbox = comm.NewMailbox(mb.check)
	return mb
}

// check is the guard of a receive that found no matching message: the
// *TransportError it must panic with, or nil to keep waiting. Called
// with the lock held.
func (mb *mailbox) check(from, tag int) any {
	if mb.retired[nsOf(tag)] {
		return &TransportError{Peer: -1, Kind: KindRetired,
			Err: fmt.Errorf("recv(from=%d, tag=%#x): tag namespace retired (job aborted)", from, tag)}
	}
	if err := mb.err; err != nil {
		return &TransportError{Peer: err.Peer, Kind: err.Kind,
			Err: fmt.Errorf("recv(from=%d, tag=%#x) after transport failure: %w", from, tag, err.Err)}
	}
	if st := mb.stalled[from]; st != nil {
		return &TransportError{Peer: st.Peer, Kind: KindStalled,
			Err: fmt.Errorf("recv(from=%d, tag=%#x): %w", from, tag, st.Err)}
	}
	if mb.closed[from] {
		return &TransportError{Peer: from, Kind: KindHangup,
			Err: fmt.Errorf("recv(from=%d, tag=%#x): peer closed the connection with no matching message", from, tag)}
	}
	return nil
}

// put enqueues a message from the given source rank under the given
// tag. Messages addressed to a retired tag namespace are dropped: the
// job that owned the namespace was aborted and nothing will ever
// receive them.
func (mb *mailbox) put(from, tag int, payload any, words int64) {
	mb.Lock()
	if mb.retired[nsOf(tag)] {
		mb.Unlock()
		return
	}
	depth := mb.PutLocked(from, tag, comm.Message{Payload: payload, Words: words})
	mb.Unlock()
	mb.depthMax.Max(int64(depth))
}

// fail records a fatal transport error attributed to the given peer
// (-1: none); every blocked and future take panics with it. The first
// error wins.
func (mb *mailbox) fail(peer int, kind ErrKind, err error) {
	mb.Lock()
	if mb.err == nil {
		mb.err = &TransportError{Peer: peer, Kind: kind, Err: err}
	}
	mb.WakeAllLocked()
	mb.Unlock()
}

// stall declares the peer unresponsive: takes from it panic with a
// recoverable *TransportError{Kind: KindStalled} until unstall. Takes
// from healthy peers are unaffected.
func (mb *mailbox) stall(peer int, err error) {
	mb.Lock()
	if _, ok := mb.stalled[peer]; !ok {
		mb.stalled[peer] = &TransportError{Peer: peer, Kind: KindStalled, Err: err}
	}
	mb.WakeAllLocked()
	mb.Unlock()
}

// unstall lifts a stall declaration: the peer's heartbeats resumed, so
// receives from it block normally again.
func (mb *mailbox) unstall(peer int) {
	mb.Lock()
	delete(mb.stalled, peer)
	mb.Unlock()
}

// health returns the sticky fatal transport error (or nil) and the set
// of ranks currently declared stalled.
func (mb *mailbox) health() (fatal *TransportError, stalled map[int]bool) {
	mb.Lock()
	defer mb.Unlock()
	stalled = make(map[int]bool, len(mb.stalled))
	for r := range mb.stalled {
		stalled[r] = true
	}
	return mb.err, stalled
}

// retire marks the tag namespace of every tag in [lo, hi) as dead:
// queued messages in it are dropped, future puts into it are dropped,
// and blocked or future takes in it panic with a recoverable
// *TransportError{Kind: KindRetired}. Namespace 0 (the un-offset
// control and algorithm tags) is never retired.
func (mb *mailbox) retire(lo, hi int) {
	if hi <= lo {
		return
	}
	mb.Lock()
	for ns := max(nsOf(lo), 1); ns <= nsOf(hi-1); ns++ {
		mb.retired[ns] = true
	}
	mb.DropLocked(func(_, tag int) bool { return mb.retired[nsOf(tag)] })
	mb.WakeAllLocked()
	mb.Unlock()
}

// hangup records that the peer's stream ended. Its already-delivered
// messages stay takeable; waiting for a new one panics.
func (mb *mailbox) hangup(from int) {
	mb.Lock()
	mb.closed[from] = true
	mb.WakeAllLocked()
	mb.Unlock()
}
