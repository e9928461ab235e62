package comm

// WithTagOffset returns a view of c that relabels every message tag by a
// fixed offset: Send(to, tag, ...) becomes Send(to, tag+off, ...) on the
// underlying endpoint, and likewise for Recv. The view is the same group
// over a wrapped endpoint, so communicators split from it stay offset
// and stacked views add their offsets.
//
// The offset view is how one mesh runs many collective jobs at once: give
// each job a disjoint tag block (an "epoch" — see internal/svc) and the
// jobs' messages cannot be confused even though they cross the same
// connections, because the mailbox matches messages by (sender, tag)
// with FIFO order per pair. The algorithms' own tags all sit below
// 1<<24, so offsets that are multiples of 1<<24 yield fully disjoint
// namespaces.
//
// The view deliberately hides the endpoint's optional capabilities
// (Capability finds nothing behind it, so obs.From on a view returns
// nil): span recording is bound to the single goroutine running a rank's
// PE program, while offset views exist precisely so several goroutines
// can run collectives on one rank concurrently. Machine-level counters
// (transport frames, mailbox depth) are recorded below the communicator
// and stay live.
func WithTagOffset(c Communicator, off int) Communicator {
	if off == 0 {
		return c
	}
	return c.WithEndpoint(tagOffset{Endpoint: c.Endpoint(), off: off})
}

// tagOffset relabels tags by a constant offset; Cost passes through.
type tagOffset struct {
	Endpoint
	off int
}

func (t tagOffset) Send(to, tag int, payload any, words int64) {
	t.Endpoint.Send(to, tag+t.off, payload, words)
}

func (t tagOffset) Recv(from, tag int) (any, int64) {
	return t.Endpoint.Recv(from, tag+t.off)
}
