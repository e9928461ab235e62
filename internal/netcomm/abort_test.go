package netcomm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// recoverTransportError runs fn and returns the *TransportError it
// panicked with (nil if it returned normally); any other panic value is
// re-raised.
func recoverTransportError(fn func()) (te *TransportError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if te, ok = r.(*TransportError); !ok {
			panic(r)
		}
	}()
	fn()
	return nil
}

// TestTransportErrorUnwrapChain pins the error taxonomy the service
// layer dispatches on: errors.As finds the *TransportError (with Kind
// and Peer intact) through arbitrary wrapping, and errors.Is still
// reaches the root cause below it.
func TestTransportErrorUnwrapChain(t *testing.T) {
	root := errors.New("connection reset by peer")
	te := &TransportError{
		Err:  fmt.Errorf("reading from rank 2: %w", root),
		Peer: 2,
		Kind: KindReset,
	}
	wrapped := fmt.Errorf("netcomm: rank 0: job 17: %w", te)

	var got *TransportError
	if !errors.As(wrapped, &got) {
		t.Fatal("errors.As failed to find *TransportError through wrapping")
	}
	if got.Kind != KindReset || got.Peer != 2 {
		t.Fatalf("unwrapped kind=%v peer=%d, want reset/2", got.Kind, got.Peer)
	}
	if !errors.Is(wrapped, root) {
		t.Fatal("errors.Is failed to reach the root cause below TransportError")
	}

	// The mailbox's take-path rewrap must preserve Kind, Peer, and the
	// unwrap chain, not just the message.
	mb := newMailbox()
	mb.fail(2, KindReset, root)
	rte := recoverTransportError(func() { mb.Take(0, 1) })
	if rte == nil {
		t.Fatal("take after fail returned normally")
	}
	if rte.Kind != KindReset || rte.Peer != 2 {
		t.Fatalf("take rewrap kind=%v peer=%d, want reset/2", rte.Kind, rte.Peer)
	}
	if !errors.Is(rte, root) {
		t.Fatal("take rewrap lost the unwrap chain to the root cause")
	}
}

// TestRecvAfterAbort pins both sides of an abort: the aborting rank's
// own receives fail with KindAborted at its own rank, and the surviving
// peer observes a hard transport failure (reset or hangup, attributed
// to the aborted rank) — never a silent hang.
func TestRecvAfterAbort(t *testing.T) {
	aborted := make(chan struct{})
	err := LocalClusterOpts(2, 30*time.Second, nil,
		func(m *Machine, rank int) error {
			c := m.World()
			if rank == 0 {
				m.Abort()
				close(aborted)
				te := recoverTransportError(func() { c.Recv(1, 0x70) })
				if te == nil {
					return errors.New("recv after own abort returned normally")
				}
				if te.Kind != KindAborted || te.Peer != 0 {
					return fmt.Errorf("own recv after abort: kind=%v peer=%d, want aborted/0", te.Kind, te.Peer)
				}
				return nil
			}
			<-aborted
			te := recoverTransportError(func() { c.Recv(0, 0x70) })
			if te == nil {
				return errors.New("recv from an aborted peer returned normally")
			}
			if te.Kind != KindReset && te.Kind != KindHangup {
				return fmt.Errorf("surviving rank saw kind=%v, want reset or hangup", te.Kind)
			}
			if te.Peer != 0 {
				return fmt.Errorf("surviving rank attributed the failure to rank %d, want 0", te.Peer)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortDuringVectoredWrite pins abort under load: rank 1 aborts
// while rank 0 has megabytes of vectored frames in flight toward it.
// Rank 0's writer must fail typed (not wedge), and rank 0's blocked
// receive must surface that failure attributed to rank 1.
func TestAbortDuringVectoredWrite(t *testing.T) {
	aborted := make(chan struct{})
	err := LocalClusterOpts(2, 30*time.Second, nil,
		func(m *Machine, rank int) error {
			c := m.World()
			if rank == 1 {
				// Take one frame so rank 0's writer is demonstrably
				// mid-stream, then die abruptly.
				c.Recv(0, 0x80)
				m.Abort()
				close(aborted)
				return nil
			}
			payload := make([]uint64, 1<<17) // 1 MiB frames: vectored write path
			for i := 0; i < 64; i++ {
				c.Send(1, 0x80, payload, int64(len(payload)))
			}
			<-aborted
			te := recoverTransportError(func() { c.Recv(1, 0x81) })
			if te == nil {
				return errors.New("mesh never failed despite the peer aborting mid-stream")
			}
			if te.Kind != KindReset && te.Kind != KindHangup {
				return fmt.Errorf("abort mid-write surfaced as kind=%v, want reset or hangup", te.Kind)
			}
			if te.Peer != 1 {
				return fmt.Errorf("failure attributed to rank %d, want 1", te.Peer)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDoubleAbortIdempotent pins that Abort is safe to call twice (and
// before Close): the second call and the Close are no-ops, the typed
// poison from the first abort wins, and nothing panics or deadlocks.
func TestDoubleAbortIdempotent(t *testing.T) {
	aborted := make(chan struct{})
	err := LocalClusterOpts(2, 30*time.Second, nil,
		func(m *Machine, rank int) error {
			c := m.World()
			if rank == 0 {
				m.Abort()
				m.Abort() // idempotent
				close(aborted)
				if cerr := m.Close(); cerr == nil {
					return errors.New("Close after Abort reported success for an aborted endpoint")
				}
				te := recoverTransportError(func() { c.Recv(1, 0x90) })
				if te == nil || te.Kind != KindAborted {
					return fmt.Errorf("recv after double abort: %v, want KindAborted", te)
				}
				return nil
			}
			<-aborted
			te := recoverTransportError(func() { c.Recv(0, 0x90) })
			if te == nil {
				return errors.New("recv from a double-aborted peer returned normally")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
