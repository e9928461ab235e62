package netcomm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestMailboxFailWakesAllReceivers pins the poison path: a transport
// failure unblocks every parked receiver with a *TransportError instead
// of leaving them parked forever.
func TestMailboxFailWakesAllReceivers(t *testing.T) {
	mb := newMailbox()
	const n = 8
	panics := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				r := recover()
				te, ok := r.(*TransportError)
				if !ok {
					panics <- fmt.Errorf("receiver %d: recovered %v, want *TransportError", i, r)
					return
				}
				if te.Peer != 2 {
					panics <- fmt.Errorf("receiver %d: peer %d, want 2", i, te.Peer)
					return
				}
				panics <- nil
			}()
			mb.Take(1, 7000+i)
			panics <- errors.New("take returned without a message")
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	mb.fail(2, KindReset, errors.New("connection reset by peer"))
	for i := 0; i < n; i++ {
		select {
		case err := <-panics:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("receiver still parked after fail")
		}
	}
	// The error is sticky: a fresh take fails immediately.
	func() {
		defer func() {
			if _, ok := recover().(*TransportError); !ok {
				t.Fatalf("take after fail did not panic with *TransportError")
			}
		}()
		mb.Take(0, 1)
	}()
}

// TestMailboxHangupFailsWaiters pins graceful-EOF handling: buffered
// messages from a hung-up peer stay takeable, waiting for a new one
// panics.
func TestMailboxHangupFailsWaiters(t *testing.T) {
	mb := newMailbox()
	mb.put(3, 9, "buffered", 1)
	mb.hangup(3)
	if got := mb.Take(3, 9).Payload; got != "buffered" {
		t.Fatalf("buffered message lost: %v", got)
	}
	defer func() {
		te, ok := recover().(*TransportError)
		if !ok || te.Peer != 3 {
			t.Fatalf("take after hangup: recovered %v", te)
		}
	}()
	mb.Take(3, 9)
}

// TestMailboxStallIsPerPeerAndRecoverable pins the liveness layering: a
// stall fails receives from the stalled peer only, typed KindStalled,
// and unstall lets them block normally again.
func TestMailboxStallIsPerPeerAndRecoverable(t *testing.T) {
	mb := newMailbox()
	mb.stall(1, errors.New("no pong"))
	te := recoverTransportError(func() { mb.Take(1, 5) })
	if te == nil || te.Kind != KindStalled || te.Peer != 1 {
		t.Fatalf("take from the stalled peer: %+v, want stalled/1", te)
	}
	mb.put(2, 5, "healthy", 1)
	if got := mb.Take(2, 5).Payload; got != "healthy" {
		t.Fatalf("take from a healthy peer got %v", got)
	}
	if _, stalled := mb.health(); !stalled[1] || len(stalled) != 1 {
		t.Fatalf("health reports stalled = %v, want rank 1 only", stalled)
	}
	mb.unstall(1)
	got := make(chan any, 1)
	go func() { got <- mb.Take(1, 5).Payload }()
	mb.put(1, 5, "resumed", 1)
	if v := <-got; v != "resumed" {
		t.Fatalf("take after unstall got %v", v)
	}
}

// TestMailboxRetire pins tag-namespace retirement: queued messages of
// the namespace are dropped, late ones never land, parked and future
// receives in it fail typed KindRetired, and namespace 0 is immune.
func TestMailboxRetire(t *testing.T) {
	const ns = 3 << 24
	mb := newMailbox()
	mb.put(1, ns|7, "queued", 1)
	mb.put(1, 7, "control", 1)
	parked := make(chan *TransportError, 1)
	go func() { parked <- recoverTransportError(func() { mb.Take(2, ns|8) }) }()
	time.Sleep(10 * time.Millisecond)
	mb.retire(0, ns+1<<24) // covers namespaces 0..3; 0 must survive
	if te := <-parked; te == nil || te.Kind != KindRetired {
		t.Fatalf("receiver parked in the retired namespace: %+v", te)
	}
	mb.put(1, ns|7, "late", 1)
	if n := mb.Pending(); n != 1 {
		t.Fatalf("pending = %d after retire, want only the namespace-0 message", n)
	}
	if te := recoverTransportError(func() { mb.Take(1, ns|7) }); te == nil || te.Kind != KindRetired {
		t.Fatalf("take in the retired namespace: %+v", te)
	}
	if got := mb.Take(1, 7).Payload; got != "control" {
		t.Fatalf("namespace 0 message lost: %v", got)
	}
}
