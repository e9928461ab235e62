package netcomm

import (
	"errors"
	"testing"
	"time"
)

// hangGate is a minimal in-test read gate (the netfault package has the
// full-featured injector; netcomm's own tests stay dependency-light to
// avoid an import cycle): Read blocks while the gate is down.
type hangGate struct {
	gate chan struct{} // closed = open
}

type gatedConn struct {
	Conn
	g *hangGate
}

func newHangGate() *hangGate {
	open := make(chan struct{})
	close(open)
	return &hangGate{gate: open}
}

var gateMu = make(chan struct{}, 1)

func (g *hangGate) Hang() {
	gateMu <- struct{}{}
	g.gate = make(chan struct{})
	<-gateMu
}

func (g *hangGate) Release() {
	gateMu <- struct{}{}
	close(g.gate)
	<-gateMu
}

func (g *hangGate) wait() {
	gateMu <- struct{}{}
	ch := g.gate
	<-gateMu
	<-ch
}

func (c gatedConn) Read(p []byte) (int, error) {
	c.g.wait()
	return c.Conn.Read(p)
}

// TestHeartbeatRTT pins the heartbeat plumbing: with heartbeats on,
// pongs flow and Health reports a live round-trip and a fresh pong age
// for every peer.
func TestHeartbeatRTT(t *testing.T) {
	err := LocalClusterOpts(2, 30*time.Second,
		func(rank int) Options {
			return Options{HeartbeatInterval: 10 * time.Millisecond}
		},
		func(m *Machine, rank int) error {
			deadline := time.Now().Add(5 * time.Second)
			for {
				h := m.Health()
				if len(h.Peers) != 1 {
					return errors.New("expected exactly one peer in Health")
				}
				ph := h.Peers[0]
				if ph.RTTNS > 0 && ph.SincePongNS >= 0 && ph.SincePongNS < int64(time.Second) {
					if !h.Healthy() {
						return errors.New("mesh with live pongs reported unhealthy")
					}
					return nil
				}
				if time.Now().After(deadline) {
					return errors.New("no heartbeat round-trip recorded within 5s")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStallDetectionAndRecovery is the transport half of the issue's
// acceptance scenario: a peer that stops reading (connection open) is
// declared stalled within the window and receives from it fail with
// *TransportError{Kind: KindStalled}; when it resumes reading, the
// mesh heals and traffic flows again.
func TestStallDetectionAndRecovery(t *testing.T) {
	gate := newHangGate()
	hung := make(chan struct{})
	released := make(chan struct{})
	healed := make(chan struct{})
	const (
		interval = 10 * time.Millisecond
		window   = 150 * time.Millisecond
	)
	err := LocalClusterOpts(2, 30*time.Second,
		func(rank int) Options {
			opt := Options{HeartbeatInterval: interval, StallWindow: window}
			if rank == 1 {
				opt.WrapConn = func(peer int, c Conn) Conn { return gatedConn{Conn: c, g: gate} }
			}
			return opt
		},
		func(m *Machine, rank int) error {
			c := m.World()
			if rank == 1 {
				// The faulty rank: stop reading, wait for rank 0 to see
				// the stall, then resume and send the recovery probe.
				gate.Hang()
				close(hung)
				<-released
				gate.Release()
				c.Send(0, 0x51, uint64(0xbeef), 1)
				// Recover from our own symmetric stall before exiting.
				deadline := time.Now().Add(30 * time.Second)
				for !m.Health().Healthy() {
					if time.Now().After(deadline) {
						return errors.New("rank 1 never healed after release")
					}
					time.Sleep(10 * time.Millisecond)
				}
				// Do not tear down until rank 0 has observed the heal:
				// exiting closes this machine, and a vanished peer makes
				// rank 0 unhealthy again — correctly, but that would race
				// away the healthy window rank 0 is polling for.
				<-healed
				return nil
			}

			<-hung
			// In-flight receive fails typed within the window (plus
			// scheduling slack), not forever.
			start := time.Now()
			var te *TransportError
			func() {
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
				c.Recv(1, 0x50)
			}()
			if te == nil {
				return errors.New("recv from a stalled peer returned instead of failing")
			}
			if te.Kind != KindStalled || te.Peer != 1 {
				return errors.New("stall surfaced as " + te.Kind.String() + " — want stalled at peer 1")
			}
			if waited := time.Since(start); waited > window+5*time.Second {
				return errors.New("stall detection took " + waited.String())
			}
			if h := m.Health(); h.Healthy() {
				return errors.New("Health still healthy while peer stalled")
			}
			close(released)

			// Recovery: the peer resumed reading, pongs flow again, and
			// the probe it sent is deliverable.
			deadline := time.Now().Add(30 * time.Second)
			for !m.Health().Healthy() {
				if time.Now().After(deadline) {
					return errors.New("mesh never healed after the peer resumed")
				}
				time.Sleep(10 * time.Millisecond)
			}
			pl, _ := c.Recv(1, 0x51)
			if pl.(uint64) != 0xbeef {
				return errors.New("recovery probe corrupted")
			}
			close(healed)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteDeadlineStall pins the write half of liveness: a peer that
// stops draining its socket while bulk data is in flight fails the
// writer within the stall window — kind stalled, fatally (bytes were
// torn mid-frame, the stream cannot resume).
func TestWriteDeadlineStall(t *testing.T) {
	gate := newHangGate()
	hung := make(chan struct{})
	done := make(chan struct{})
	err := LocalClusterOpts(2, 30*time.Second,
		func(rank int) Options {
			opt := Options{StallWindow: 300 * time.Millisecond}
			if rank == 1 {
				opt.WrapConn = func(peer int, c Conn) Conn { return gatedConn{Conn: c, g: gate} }
			}
			return opt
		},
		func(m *Machine, rank int) error {
			c := m.World()
			if rank == 1 {
				gate.Hang()
				close(hung)
				<-done // wait for rank 0 to finish, then let Close drain
				gate.Release()
				return nil
			}
			defer close(done)
			<-hung
			// Flood the stalled peer far past any socket buffer; the
			// writer must hit its deadline, not block forever.
			payload := make([]uint64, 1<<17) // 1 MiB frames, vectored path
			for i := 0; i < 64; i++ {
				c.Send(1, 0x60, payload, int64(len(payload)))
			}
			var te *TransportError
			func() {
				defer func() {
					if r := recover(); r != nil {
						te, _ = r.(*TransportError)
					}
				}()
				c.Recv(1, 0x61) // poisoned by the writer's failure
			}()
			if te == nil {
				return errors.New("mesh never failed despite an undrained bulk write")
			}
			if te.Kind != KindStalled {
				return errors.New("write stall surfaced as " + te.Kind.String() + " — want stalled")
			}
			// The recv may have been woken by the recoverable
			// heartbeat-detected stall first; the blocked writer's
			// deadline must still escalate to a fatal poison.
			deadline := time.Now().Add(10 * time.Second)
			for m.Health().Failed == nil {
				if time.Now().After(deadline) {
					return errors.New("write stall never poisoned the mesh fatally")
				}
				time.Sleep(10 * time.Millisecond)
			}
			var fte *TransportError
			if !errors.As(m.Health().Failed, &fte) || fte.Kind != KindStalled {
				return errors.New("fatal poison is not a stalled TransportError")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
