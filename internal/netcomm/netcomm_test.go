package netcomm

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/native"
	"pmsort/internal/workload"
)

// reserveAddrs picks p free loopback addresses by binding ephemeral
// listeners and releasing them; bindRetry absorbs the small race.
func reserveAddrs(t testing.TB, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// cluster brings up a p-rank loopback cluster inside this process (one
// Machine per rank, real TCP in between) and runs fn on each rank.
func cluster(t *testing.T, p int, fn func(m *Machine, rank int)) {
	t.Helper()
	addrs := reserveAddrs(t, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := New(rank, addrs, Options{RendezvousTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			fn(m, rank)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestTCPPointToPoint(t *testing.T) {
	const p = 4
	cluster(t, p, func(m *Machine, rank int) {
		_, err := m.Run(func(c comm.Communicator) {
			if c.Size() != p || c.Rank() != rank {
				t.Errorf("rank %d: world is Size=%d Rank=%d", rank, c.Size(), c.Rank())
			}
			// Everyone sends a vector and a scalar to everyone,
			// including themselves; FIFO per (sender, tag) must hold.
			for to := 0; to < p; to++ {
				c.Send(to, 1, []uint64{uint64(rank), uint64(to)}, 2)
				c.Send(to, 1, []int64{int64(rank * to)}, 1)
				c.Send(to, 2, nil, 1)
			}
			for from := 0; from < p; from++ {
				pl, w := c.Recv(from, 1)
				if got := pl.([]uint64); got[0] != uint64(from) || got[1] != uint64(rank) || w != 2 {
					t.Errorf("rank %d: first msg from %d = %v (w=%d)", rank, from, got, w)
				}
				pl, _ = c.Recv(from, 1)
				if got := pl.([]int64); got[0] != int64(from*rank) {
					t.Errorf("rank %d: second msg from %d = %v", rank, from, got)
				}
				if pl, _ = c.Recv(from, 2); pl != nil {
					t.Errorf("rank %d: nil payload arrived as %v", rank, pl)
				}
			}
		})
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
		if n := m.mbox.Pending(); n != 0 {
			t.Errorf("rank %d: %d messages left in the mailbox", rank, n)
		}
	})
}

func TestTCPCollectives(t *testing.T) {
	const p = 5 // odd: exercises the non-power-of-two paths
	cluster(t, p, func(m *Machine, rank int) {
		_, err := m.Run(func(c comm.Communicator) {
			sum := coll.Allreduce(c, int64(rank+1), 1, func(a, b int64) int64 { return a + b })
			if want := int64(p * (p + 1) / 2); sum != want {
				t.Errorf("rank %d: allreduce = %d, want %d", rank, sum, want)
			}
			all := coll.Allgatherv(c, []uint64{uint64(rank)})
			for i, s := range all {
				if len(s) != 1 || s[0] != uint64(i) {
					t.Errorf("rank %d: allgatherv[%d] = %v", rank, i, s)
				}
			}
			got := coll.AlltoallI64(c, func() []int64 {
				v := make([]int64, p)
				for i := range v {
					v[i] = int64(rank*100 + i)
				}
				return v
			}())
			for i, x := range got {
				if x != int64(i*100+rank) {
					t.Errorf("rank %d: alltoall[%d] = %d", rank, i, x)
				}
			}
		})
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	})
}

// TestTCPSortMatchesNative is the in-process conformance core: the same
// seeded input sorted on a real TCP loopback cluster and on the native
// backend must be byte-identical. (The multi-process version lives in
// the root package's TCP conformance test.)
func TestTCPSortMatchesNative(t *testing.T) {
	const p, perPE = 4, 400
	cfg := core.Config{Levels: 2, Seed: 11, TieBreak: true}
	less := func(a, b uint64) bool { return a < b }

	locals := make([][]uint64, p)
	for rank := range locals {
		locals[rank] = workload.Local(workload.DupHeavy, 7, p, perPE, rank)
	}

	natOuts := make([][]uint64, p)
	native.New(p).Run(func(c comm.Communicator) {
		out, _ := core.AMSSort(c, append([]uint64(nil), locals[c.Rank()]...), less, cfg)
		natOuts[c.Rank()] = out
	})

	tcpOuts := make([][]uint64, p)
	cluster(t, p, func(m *Machine, rank int) {
		_, err := m.Run(func(c comm.Communicator) {
			out, st := core.AMSSort(c, append([]uint64(nil), locals[rank]...), less, cfg)
			tcpOuts[rank] = out
			if st.TotalNS < 0 {
				t.Errorf("rank %d: negative wall-clock total %d", rank, st.TotalNS)
			}
		})
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	})

	for rank := 0; rank < p; rank++ {
		if !reflect.DeepEqual(tcpOuts[rank], natOuts[rank]) {
			t.Fatalf("rank %d: TCP output differs from native (%d vs %d elements)",
				rank, len(tcpOuts[rank]), len(natOuts[rank]))
		}
	}
}

func TestTCPSingleRank(t *testing.T) {
	m, err := New(0, []string{"127.0.0.1:0"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Run(func(c comm.Communicator) {
		c.Send(0, 1, []uint64{42}, 1)
		pl, _ := c.Recv(0, 1)
		if got := pl.([]uint64); got[0] != 42 {
			t.Errorf("self-send: %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPRunRecoversFailure(t *testing.T) {
	const p = 2
	cluster(t, p, func(m *Machine, rank int) {
		_, err := m.Run(func(c comm.Communicator) {
			if rank == 0 {
				// Waiting for a message rank 1 never sends must end in
				// a diagnosable error once rank 1 hangs up, not a hang.
				c.Recv(1, 99)
			}
		})
		if rank == 0 && err == nil {
			t.Error("rank 0: expected an error when the peer hangs up mid-recv")
		}
		if rank == 1 && err != nil {
			t.Errorf("rank 1: %v", err)
		}
	})
}

func TestTCPRendezvousValidation(t *testing.T) {
	if _, err := New(3, []string{"a", "b"}, Options{}); err == nil {
		t.Error("out-of-range rank must fail")
	}
	if _, err := New(0, nil, Options{}); err == nil {
		t.Error("empty address list must fail")
	}
}

func TestTCPHandshakeRejectsStrangers(t *testing.T) {
	// A stranger connecting to a rank's listener during rendezvous (port
	// scanner, health check) must be rejected WITHOUT aborting the mesh:
	// the garbage connection is dropped, the real peer still joins, and
	// the cluster works.
	addrs := reserveAddrs(t, 2)
	rank0 := make(chan error, 1)
	go func() {
		m, err := New(0, addrs, Options{RendezvousTimeout: 20 * time.Second})
		if err != nil {
			rank0 <- err
			return
		}
		defer m.Close()
		_, err = m.Run(func(c comm.Communicator) {
			pl, _ := c.Recv(1, 7)
			if pl.(uint64) != 42 {
				err = fmt.Errorf("got %v", pl)
			}
		})
		rank0 <- err
	}()

	// The stranger speaks HTTP at rank 0 before rank 1 dials.
	var conn net.Conn
	var err error
	for i := 0; i < 200; i++ {
		conn, err = net.Dial("tcp", addrs[0])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\n\r\n")
	conn.Close()

	m1, err := New(1, addrs, Options{RendezvousTimeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("rank 1 rendezvous failed despite the stranger being dropped: %v", err)
	}
	defer m1.Close()
	if _, err := m1.Run(func(c comm.Communicator) {
		c.Send(0, 7, uint64(42), 1)
	}); err != nil {
		t.Fatalf("rank 1: %v", err)
	}
	if err := <-rank0; err != nil {
		t.Fatalf("rank 0: %v", err)
	}
}

// pairElem is a custom element type whose wire format comes from a
// Config.Encoder hook rather than the structural codec.
type pairElem struct {
	k   uint64
	tie int32
}

type pairEncoder struct{}

func (pairEncoder) Append(dst []byte, elem any) []byte {
	p := elem.(pairElem)
	dst = append(dst, byte(p.k>>56), byte(p.k>>48), byte(p.k>>40), byte(p.k>>32),
		byte(p.k>>24), byte(p.k>>16), byte(p.k>>8), byte(p.k))
	return append(dst, byte(p.tie>>24), byte(p.tie>>16), byte(p.tie>>8), byte(p.tie))
}

func (pairEncoder) Decode(src []byte) (any, []byte, error) {
	if len(src) < 12 {
		return nil, nil, fmt.Errorf("pairEncoder: short input")
	}
	var p pairElem
	for i := 0; i < 8; i++ {
		p.k = p.k<<8 | uint64(src[i])
	}
	for i := 8; i < 12; i++ {
		p.tie = p.tie<<8 | int32(src[i])
	}
	return p, src[12:], nil
}

// TestTCPCustomElementEncoder sorts a custom element type end-to-end
// over real TCP with the Config.Encoder hook supplying the element
// codec, and checks the result against the native backend.
func TestTCPCustomElementEncoder(t *testing.T) {
	const p, perPE = 3, 150
	cfg := core.Config{Levels: 1, Seed: 3, Encoder: pairEncoder{}}
	less := func(a, b pairElem) bool {
		if a.k != b.k {
			return a.k < b.k
		}
		return a.tie < b.tie
	}
	locals := make([][]pairElem, p)
	for rank := range locals {
		keys := workload.Local(workload.DupHeavy, 5, p, perPE, rank)
		locals[rank] = make([]pairElem, perPE)
		for i, k := range keys {
			locals[rank][i] = pairElem{k: k, tie: int32(rank*perPE + i)}
		}
	}

	natOuts := make([][]pairElem, p)
	native.New(p).Run(func(c comm.Communicator) {
		out, _ := core.AMSSort(c, append([]pairElem(nil), locals[c.Rank()]...), less, cfg)
		natOuts[c.Rank()] = out
	})

	tcpOuts := make([][]pairElem, p)
	cluster(t, p, func(m *Machine, rank int) {
		_, err := m.Run(func(c comm.Communicator) {
			out, _ := core.AMSSort(c, append([]pairElem(nil), locals[rank]...), less, cfg)
			tcpOuts[rank] = out
		})
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	})

	for rank := 0; rank < p; rank++ {
		if !reflect.DeepEqual(tcpOuts[rank], natOuts[rank]) {
			t.Fatalf("rank %d: custom-element TCP output differs from native (%d vs %d elements)",
				rank, len(tcpOuts[rank]), len(natOuts[rank]))
		}
	}
}
