package netcomm

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ReserveLoopbackAddrs picks p currently free loopback addresses by
// binding ephemeral listeners and releasing them. The small window
// before a cluster rebinds them is absorbed by the transport's bind
// retry. It is the canonical port bring-up for every in-process or
// launched loopback cluster (expt.Run on "tcp", sortnode -launch, the
// degenerate-input and torture TCP test legs).
func ReserveLoopbackAddrs(p int) ([]string, error) {
	addrs := make([]string, p)
	lns := make([]net.Listener, 0, p)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// LocalCluster brings up a p-rank TCP cluster inside this process —
// one Machine per rank on freshly reserved loopback ports, real
// sockets in between — runs fn once per rank on its own goroutine, and
// tears everything down. fn may call Machine.Run several times
// (collectively). The first per-rank error wins.
func LocalCluster(p int, timeout time.Duration, fn func(m *Machine, rank int) error) error {
	return LocalClusterOpts(p, timeout, nil, fn)
}

// LocalClusterOpts is LocalCluster with per-rank transport options —
// the bring-up used by fault-injection tests and drills, where each
// rank gets its own netfault wrapper, heartbeat cadence, and stall
// window. optFor may be nil (plain options) and must not set
// RendezvousTimeout (the cluster timeout wins).
func LocalClusterOpts(p int, timeout time.Duration, optFor func(rank int) Options, fn func(m *Machine, rank int) error) error {
	addrs, err := ReserveLoopbackAddrs(p)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var opt Options
			if optFor != nil {
				opt = optFor(rank)
			}
			opt.RendezvousTimeout = timeout
			m, err := New(rank, addrs, opt)
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = fn(m, rank)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}
