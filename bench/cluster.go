package main

import (
	"fmt"
	"sync"

	"pmsort"
	"pmsort/internal/expt"
)

// cluster is a p=4 in-process machine on either real backend: p TCP
// endpoints on loopback sockets (the bench_tcp_test.go idiom), or one
// native machine. One process hosts every rank, so ranks share the Go
// scheduler and the garbage collector (README, blind spots).
type cluster struct {
	tcp    []*pmsort.TCPCluster
	native *pmsort.NativeCluster
}

// newCluster brings the machine up; for TCP that is the full rendezvous
// (bind, dial, handshake) of all ranks.
func newCluster(tcp bool, opt pmsort.TCPOptions) (*cluster, error) {
	const p = numClusterRanks
	if !tcp {
		cl := &cluster{native: pmsort.NewNative(p)}
		if opt.Obs {
			cl.native.EnableObs()
		}
		return cl, nil
	}
	addrs, err := expt.ReserveLoopbackAddrs(p)
	if err != nil {
		return nil, err
	}
	cl := &cluster{tcp: make([]*pmsort.TCPCluster, p)}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cl.tcp[rank], errs[rank] = pmsort.NewTCPOpts(rank, addrs, opt)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return cl, nil
}

// run executes fn collectively, once per rank, and returns when the
// last rank has returned.
func (cl *cluster) run(fn func(c pmsort.Communicator, rank int)) (err error) {
	if cl.native != nil {
		// The native machine re-panics a PE's panic on the caller.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("native cluster: %v", r)
			}
		}()
		cl.native.Run(func(c pmsort.Communicator) { fn(c, c.Rank()) })
		return nil
	}
	errs := make([]error, len(cl.tcp))
	var wg sync.WaitGroup
	for rank, ep := range cl.tcp {
		wg.Add(1)
		go func(rank int, ep *pmsort.TCPCluster) {
			defer wg.Done()
			_, errs[rank] = ep.Run(func(c pmsort.Communicator) { fn(c, rank) })
		}(rank, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (cl *cluster) recorder(rank int) *pmsort.ObsRecorder {
	if cl.native != nil {
		return cl.native.ObsRecorder(rank)
	}
	return cl.tcp[rank].ObsRecorder()
}

// close tears the TCP mesh down. The endpoints close concurrently: each
// Close waits for its peers' EOFs, and sequential closes would each eat
// the drain timeout.
func (cl *cluster) close() {
	var wg sync.WaitGroup
	for _, ep := range cl.tcp {
		if ep == nil {
			continue
		}
		wg.Add(1)
		go func(ep *pmsort.TCPCluster) {
			defer wg.Done()
			_ = ep.Close() // teardown of a finished run: nothing to report it to
		}(ep)
	}
	wg.Wait()
}
