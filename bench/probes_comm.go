package main

import (
	"fmt"
	"slices"
	"time"

	"pmsort"
	"pmsort/internal/coll"
	"pmsort/internal/delivery"
	"pmsort/internal/msel"
	"pmsort/internal/workload"
)

// The probes' own message tags: block 0x690000-0x69ffff.
const (
	tagProbePing = 0x690001 + iota
	tagProbePong
	tagProbeStream
	tagProbeAck
	tagProbeFanin
	tagProbeStop
)

// collectiveNS runs fn reps times on every rank inside one Run, each
// repetition fenced by a barrier, and returns per repetition the longest
// time fn took on any rank (the slowest rank sets a collective's time).
func collectiveNS(cl *cluster, reps int, fn func(c pmsort.Communicator, rank int)) ([]float64, error) {
	perRank := make([][]int64, numClusterRanks)
	err := cl.run(func(c pmsort.Communicator, rank int) {
		ns := make([]int64, reps)
		for i := range ns {
			coll.Barrier(c)
			t0 := time.Now()
			fn(c, rank)
			ns[i] = time.Since(t0).Nanoseconds()
		}
		perRank[rank] = ns
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, reps)
	for i := range out {
		for _, ns := range perRank {
			out[i] = max(out[i], float64(ns[i]))
		}
	}
	return out, nil
}

// collective records the median of collectiveNS as a probe span series.
func (p *prober) collective(cl *cluster, name string, reps int, fn func(c pmsort.Communicator, rank int)) (float64, error) {
	start := sinceNS(p.bt.t0)
	ns, err := collectiveNS(cl, reps, fn)
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	p.bt.add(0, "probe."+name, 1, start, sinceNS(p.bt.t0), int64(reps))
	return median(ns), nil
}

// commProbes: the layers that need a machine - transport, collectives,
// delivery, multisequence selection - on one TCP and one native cluster.
func (p *prober) commProbes() error {
	if err := p.rendezvousProbe(); err != nil {
		return err
	}
	tcp, err := newCluster(true, pmsort.TCPOptions{})
	if err != nil {
		return err
	}
	defer tcp.close()
	native, err := newCluster(false, pmsort.TCPOptions{})
	if err != nil {
		return err
	}
	if err := p.pointToPointProbes(tcp, native); err != nil {
		return err
	}
	if err := p.collProbes(tcp, ".tcp", true); err != nil {
		return err
	}
	if err := p.collProbes(native, ".native", false); err != nil {
		return err
	}
	if err := p.deliveryProbes(tcp, native); err != nil {
		return err
	}
	if err := p.mselProbe(native); err != nil {
		return err
	}
	return p.heartbeatProbe()
}

// rendezvousProbe times the construction of a p=4 loopback mesh.
func (p *prober) rendezvousProbe() error {
	var cl *cluster
	var err error
	ns := p.time("netcomm.rendezvous", p.reps, func() {
		if cl != nil {
			cl.close()
		}
	}, func() {
		if err == nil {
			cl, err = newCluster(true, pmsort.TCPOptions{})
		}
	})
	if cl != nil {
		cl.close()
	}
	p.res.set("netcomm.rendezvous_ms", ns/1e6)
	return err
}

// pointToPointProbes: two ranks of the p=4 machine talk, the other two
// sit in Recv until released.
func (p *prober) pointToPointProbes(tcp, native *cluster) error {
	trips, streamMsgs, faninMsgs := 2000, 64, 2000
	if p.o.tiny() {
		trips, streamMsgs, faninMsgs = 50, 4, 50
	}
	bulk := make([]uint64, p.bulkWords())

	// pingPong returns the round-trip times of a 1-word message between
	// ranks 0 and 1, measured on rank 0.
	pingPong := func(cl *cluster) ([]float64, error) {
		rtt := make([]float64, trips)
		err := cl.run(func(c pmsort.Communicator, rank int) {
			switch rank {
			case 0:
				for i := range rtt {
					t0 := time.Now()
					c.Send(1, tagProbePing, uint64(i), 1)
					c.Recv(1, tagProbePong)
					rtt[i] = float64(time.Since(t0).Nanoseconds())
				}
				for peer := 2; peer < c.Size(); peer++ {
					c.Send(peer, tagProbeStop, nil, 1)
				}
			case 1:
				for range rtt {
					pl, _ := c.Recv(0, tagProbePing)
					c.Send(0, tagProbePong, pl, 1)
				}
			default:
				c.Recv(0, tagProbeStop)
			}
		})
		return rtt, err
	}
	rtt, err := pingPong(tcp)
	if err != nil {
		return err
	}
	p.res.set("netcomm.pingpong_us_p50", percentile(rtt, 0.50)/1e3)
	p.res.set("netcomm.pingpong_us_p95", percentile(rtt, 0.95)/1e3)
	if rtt, err = pingPong(native); err != nil {
		return err
	}
	p.res.set("native.pingpong_ns_p50", percentile(rtt, 0.50))

	// One-way stream of bulk messages, rank 0 to rank 1, closed by an ack.
	var streamErr error
	streamNS := p.time("netcomm.stream", max(p.reps/3, 2), nil, func() {
		err := tcp.run(func(c pmsort.Communicator, rank int) {
			switch rank {
			case 0:
				for i := 0; i < streamMsgs; i++ {
					c.Send(1, tagProbeStream, bulk, int64(len(bulk)))
				}
				c.Recv(1, tagProbeAck)
				for peer := 2; peer < c.Size(); peer++ {
					c.Send(peer, tagProbeStop, nil, 1)
				}
			case 1:
				for i := 0; i < streamMsgs; i++ {
					c.Recv(0, tagProbeStream)
				}
				c.Send(0, tagProbeAck, nil, 1)
			default:
				c.Recv(0, tagProbeStop)
			}
		})
		if err != nil {
			streamErr = err
		}
	})
	if streamErr != nil {
		return streamErr
	}
	p.res.set("netcomm.stream_gb_s", float64(8*len(bulk)*streamMsgs)/streamNS)

	// Fan-in on the native mailbox: three senders, one receiver.
	var faninNS int64
	err = native.run(func(c pmsort.Communicator, rank int) {
		if rank != 0 {
			for i := 0; i < faninMsgs; i++ {
				c.Send(0, tagProbeFanin, uint64(i), 1)
			}
			return
		}
		t0 := time.Now()
		for i := 0; i < faninMsgs; i++ {
			for peer := 1; peer < c.Size(); peer++ {
				c.Recv(peer, tagProbeFanin)
			}
		}
		faninNS = time.Since(t0).Nanoseconds()
	})
	if err != nil {
		return err
	}
	p.res.set("native.fanin_ns_per_msg", float64(faninNS)/float64(faninMsgs*(numClusterRanks-1)))
	return nil
}

func (p *prober) bulkWords() int {
	if p.o.tiny() {
		return 1 << 10
	}
	return probeBulkWords
}

// collProbes times the collectives on one backend (the metric suffix);
// the native machine runs only the three that have a native metric.
func (p *prober) collProbes(cl *cluster, suffix string, tcp bool) error {
	const np = numClusterRanks
	bulk := make([][]uint64, np) // immutable: sent every repetition, never written
	small := make([][]uint64, np)
	for i := range bulk {
		bulk[i] = make([]uint64, p.bulkWords())
		small[i] = make([]uint64, probeCtlWords)
	}
	vec := make([][]int64, np) // one per rank: the all-reduce may combine in place
	for i := range vec {
		vec[i] = make([]int64, 64)
	}
	splitters := make([]uint64, probeSplitters)
	sample := workload.Local(workload.Sorted, p.o.seed, 1, probeSample, 0)
	const us, ms = 1e3, 1e6
	smallReps := 10 * p.reps
	for _, probe := range []struct {
		metric  string
		scale   float64
		reps    int
		tcpOnly bool
		fn      func(c pmsort.Communicator, rank int)
	}{
		{"coll.alltoallv_bulk_ms", ms, p.reps, false, func(c pmsort.Communicator, _ int) { coll.AlltoallvDirect(c, bulk) }},
		{"coll.alltoallv_small_us", us, smallReps, false, func(c pmsort.Communicator, _ int) { coll.AlltoallvDirect(c, small) }},
		{"coll.barrier_us", us, smallReps, false, func(c pmsort.Communicator, _ int) { coll.Barrier(c) }},
		{"coll.alltoallv_1factor_bulk_ms", ms, p.reps, true, func(c pmsort.Communicator, _ int) { coll.Alltoallv1Factor(c, bulk) }},
		{"coll.allreduce_us", us, smallReps, true, func(c pmsort.Communicator, rank int) { coll.AllreduceSumI64(c, slices.Clone(vec[rank])) }},
		{"coll.bcast_us", us, smallReps, true, func(c pmsort.Communicator, _ int) { coll.Bcast(c, 0, splitters, probeSplitters) }},
		{"coll.allgather_merge_us", us, smallReps, true, func(c pmsort.Communicator, _ int) { coll.AllgatherMerge(c, sample, u64Less) }},
	} {
		if probe.tcpOnly && !tcp {
			continue
		}
		ns, err := p.collective(cl, probe.metric+suffix, probe.reps, probe.fn)
		if err != nil {
			return err
		}
		p.res.set(probe.metric+suffix, ns/probe.scale)
	}
	return nil
}

// deliveryProbes: every rank delivers its 2 MB slice - p equal pieces to
// p single-PE groups (the BenchmarkTCPAlltoallv shape; streamed like the
// sorters consume it, and batch like Options.Batch makes them), and two
// halves to 2 groups of 2 PEs (the multi-level shape).
func (p *prober) deliveryProbes(tcp, native *cluster) error {
	const np = numClusterRanks
	perPE := p.o.sortN(1<<20) / np
	locals := make([][]uint64, np)
	dst := make([][]uint64, np)
	for rank := range locals {
		locals[rank] = workload.Local(workload.Uniform, p.o.seed, np, perPE, rank)
		dst[rank] = make([]uint64, 0, 2*perPE)
	}
	pieces := func(rank, r int) [][]uint64 {
		out := make([][]uint64, r)
		for j := range out {
			out[j] = locals[rank][j*perPE/r : (j+1)*perPE/r]
		}
		return out
	}
	stream := func(r int) func(c pmsort.Communicator, rank int) {
		return func(c pmsort.Communicator, rank int) {
			next := dst[rank][:0]
			delivery.DeliverStream(c, pieces(rank, r), delivery.Options{}, func(_ int, chunks [][]uint64) {
				for _, ch := range chunks {
					next = append(next, ch...)
				}
			})
		}
	}
	batch := func(c pmsort.Communicator, rank int) {
		next := dst[rank][:0]
		for _, ch := range delivery.Deliver(c, pieces(rank, np), delivery.Options{Batch: true}) {
			next = append(next, ch...)
		}
	}
	for _, probe := range []struct {
		metric string
		cl     *cluster
		fn     func(c pmsort.Communicator, rank int)
	}{
		{"delivery.deliver_stream_ms.tcp", tcp, stream(np)},
		{"delivery.deliver_batch_ms.tcp", tcp, batch},
		{"delivery.deliver_stream_ms.native", native, stream(np)},
		{"delivery.deliver_2group_ms.tcp", tcp, stream(2)},
	} {
		ns, err := p.collective(probe.cl, probe.metric, p.reps, probe.fn)
		if err != nil {
			return err
		}
		p.res.set(probe.metric, ns/1e6)
	}
	return nil
}

// mselProbe: multisequence selection of the p-1 equidistant ranks over
// four sorted runs, on the native machine.
func (p *prober) mselProbe(native *cluster) error {
	const np = numClusterRanks
	perPE := p.o.sortN(1<<20) / np
	locals := make([][]uint64, np)
	for rank := range locals {
		locals[rank] = workload.Local(workload.Uniform, p.o.seed, np, perPE, rank)
		slices.Sort(locals[rank])
	}
	targets := make([]int64, np-1)
	for j := range targets {
		targets[j] = int64(j+1) * int64(perPE)
	}
	ns, err := p.collective(native, "msel.select", p.reps, func(c pmsort.Communicator, rank int) {
		msel.Select(c, locals[rank], targets, u64Less, p.o.seed)
	})
	p.res.set("msel.select_us", ns/1e3)
	return err
}

// heartbeatProbe: ops of bulk_keyed_tcp on a mesh with peer liveness on
// (50 ms heartbeats, 2 s stall window) against a plain mesh, interleaved
// so that drift hits both sides alike. Liveness is off in all workloads.
func (p *prober) heartbeatProbe() error {
	spec := bulkKeyedTCP(p.o.seed)
	n := p.o.sortN(spec.n)
	plain, err := newSortHarness(spec, n, p.o.seed, pmsort.TCPOptions{})
	if err != nil {
		return err
	}
	defer plain.cl.close()
	beating, err := newSortHarness(spec, n, p.o.seed, pmsort.TCPOptions{HeartbeatInterval: 50 * time.Millisecond, StallWindow: 2 * time.Second})
	if err != nil {
		return err
	}
	defer beating.cl.close()
	var plainMS, beatingMS []float64
	for i := 0; i < p.reps+2; i++ {
		a, err := plain.op(-1)
		if err != nil {
			return err
		}
		b, err := beating.op(-1)
		if err != nil {
			return err
		}
		if i >= 2 { // the first two pairs warm both meshes up
			plainMS = append(plainMS, float64(a.opNS)/1e6)
			beatingMS = append(beatingMS, float64(b.opNS)/1e6)
		}
	}
	p.res.set("netcomm.heartbeat_overhead_pct", 100*(median(beatingMS)-median(plainMS))/median(plainMS))
	return nil
}
