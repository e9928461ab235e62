// Command sortnode runs one rank of a multi-process pmsort TCP cluster
// (backend 3), or — with -launch — brings up a whole loopback cluster
// of itself for a quick multi-process run on one machine.
//
// One rank per machine (run the same command on every host, with the
// same -peers list and that host's -rank):
//
//	sortnode -rank 0 -peers host0:9000,host1:9000,host2:9000,host3:9000 -algo ams -n 1000000
//	sortnode -rank 1 -peers host0:9000,host1:9000,host2:9000,host3:9000 -algo ams -n 1000000
//	...
//
// Whole cluster on loopback (4 processes, auto-assigned ports):
//
//	sortnode -launch -p 4 -algo ams -kind uniform -n 100000 -levels 2
//
// Every rank generates its slice of the workload deterministically,
// sorts it collectively with the chosen algorithm, validates the global
// order and permutation across the cluster, and prints its wall-clock
// phase breakdown. With -out, the rank's sorted output is written as
// little-endian uint64s for external byte-comparison against the
// simulated and native backends.
//
// With -serve the cluster becomes a long-lived sort service instead of
// running one sort: rank 0 serves the job API over HTTP on -http (POST
// /jobs, GET /jobs/{id}, GET /metrics, POST /shutdown) and dispatches
// submitted jobs to all ranks; many jobs run concurrently on the one
// mesh. cmd/sortload is the matching load generator:
//
//	sortnode -launch -p 4 -serve -http 127.0.0.1:8080
//	sortload -url http://127.0.0.1:8080 -jobs 1000 -concurrency 8 -n 4096
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pmsort"
	"pmsort/internal/core"
	"pmsort/internal/expt"
	"pmsort/internal/workload"
)

func main() {
	var (
		rank     = flag.Int("rank", -1, "this process's rank (index into -peers)")
		peersStr = flag.String("peers", "", "comma-separated host:port list, one per rank, identical on every rank")
		launch   = flag.Bool("launch", false, "launch a whole loopback cluster of -p sortnode processes instead of being one rank")
		p        = flag.Int("p", 4, "cluster size for -launch")
		algoStr  = flag.String("algo", "ams", "ams|rlm|gv|mp|bitonic|hist|hcq")
		kindStr  = flag.String("kind", "uniform", "uniform|skewed|dup-heavy|sorted|reverse|almost-sorted|one-pe")
		n        = flag.Int("n", 100_000, "elements per rank (one-pe: per rank of the total, all placed on rank 0)")
		levels   = flag.Int("levels", 2, "recursion levels k for ams/rlm")
		seed     = flag.Uint64("seed", 42, "workload and algorithm seed")
		outPath  = flag.String("out", "", "write this rank's sorted output as little-endian uint64s to this file")
		quiet    = flag.Bool("quiet", false, "suppress the per-rank summary line")

		serve      = flag.Bool("serve", false, "run as a long-lived sort service instead of one sort")
		httpAddr   = flag.String("http", "127.0.0.1:8080", "rank 0's HTTP listen address in -serve mode")
		rendezvous = flag.Duration("rendezvous", 0, "mesh rendezvous timeout (0: 30s)")
		heartbeat  = flag.Duration("heartbeat", 0, "peer heartbeat interval (0: stall/4)")
		stall      = flag.Duration("stall", 0, "declare a peer stalled after this long without a pong (0: off)")
	)
	flag.Parse()

	algo, ok := expt.ParseAlgo(*algoStr)
	if !ok {
		fatalf("unknown -algo %q", *algoStr)
	}
	kind, ok := workload.ParseKind(*kindStr)
	if !ok {
		fatalf("unknown -kind %q", *kindStr)
	}

	if *launch {
		os.Exit(launchCluster(*p, *outPath, flag.CommandLine))
	}

	peers := splitList(*peersStr)
	if len(peers) == 0 {
		fatalf("-peers is required (or use -launch)")
	}
	if *rank < 0 || *rank >= len(peers) {
		fatalf("-rank %d outside the %d-entry peer list", *rank, len(peers))
	}

	// Test hook: make this rank die before the rendezvous so the launcher
	// failure path can be exercised without a real crash.
	if fr := os.Getenv("SORTNODE_TEST_FAIL_RANK"); fr != "" && fr == strconv.Itoa(*rank) {
		fmt.Fprintf(os.Stderr, "sortnode: rank %d failing on request (SORTNODE_TEST_FAIL_RANK)\n", *rank)
		os.Exit(3)
	}

	if *serve {
		os.Exit(serveRank(*rank, peers, *httpAddr, *rendezvous, *heartbeat, *stall, *quiet))
	}

	spec := expt.Spec{
		Algo:   algo,
		P:      len(peers),
		PerPE:  *n,
		Levels: *levels,
		Kind:   kind,
		Seed:   *seed,
	}

	cl, err := pmsort.NewTCPOpts(*rank, peers, pmsort.TCPOptions{RendezvousTimeout: *rendezvous})
	if err != nil {
		fatalf("%v", err)
	}
	defer cl.Close()

	var out []uint64
	var st *core.Stats
	elapsed, err := cl.Run(func(c pmsort.Communicator) {
		out, st = expt.RunOn(c, spec)
	})
	if err != nil {
		fatalf("%v", err)
	}

	if !*quiet {
		fmt.Printf("rank %d/%d: %v %s n/p=%d sorted+validated in %v (sort %.3fms: select %.3f, buckets %.3f, delivery %.3f, local %.3f), %d elements out\n",
			*rank, len(peers), algo, kind, *n, elapsed.Round(1000),
			float64(st.TotalNS)/1e6,
			float64(st.PhaseNS[core.PhaseSplitterSelection])/1e6,
			float64(st.PhaseNS[core.PhaseBucketProcessing])/1e6,
			float64(st.PhaseNS[core.PhaseDataDelivery])/1e6,
			float64(st.PhaseNS[core.PhaseLocalSort])/1e6,
			len(out))
	}
	if *outPath != "" {
		if err := writeU64s(*outPath, out); err != nil {
			fatalf("writing -out: %v", err)
		}
	}
}

// serveRank runs this rank's side of the sort service until a signal or
// a POST /shutdown stops it.
func serveRank(rank int, peers []string, httpAddr string, rendezvous, heartbeat, stall time.Duration, quiet bool) int {
	cl, err := pmsort.NewTCPOpts(rank, peers, pmsort.TCPOptions{
		Obs:               true, // feeds the transport section of /metrics
		RendezvousTimeout: rendezvous,
		HeartbeatInterval: heartbeat,
		StallWindow:       stall,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortnode: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := pmsort.ServeOptions{Addr: httpAddr}
	if !quiet {
		opt.Ready = func(url string) { fmt.Printf("sortnode: rank 0 serving jobs on %s\n", url) }
	}
	serveErr := cl.Serve(ctx, opt)
	closeErr := cl.Close()
	if serveErr != nil {
		fmt.Fprintf(os.Stderr, "sortnode: rank %d: %v\n", rank, serveErr)
		return 1
	}
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "sortnode: rank %d: close: %v\n", rank, closeErr)
		return 1
	}
	return 0
}

// launchCluster re-executes this binary once per rank on auto-assigned
// loopback ports, forwarding every explicitly set flag except the
// cluster-topology ones. A -out path fans out to one file per rank
// (path.rank0, path.rank1, ...).
//
// The first rank to exit nonzero takes the cluster down: the remaining
// ranks are killed and the launcher exits 1 naming the failing rank.
// (Leaving them running would park the launcher on ranks that can never
// finish — their mesh is missing a peer.) Interrupt/terminate signals
// are forwarded as kills too, so ctrl-C leaves no orphan ranks behind.
func launchCluster(p int, outPath string, fs *flag.FlagSet) int {
	if p < 1 {
		fatalf("-launch needs -p >= 1")
	}
	addrs, err := expt.ReserveLoopbackAddrs(p)
	if err != nil {
		fatalf("reserving ports: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating own executable: %v", err)
	}
	var common []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "p", "rank", "peers", "out":
			return
		}
		common = append(common, "-"+f.Name+"="+f.Value.String())
	})
	peerList := strings.Join(addrs, ",")

	cmds := make([]*exec.Cmd, p)
	for rank := 0; rank < p; rank++ {
		args := append([]string{
			"-rank", strconv.Itoa(rank),
			"-peers", peerList,
		}, common...)
		if outPath != "" {
			args = append(args, "-out", fmt.Sprintf("%s.rank%d", outPath, rank))
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				if c != nil {
					_ = c.Process.Kill()
				}
			}
			fatalf("starting rank %d: %v", rank, err)
		}
		cmds[rank] = cmd
	}

	killOthers := func(except int) {
		for r, c := range cmds {
			if r != except {
				_ = c.Process.Kill()
			}
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			killOthers(-1)
		}
	}()

	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, p)
	for rank, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) {
			exits <- exit{rank, cmd.Wait()}
		}(rank, cmd)
	}

	status := 0
	for done := 0; done < p; done++ {
		e := <-exits
		if e.err == nil || status != 0 {
			continue // healthy exit, or the reap after a kill
		}
		status = 1
		fmt.Fprintf(os.Stderr, "sortnode: rank %d failed: %v; killing the remaining ranks\n", e.rank, e.err)
		killOthers(e.rank)
	}
	return status
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func writeU64s(path string, vals []uint64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return os.WriteFile(path, buf, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sortnode: "+format+"\n", args...)
	os.Exit(1)
}
