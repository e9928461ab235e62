// Package netcomm is the TCP backend of comm.Communicator: a cluster of
// p single-PE processes (one rank per process, typically on different
// machines) connected by one persistent duplex TCP connection per peer
// pair, exchanging the algorithms' payloads through the typed wire codec
// of internal/wire.
//
// Topology and rendezvous: every rank is given the same ordered address
// list; rank i listens on addrs[i] and dials every lower rank, retrying
// until the whole mesh is up (peers may start in any order). The
// connection per pair is established once and reused for the lifetime
// of the machine.
//
// Data path: Send is eager and never blocks — the payload is handed to
// the destination peer's writer goroutine, which serializes it
// (internal/wire), frames it with a length prefix, and streams it out
// through a buffered writer that flushes when the queue momentarily
// drains. A reader goroutine per peer decodes incoming frames into the
// process's mailbox (the comm.Mailbox every backend shares, plus this
// transport's failure state — mailbox.go), where Recv matches them by
// (sender, tag) with FIFO order per pair. Self-sends short-circuit
// through the mailbox without serialization. The Machine is the
// comm.Endpoint of the world communicator and everything split from it.
//
// Concurrency: unlike the in-process backends, this backend's data path
// is safe for concurrent use from several goroutines of the rank
// process — Send enqueues under a per-peer mutex and any number of
// goroutines may block in Recv as long as no two of them await the same
// (sender, tag) pair at once. That is the substrate the service layer
// (internal/svc) schedules concurrent sort jobs on: each job runs its
// collectives through a comm.WithTagOffset view, so jobs occupy
// disjoint tag namespaces and the single-receiver-per-pair rule holds
// by construction. A peer dying mid-collective surfaces as a
// *TransportError from Machine.Run (or from whatever goroutine was
// receiving), not as a process crash.
//
// Cost annotations are no-ops and Now reads the wall clock
// (comm.WallClock), so the backend-neutral phase statistics report real
// elapsed time, like the native backend.
//
// Serialization boundary: payloads must be of wire-registered types.
// The algorithm entry points register everything they send for their
// element type; user element types beyond plain structs of scalars plug
// in via Config.Encoder. Because the receiver gets a decoded copy, the
// shared-memory read-only conventions of internal/coll are trivially
// satisfied across processes.
package netcomm

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/obs"
	"pmsort/internal/wire"
)

// Wire protocol constants.
const (
	// handshakeMagic opens every connection, followed by the protocol
	// version byte and the dialer's uvarint rank and world size.
	handshakeMagic = "PMSC"
	protoVersion   = 2

	// frameFlagAligned marks a frame whose bulk blocks carry alignment
	// pads (wire.VecOptions.Aligned): the receiver can decode them as
	// zero-copy views of the frame buffer.
	frameFlagAligned = 1 << 0

	// vecMinSpan is the smallest bulk block the writer sends as a
	// vectored view of the payload instead of copying it into the frame
	// buffer (the zero-copy send path).
	vecMinSpan = 16 << 10

	// directFrameMin is the smallest single-segment frame that bypasses
	// the buffered writer: anything this large is written straight to
	// the socket (one syscall, no staging copy through bufio), while
	// small control messages keep batching through bufio with
	// flush-on-drain.
	directFrameMin = 32 << 10
)

// maxFrame bounds a single message frame (header + encoded payload).
// A frame larger than this indicates corruption. A variable only so the
// frame-edge tests can exercise the limit without 1 GiB allocations.
var maxFrame = 1 << 30

// Conn is the connection surface the transport drives. *net.TCPConn
// implements it; Options.WrapConn may interpose anything else that does
// (the netfault package wraps real connections to inject latency, torn
// writes, stalls, and resets deterministically).
type Conn interface {
	io.Reader
	io.Writer
	// Close tears the connection down.
	Close() error
	// CloseWrite half-closes the outbound stream (graceful shutdown).
	CloseWrite() error
	// SetLinger(0) makes Close discard unsent data and reset the
	// connection (the abrupt teardown of Machine.Abort).
	SetLinger(sec int) error
	// SetDeadline and SetWriteDeadline bound blocking I/O calls.
	SetDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Options tunes the rendezvous and the liveness machinery.
type Options struct {
	// RendezvousTimeout bounds the whole mesh construction (bind, dial
	// retries, handshakes). 0 means 30s.
	RendezvousTimeout time.Duration
	// HeartbeatInterval, when positive, makes this rank ping every peer
	// on a reserved transport tag at that cadence; pongs carry the
	// round-trip time into Health(). Off by default.
	HeartbeatInterval time.Duration
	// StallWindow, when positive (heartbeats must be on), bounds peer
	// unresponsiveness: a peer whose pongs stop for longer than the
	// window — its connection may well still be open — is declared
	// stalled, and receives from it fail with a *TransportError{Kind:
	// KindStalled} until its heartbeats resume. The window also bounds
	// each data-path write: a write that cannot complete within it
	// fails the mesh with the same kind (that one is not recoverable —
	// bytes were torn mid-frame). Off by default: only a closed
	// connection fails receives, exactly the pre-liveness behavior.
	StallWindow time.Duration
	// WrapConn, when set, interposes on every established peer
	// connection after the handshake, before the read/write loops start
	// — the fault-injection seam. peerRank is the remote rank.
	WrapConn func(peerRank int, conn Conn) Conn
	// Obs attaches an obs recorder to this rank: the PE program's spans
	// plus the transport counters (frames, vectored-write sizes, mailbox
	// depth and blocked-receive wait). Off by default — the data path
	// then carries no instrumentation beyond nil checks.
	Obs bool
}

// netMetrics caches the transport's obs counter cells, looked up once
// at machine construction. All pointers are nil when observability is
// off, and every Counter method is nil-safe — the disabled data path
// pays one nil check per site.
type netMetrics struct {
	framesOut   *obs.Counter
	framesIn    *obs.Counter
	writevCalls *obs.Counter
	writevBytes *obs.Counter
	bufWrites   *obs.Counter
}

// Machine is this process's endpoint of a TCP cluster: rank `rank` of
// `p` single-PE processes.
type Machine struct {
	rank  int
	p     int
	mbox  *mailbox
	peers []*peer // indexed by rank; nil at m.rank
	epoch time.Time

	rec *obs.Recorder // nil unless Options.Obs
	met netMetrics

	// Liveness machinery (Options.HeartbeatInterval / StallWindow).
	// monoStart anchors the monotonic clock heartbeat timestamps and
	// pong ages are measured on.
	hbInterval  time.Duration
	stallWindow time.Duration
	monoStart   time.Time
	hbStop      chan struct{}
	hbDone      chan struct{}

	closeErr error
	world    []int
	closing  sync.Once
	hbOnce   sync.Once
}

// peer is one established pairwise connection.
type peer struct {
	rank int
	conn Conn

	// outbound queue: unbounded so Send never blocks (eager buffered
	// sends — the Communicator contract).
	mu    sync.Mutex
	queue []outMsg
	wake  chan struct{}
	done  chan struct{} // writer goroutine exited
	rdone chan struct{} // reader goroutine exited

	// Liveness state: the reader loop stores pong arrivals and
	// round-trips, the heartbeat monitor reads them; stalledMark is the
	// monitor's private edge detector for stall/recover transitions.
	lastPongNS  atomic.Int64
	rttNS       atomic.Int64
	closed      bool // no further enqueues; writer drains and half-closes (guarded by mu)
	stalledMark bool
}

// outMsg is one queued outbound message.
type outMsg struct {
	tag     int
	payload any
	words   int64
}

// New establishes this process's endpoint of the cluster: it binds
// addrs[rank], dials every lower rank (retrying until the peer is up),
// accepts every higher rank, and starts the per-peer reader and writer
// goroutines. All processes must call New with the same address list.
func New(rank int, addrs []string, opt Options) (*Machine, error) {
	p := len(addrs)
	if p <= 0 {
		return nil, fmt.Errorf("netcomm: empty address list")
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("netcomm: rank %d outside address list of length %d", rank, p)
	}
	timeout := opt.RendezvousTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if opt.StallWindow > 0 && opt.HeartbeatInterval <= 0 {
		// A stall window without heartbeats could never clear: default
		// the cadence to a quarter of the window.
		opt.HeartbeatInterval = opt.StallWindow / 4
	}
	deadline := time.Now().Add(timeout)
	wire.Register[heartbeat]()

	m := &Machine{
		rank:        rank,
		p:           p,
		mbox:        newMailbox(),
		peers:       make([]*peer, p),
		hbInterval:  opt.HeartbeatInterval,
		stallWindow: opt.StallWindow,
		monoStart:   time.Now(),
		hbStop:      make(chan struct{}),
		hbDone:      make(chan struct{}),
	}
	m.world = comm.WorldRanks(p)
	if opt.Obs {
		// The recorder's clock shares its zero with the Stats clock: wall
		// time since the run epoch (set by Run's alignment barrier).
		m.rec = obs.NewRecorder(rank, p, func() int64 { return time.Since(m.epoch).Nanoseconds() })
		m.met = netMetrics{
			framesOut:   m.rec.Counter(obs.CtrNetFramesOut),
			framesIn:    m.rec.Counter(obs.CtrNetFramesIn),
			writevCalls: m.rec.Counter(obs.CtrNetWritevCalls),
			writevBytes: m.rec.Counter(obs.CtrNetWritevBytes),
			bufWrites:   m.rec.Counter(obs.CtrNetBufWrites),
		}
		m.mbox.depthMax = m.rec.Counter(obs.CtrMboxDepthMax)
		m.mbox.OnWait = m.rec.Counter(obs.CtrMboxWaitNS).Add
	}
	if p == 1 {
		close(m.hbDone) // no peers, no heartbeat loop
		return m, nil
	}

	ln, err := bindRetry(addrs[rank], deadline)
	if err != nil {
		return nil, fmt.Errorf("netcomm: rank %d cannot listen on %s: %w", rank, addrs[rank], err)
	}
	defer ln.Close()
	meshed := make(chan struct{}) // closed once all pairs are connected
	defer close(meshed)

	type result struct {
		peerRank int
		conn     *net.TCPConn
		err      error
	}
	results := make(chan result, p)

	// Accept the higher ranks. The listener is on a real host:port for
	// up to the whole rendezvous window, so stray connections (port
	// scanners, health checks) are possible: a failed handshake drops
	// that connection and keeps accepting — only listener errors (i.e.
	// the deadline) abort, reporting the last rejection for diagnosis.
	if rank < p-1 {
		var rejectMu sync.Mutex
		var lastReject error
		go func() {
			for {
				_ = ln.(*net.TCPListener).SetDeadline(deadline)
				conn, err := ln.Accept()
				if err != nil {
					select {
					case <-meshed: // rendezvous over; the listener closed
					default:
						rejectMu.Lock()
						if lastReject != nil {
							err = fmt.Errorf("%w (last rejected handshake: %v)", err, lastReject)
						}
						rejectMu.Unlock()
						results <- result{err: fmt.Errorf("accept: %w", err)}
					}
					return
				}
				go func(conn net.Conn) {
					peerRank, err := acceptHandshake(conn, rank, p, deadline)
					if err != nil {
						conn.Close()
						rejectMu.Lock()
						lastReject = err
						rejectMu.Unlock()
						return
					}
					results <- result{peerRank: peerRank, conn: conn.(*net.TCPConn)}
				}(conn)
			}
		}()
	}

	// Dial the lower ranks.
	for j := 0; j < rank; j++ {
		go func(j int) {
			conn, err := dialRetry(addrs[j], j, rank, p, deadline)
			results <- result{peerRank: j, conn: conn, err: err}
		}(j)
	}

	conns := make([]*net.TCPConn, p)
	for got := 0; got < p-1; {
		r := <-results
		if r.err == nil && conns[r.peerRank] != nil {
			// A duplicate dial from an already-connected rank means the
			// address lists disagree; that is fatal, not a stray.
			r.err = fmt.Errorf("duplicate connection from rank %d", r.peerRank)
		}
		if r.err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			if r.conn != nil {
				r.conn.Close()
			}
			return nil, fmt.Errorf("netcomm: rank %d rendezvous failed: %w", rank, r.err)
		}
		conns[r.peerRank] = r.conn
		got++
	}

	for j, conn := range conns {
		if conn == nil {
			continue
		}
		// The fault-injection seam: handshakes ran on the raw socket,
		// everything after this point — frames, heartbeats, the close
		// sequence — goes through the wrapped connection.
		var c Conn = conn
		if opt.WrapConn != nil {
			c = opt.WrapConn(j, c)
		}
		pr := &peer{
			rank:  j,
			conn:  c,
			wake:  make(chan struct{}, 1),
			done:  make(chan struct{}),
			rdone: make(chan struct{}),
		}
		pr.lastPongNS.Store(m.mono())
		m.peers[j] = pr
		go m.writeLoop(pr)
		go m.readLoop(pr)
	}
	if m.hbInterval > 0 {
		go m.heartbeatLoop()
	} else {
		close(m.hbDone)
	}
	return m, nil
}

// mono is the machine's monotonic clock (ns since construction): the
// time base of heartbeat timestamps and pong ages.
func (m *Machine) mono() int64 { return int64(time.Since(m.monoStart)) }

// bindRetry listens on addr, retrying briefly: in test and launcher
// setups the port was pre-reserved and released moments ago, and the
// kernel may not have recycled it yet.
func bindRetry(addr string, deadline time.Time) (net.Listener, error) {
	var lastErr error
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, lastErr
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dialRetry dials addr until the peer is listening, then handshakes.
func dialRetry(addr string, peerRank, myRank, p int, deadline time.Time) (*net.TCPConn, error) {
	backoff := 10 * time.Millisecond
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			// Name the unreachable peer and the last dial failure: a
			// restarting service rank needs to know which address never
			// answered, not just that the window elapsed.
			if lastErr != nil {
				return nil, fmt.Errorf("rank %d at %s unreachable: rendezvous window elapsed (last dial error: %v)", peerRank, addr, lastErr)
			}
			return nil, fmt.Errorf("rank %d at %s unreachable: rendezvous window elapsed", peerRank, addr)
		}
		conn, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			tc := conn.(*net.TCPConn)
			if err := dialHandshake(tc, peerRank, myRank, p, deadline); err != nil {
				tc.Close()
				return nil, err
			}
			return tc, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// dialHandshake introduces the dialer: magic, version, rank, world size;
// the acceptor echoes magic, version, and its rank.
func dialHandshake(conn net.Conn, peerRank, myRank, p int, deadline time.Time) error {
	_ = conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	buf := append([]byte(handshakeMagic), protoVersion)
	buf = binary.AppendUvarint(buf, uint64(myRank))
	buf = binary.AppendUvarint(buf, uint64(p))
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	// Read the reply with exact-size reads: a buffered reader could
	// slurp the acceptor's first data frames and lose them.
	br := oneByteReader{conn}
	if err := expectMagic(br); err != nil {
		return err
	}
	got, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if int(got) != peerRank {
		return fmt.Errorf("handshake: dialed rank %d but %d answered — inconsistent address lists", peerRank, got)
	}
	return nil
}

// acceptHandshake validates the dialer's introduction and echoes ours.
// Returns the dialer's rank.
func acceptHandshake(conn net.Conn, myRank, p int, deadline time.Time) (int, error) {
	_ = conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	// Exact-size reads only: the dialer's data frames may already be in
	// flight right behind its introduction.
	br := oneByteReader{conn}
	if err := expectMagic(br); err != nil {
		return 0, err
	}
	peerRank, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("handshake read: %w", err)
	}
	peerP, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("handshake read: %w", err)
	}
	if int(peerP) != p {
		return 0, fmt.Errorf("handshake: peer believes the cluster has %d ranks, this process %d", peerP, p)
	}
	if int(peerRank) <= myRank || int(peerRank) >= p {
		return 0, fmt.Errorf("handshake: unexpected dialer rank %d (acceptor rank %d, p=%d)", peerRank, myRank, p)
	}
	buf := append([]byte(handshakeMagic), protoVersion)
	buf = binary.AppendUvarint(buf, uint64(myRank))
	if _, err := conn.Write(buf); err != nil {
		return 0, fmt.Errorf("handshake reply: %w", err)
	}
	return int(peerRank), nil
}

// oneByteReader reads from a connection without buffering ahead, so a
// handshake consumes exactly its own bytes and nothing of the frames
// that may follow.
type oneByteReader struct {
	r io.Reader
}

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(o.r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func expectMagic(br oneByteReader) error {
	var hdr [len(handshakeMagic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if string(hdr[:len(handshakeMagic)]) != handshakeMagic {
		return fmt.Errorf("handshake: bad magic %q — not a pmsort peer", hdr[:len(handshakeMagic)])
	}
	if hdr[len(handshakeMagic)] != protoVersion {
		return fmt.Errorf("handshake: protocol version %d, want %d", hdr[len(handshakeMagic)], protoVersion)
	}
	return nil
}

// Rank returns this process's global rank.
func (m *Machine) Rank() int { return m.rank }

// P returns the number of ranks in the cluster.
func (m *Machine) P() int { return m.p }

// Run executes fn as this rank's PE program, handing it the world
// communicator, and returns the wall-clock time fn took on this rank.
// All ranks must call Run collectively with the same program. A
// transport failure or algorithm panic is returned as an error. The
// returned duration and the Stats clock share one zero: the
// cluster-synchronized start, taken after an entry barrier — the time
// this process spent waiting for its peers to enter Run is excluded (it
// measures launch skew, not the program).
func (m *Machine) Run(fn func(c comm.Communicator)) (d time.Duration, err error) {
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if r := recover(); r != nil {
			// A *TransportError (a peer died or hung up mid-collective)
			// surfaces as a typed, unwrappable error — the caller can
			// errors.As it and keep the process alive; everything else is
			// an algorithm panic and is reported verbatim.
			if te, ok := r.(*TransportError); ok {
				err = fmt.Errorf("netcomm: rank %d: %w", m.rank, te)
				return
			}
			err = fmt.Errorf("netcomm: rank %d: %v", m.rank, r)
		}
	}()
	world := m.World()
	// Align the wall-clock epochs across ranks before setting this
	// rank's: each process entered Run at its own time, and without a
	// common zero the maxima that TimedBarrier takes over per-rank
	// clocks would fold the inter-rank startup skew into the first
	// phase's statistics (the native backend shares one epoch across
	// its goroutine-PEs; this barrier is the distributed equivalent).
	epochBarrier(world)
	start = time.Now()
	m.epoch = start
	if m.rec != nil {
		// Label the PE goroutine for CPU profiles (obs-enabled runs only).
		pprof.Do(context.Background(), pprof.Labels("pmsort_rank", strconv.Itoa(m.rank)), func(context.Context) {
			fn(world)
		})
		return d, nil
	}
	fn(world)
	return d, nil
}

// World returns the communicator of all ranks. The Machine is its
// endpoint (comm.Endpoint) and that of everything split from it.
func (m *Machine) World() comm.Communicator { return comm.NewGroup(m, m.world, m.rank) }

// Send transmits the payload to the given rank. Self-sends move by
// reference through the mailbox (native semantics); remote sends hand
// the payload to the peer's writer goroutine, which serializes it — the
// sender must treat it as transferred either way (the Communicator
// ownership contract).
func (m *Machine) Send(to, tag int, payload any, words int64) {
	if to == m.rank {
		m.mbox.put(to, tag, payload, words)
		return
	}
	m.enqueue(to, tag, payload, words)
}

// Recv blocks until the message with the given tag from the given rank
// arrives. It panics with a *TransportError when the mesh fails first.
func (m *Machine) Recv(from, tag int) (any, int64) {
	msg := m.mbox.Take(from, tag)
	return msg.Payload, msg.Words
}

// Cost returns the wall-clock hook: annotations are free, Now reads
// real elapsed time since this rank's Run started.
func (m *Machine) Cost([]int) comm.Cost { return comm.WallClock{Epoch: m.epoch} }

// Recorder returns this rank's obs recorder (nil unless Options.Obs) —
// the obs.Source hook; every communicator of the rank shares it and so
// stays traced.
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// tagEpoch is reserved for Run's epoch-alignment barrier. Tag reuse by
// the algorithms is harmless — (sender, tag) FIFO keeps streams apart —
// but the value sits outside every tag block the packages use.
const tagEpoch = 0x6b0001

// epochBarrier is a dissemination barrier over the world communicator.
func epochBarrier(c comm.Communicator) {
	p, r := c.Size(), c.Rank()
	for d := 1; d < p; d <<= 1 {
		c.Send((r+d)%p, tagEpoch, nil, 1)
		c.Recv((r-d+p)%p, tagEpoch)
	}
}

// tagHeartbeat is reserved for the transport's own liveness pings.
// Heartbeat frames are intercepted in the read loop and never reach the
// mailbox, so the tag can never collide with a receive; like tagEpoch
// it lives in this package's 0x6b block.
const tagHeartbeat = 0x6b0002

// heartbeat is the liveness ping/pong payload. SendNS is the pinger's
// monotonic send time, echoed verbatim in the pong so the pinger can
// compute the round-trip on its own clock. Wire-registered.
type heartbeat struct {
	SendNS int64
	Pong   bool
}

// heartbeatLoop pings every peer at the configured cadence and, when a
// stall window is set, compares each peer's last pong age against it:
// a peer past the window is declared stalled (receives from it fail
// typed but recoverably), and a peer whose pongs resume is healed.
func (m *Machine) heartbeatLoop() {
	defer close(m.hbDone)
	t := time.NewTicker(m.hbInterval)
	defer t.Stop()
	window := m.stallWindow.Nanoseconds()
	for {
		select {
		case <-m.hbStop:
			return
		case <-t.C:
		}
		now := m.mono()
		for _, pr := range m.peers {
			if pr == nil {
				continue
			}
			m.tryEnqueue(pr, tagHeartbeat, heartbeat{SendNS: now}, 1)
			if window <= 0 {
				continue
			}
			if now-pr.lastPongNS.Load() > window {
				if !pr.stalledMark {
					pr.stalledMark = true
					m.mbox.stall(pr.rank, fmt.Errorf("netcomm: rank %d unresponsive: no heartbeat pong for over %v (connection still open)", pr.rank, m.stallWindow))
				}
			} else if pr.stalledMark {
				pr.stalledMark = false
				m.mbox.unstall(pr.rank)
			}
		}
	}
}

// stopHeartbeat ends the liveness loop (idempotent).
func (m *Machine) stopHeartbeat() {
	m.hbOnce.Do(func() { close(m.hbStop) })
}

// PeerHealth is one peer's liveness snapshot.
type PeerHealth struct {
	RTTNS       int64 // latest heartbeat round-trip (0 until the first pong)
	SincePongNS int64 // age of the last pong (-1 when heartbeats are off)
	Rank        int
	Stalled     bool // currently past the stall window
}

// MeshHealth is this endpoint's view of the cluster: the sticky fatal
// transport error, if any, plus per-peer heartbeat state. The service
// layer polls it to drive its degraded-state machine and /metrics.
type MeshHealth struct {
	Failed error // non-nil once the mailbox is fatally poisoned
	Peers  []PeerHealth
}

// Healthy reports whether the mesh is fully usable from this endpoint:
// no fatal failure and no peer currently stalled.
func (h MeshHealth) Healthy() bool {
	if h.Failed != nil {
		return false
	}
	for _, ph := range h.Peers {
		if ph.Stalled {
			return false
		}
	}
	return true
}

// Health snapshots this endpoint's liveness state.
func (m *Machine) Health() MeshHealth {
	var h MeshHealth
	fatal, stalled := m.mbox.health()
	if fatal != nil {
		h.Failed = fatal
	}
	now := m.mono()
	h.Peers = make([]PeerHealth, 0, m.p-1)
	for _, pr := range m.peers {
		if pr == nil {
			continue
		}
		ph := PeerHealth{Rank: pr.rank, RTTNS: pr.rttNS.Load(), SincePongNS: -1, Stalled: stalled[pr.rank]}
		if m.hbInterval > 0 {
			ph.SincePongNS = now - pr.lastPongNS.Load()
		}
		h.Peers = append(h.Peers, ph)
	}
	return h
}

// RetireTagRange retires the tag namespaces covering [lo, hi): queued
// and future messages there are dropped and receives fail typed (see
// mailbox.retire). The service layer calls it with an aborted job's tag
// block — the teardown half of its mesh-wide job abort — so the job's
// goroutines unwind and its late traffic is reclaimed instead of
// leaking in the mailbox forever.
func (m *Machine) RetireTagRange(lo, hi int) { m.mbox.retire(lo, hi) }

// enqueue hands an outbound message to the destination peer's writer.
func (m *Machine) enqueue(to, tag int, payload any, words int64) {
	pr := m.peers[to]
	if pr == nil {
		panic(fmt.Sprintf("netcomm: send from rank %d to invalid rank %d (p=%d)", m.rank, to, m.p))
	}
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		panic(fmt.Sprintf("netcomm: send to rank %d after Close", to))
	}
	pr.queue = append(pr.queue, outMsg{tag: tag, payload: payload, words: words})
	pr.mu.Unlock()
	select {
	case pr.wake <- struct{}{}:
	default:
	}
}

// tryEnqueue is enqueue for transport-internal traffic (heartbeats): it
// silently drops the message when the peer is already closed instead of
// panicking — a ping racing Close is not an application bug.
func (m *Machine) tryEnqueue(pr *peer, tag int, payload any, words int64) {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	pr.queue = append(pr.queue, outMsg{tag: tag, payload: payload, words: words})
	pr.mu.Unlock()
	select {
	case pr.wake <- struct{}{}:
	default:
	}
}

// writeLoop serializes and streams the peer's outbound queue. One frame
// per message: u32 LE frame length, a flags byte, then uvarint tag,
// uvarint words, then the wire-encoded payload. Bulk element blocks are
// NOT copied into the frame: the wire codec returns them as views of
// the payload (wire.AppendPayloadVec) and the writer sends header
// segments and payload views together with one vectored write
// (net.Buffers → writev), bypassing the buffered writer. Small control
// frames keep batching through bufio, which is flushed whenever the
// queue momentarily drains, so they coalesce under load but never
// linger. Deferred reads of the payload are sound for the same reason
// deferred encoding always was: the sorters only recycle sent buffers
// after a barrier, and a barrier cannot complete before every receiver
// has consumed the bulk data (DESIGN.md §10).
func (m *Machine) writeLoop(pr *peer) {
	defer close(pr.done)
	if m.rec != nil {
		// Label the IO goroutine for CPU profiles (obs-enabled runs only).
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("pmsort_io", "write", "pmsort_peer", strconv.Itoa(pr.rank))))
	}
	bw := bufio.NewWriterSize(pr.conn, 1<<16)
	w := wire.NewWriter()
	aligned := wire.HostLittleEndian()
	var flags byte
	if aligned {
		flags = frameFlagAligned
	}
	vopt := wire.VecOptions{Aligned: aligned, AlignBase: 4, MinSpan: vecMinSpan}
	var frame []byte
	for {
		pr.mu.Lock()
		batch := pr.queue
		pr.queue = nil
		closed := pr.closed
		pr.mu.Unlock()

		for i := range batch {
			msg := &batch[i]
			frame = frame[:0]
			frame = append(frame, 0, 0, 0, 0, flags) // length prefix placeholder + flags
			frame = binary.AppendUvarint(frame, uint64(msg.tag))
			frame = binary.AppendUvarint(frame, uint64(msg.words))
			segs, err := w.AppendPayloadVec(frame, msg.payload, vopt)
			if err != nil {
				m.fail(pr.rank, KindUnknown, fmt.Errorf("encoding message for rank %d (tag %#x): %w", pr.rank, msg.tag, err))
				return
			}
			total := -4
			for _, s := range segs {
				total += len(s)
			}
			if total > maxFrame {
				m.fail(pr.rank, KindUnknown, fmt.Errorf("message for rank %d exceeds the %d-byte frame limit", pr.rank, maxFrame))
				return
			}
			binary.LittleEndian.PutUint32(segs[0], uint32(total))
			// The first segment is our reusable frame arena — hold on to
			// it before the write: net.Buffers.WriteTo consumes the
			// segment list in place (entries are nilled as they drain).
			first := segs[0]
			if len(segs) == 1 && total+4 < directFrameMin {
				m.armWriteDeadline(pr)
				if _, err := bw.Write(first); err != nil {
					m.failWrite(pr, err)
					return
				}
				m.met.bufWrites.Add(1)
			} else {
				// Large or multi-segment frame: flush the batched small
				// messages, then hand all segments — frame headers and
				// payload views alike — to one vectored write.
				m.armWriteDeadline(pr)
				if err := bw.Flush(); err != nil {
					m.failWrite(pr, err)
					return
				}
				bufs := net.Buffers(segs)
				if _, err := bufs.WriteTo(pr.conn); err != nil {
					m.failWrite(pr, err)
					return
				}
				m.met.writevCalls.Add(1)
				m.met.writevBytes.Add(int64(total) + 4)
			}
			m.met.framesOut.Add(1)
			// The kernel copied the frame arena during the write; reuse
			// it. Payload view segments belong to the (immutable,
			// post-Send) payload and are dropped.
			frame = first[:0]
			batch[i] = outMsg{} // release the payload before the next batch
		}

		if len(batch) == 0 {
			m.armWriteDeadline(pr)
			if err := bw.Flush(); err != nil {
				m.failWrite(pr, err)
				return
			}
			if closed {
				// Graceful half-close: the peer's reader sees EOF after
				// the last byte; our reader keeps draining until theirs.
				_ = pr.conn.CloseWrite()
				return
			}
			<-pr.wake
		}
	}
}

// readLoop decodes the peer's inbound frames into the mailbox.
//
// Buffer discipline (the receive half of the zero-copy path): each
// frame's body is read into a scratch buffer, and aligned bulk blocks
// are decoded as sub-slices of that buffer — one allocation per bulk
// frame, every chunk aliasing it, no per-chunk copy. Receivers own
// decoded data indefinitely, so whenever a decode aliased the buffer,
// ownership moves to the mailbox with the payload and the loop switches
// to a fresh buffer for the next frame (the double-buffer handoff that
// makes aliasing sound). Frames that decode without aliasing (control
// messages, non-bulk payloads, big-endian peers) keep reusing the
// scratch buffer, with copies carved from the reader's bump arena.
func (m *Machine) readLoop(pr *peer) {
	defer close(pr.rdone)
	if m.rec != nil {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("pmsort_io", "read", "pmsort_peer", strconv.Itoa(pr.rank))))
	}
	br := bufio.NewReaderSize(pr.conn, 1<<16)
	r := wire.NewReader()
	var body []byte
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err == io.EOF {
				m.mbox.hangup(pr.rank)
				return
			}
			m.fail(pr.rank, KindReset, fmt.Errorf("reading from rank %d: %w", pr.rank, err))
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if int64(n) > int64(maxFrame) {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("frame from rank %d exceeds the %d-byte limit", pr.rank, maxFrame))
			return
		}
		if n < 1 {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("corrupt frame from rank %d: empty frame", pr.rank))
			return
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			m.fail(pr.rank, KindReset, fmt.Errorf("reading from rank %d: %w", pr.rank, err))
			return
		}
		aligned := body[0]&frameFlagAligned != 0
		rest := body[1:]
		tag, k := binary.Uvarint(rest)
		if k <= 0 {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("corrupt frame from rank %d: tag", pr.rank))
			return
		}
		rest = rest[k:]
		words, k := binary.Uvarint(rest)
		if k <= 0 {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("corrupt frame from rank %d: words", pr.rank))
			return
		}
		rest = rest[k:]
		if !aligned {
			// Copy-mode frame (big-endian peer): pre-size the bump arena
			// from the frame length so all its bulk decodes carve from
			// one allocation.
			r.Grow(len(rest))
		}
		payload, rest, aliased, err := r.DecodePayloadOpt(rest, wire.DecodeOptions{Aligned: aligned, Alias: aligned})
		if err != nil {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("decoding message from rank %d (tag %#x): %w", pr.rank, tag, err))
			return
		}
		if len(rest) != 0 {
			m.fail(pr.rank, KindUnknown, fmt.Errorf("frame from rank %d has %d trailing bytes (tag %#x)", pr.rank, len(rest), tag))
			return
		}
		m.met.framesIn.Add(1)
		if int(tag) == tagHeartbeat {
			// Liveness traffic never reaches the mailbox: answer pings
			// from the reader (so a busy PE program cannot delay them)
			// and fold pongs into the peer's health state.
			if hb, ok := payload.(heartbeat); ok {
				if hb.Pong {
					now := m.mono()
					pr.rttNS.Store(now - hb.SendNS)
					pr.lastPongNS.Store(now)
				} else {
					m.tryEnqueue(pr, tagHeartbeat, heartbeat{SendNS: hb.SendNS, Pong: true}, 1)
				}
			}
			if aliased {
				body = nil
			}
			continue
		}
		m.mbox.put(pr.rank, int(tag), payload, int64(words))
		if aliased {
			body = nil // handed off with the payload; next frame gets a fresh buffer
		}
	}
}

// fail records a fatal transport error attributed to the given peer and
// wakes every blocked receiver.
func (m *Machine) fail(peer int, kind ErrKind, err error) {
	m.mbox.fail(peer, kind, err)
}

// armWriteDeadline bounds the next write call on the peer's connection
// by the stall window (no-op when liveness is off).
func (m *Machine) armWriteDeadline(pr *peer) {
	if m.stallWindow > 0 {
		_ = pr.conn.SetWriteDeadline(time.Now().Add(m.stallWindow))
	}
}

// failWrite classifies a data-path write failure: a deadline expiry is
// a stall (the peer stopped draining its socket), anything else a
// reset. Either way the mesh is fatally poisoned — unlike a
// heartbeat-detected stall, a torn write cannot be resumed.
func (m *Machine) failWrite(pr *peer, err error) {
	kind := KindReset
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		kind = KindStalled
		err = fmt.Errorf("write made no progress for %v (peer not draining): %w", m.stallWindow, err)
	}
	m.fail(pr.rank, kind, fmt.Errorf("writing to rank %d: %w", pr.rank, err))
}

// Abort tears this rank's endpoint down abruptly: every connection is
// closed with linger 0 (RST where the stack supports it), nothing is
// flushed, and no hangup handshake happens — the closest in-process
// stand-in for this rank's process dying. Peers observe a transport
// failure (*TransportError) on their next receive, not a graceful
// hangup, and this rank's own blocked receives fail the same way. A
// failure-injection hook for tests of the layers above; a subsequent
// Close is a no-op.
func (m *Machine) Abort() {
	m.stopHeartbeat()
	m.closing.Do(func() {
		err := fmt.Errorf("netcomm: rank %d aborted", m.rank)
		// Poison the mailbox before touching the sockets: fail is
		// first-error-wins, and closing the connections makes our own
		// read/write loops race in with KindReset — the rank that
		// aborted itself must deterministically see KindAborted.
		m.mbox.fail(m.rank, KindAborted, err)
		for _, pr := range m.peers {
			if pr == nil {
				continue
			}
			pr.mu.Lock()
			pr.closed = true
			pr.mu.Unlock()
			select {
			case pr.wake <- struct{}{}:
			default:
			}
			_ = pr.conn.SetLinger(0)
			_ = pr.conn.Close()
		}
		// Join the IO loops: the closed connections error them out
		// promptly, and waiting here means an aborted endpoint leaves no
		// goroutines behind (and no unsynchronized reads racing whatever
		// the caller does next). Bounded like Close's drain.
		deadline := time.Now().Add(10 * time.Second)
		for _, pr := range m.peers {
			if pr == nil {
				continue
			}
			waitUntil(pr.done, deadline)
			waitUntil(pr.rdone, deadline)
		}
		m.closeErr = err
	})
}

// Close flushes and half-closes every outbound stream, waits for the
// peers to do the same (draining whatever is still in flight), and
// tears the connections down. Call it once, after the last Run.
func (m *Machine) Close() error {
	m.stopHeartbeat()
	<-m.hbDone
	m.closing.Do(func() {
		for _, pr := range m.peers {
			if pr == nil {
				continue
			}
			pr.mu.Lock()
			pr.closed = true
			pr.mu.Unlock()
			select {
			case pr.wake <- struct{}{}:
			default:
			}
		}
		// Bound the drain: a peer that never closes (crashed mid-run)
		// must not wedge shutdown.
		deadline := time.Now().Add(10 * time.Second)
		for _, pr := range m.peers {
			if pr == nil {
				continue
			}
			if !waitUntil(pr.done, deadline) && m.closeErr == nil {
				m.closeErr = fmt.Errorf("netcomm: close timed out flushing to rank %d", pr.rank)
			}
			if !waitUntil(pr.rdone, deadline) && m.closeErr == nil {
				m.closeErr = fmt.Errorf("netcomm: close timed out draining from rank %d", pr.rank)
			}
			pr.conn.Close()
		}
	})
	return m.closeErr
}

// waitUntil waits for ch to close, no later than deadline.
func waitUntil(ch chan struct{}, deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}
