// Package chaos is a deterministic, seeded fault-and-contract-checking
// middleware for comm.Communicator: Wrap(c, cfg) interposes on the
// endpoint of any backend and returns a communicator that behaves
// identically at the algorithm level while adversarially perturbing and
// auditing every message underneath. It is the test-time counterpart of the robustness
// argument in "Robust Massively Parallel Sorting" (Axtmann & Sanders,
// 2016): instead of hoping that hand-picked configurations expose
// contract violations, the middleware *manufactures* the conditions
// under which they become visible.
//
// Three independent mechanisms, all driven by one seed:
//
//   - Schedule shaking (Config.Shake): seeded pseudo-random delays and
//     runtime.Gosched calls around Send and Recv perturb the goroutine
//     interleavings of the in-process backends, so orderings that would
//     only occur under production load occur in tests. The injected
//     schedule is a pure function of (Seed, PE, operation index) —
//     a failing run replays exactly from its seed.
//
//   - Forced serialization (Config.ForceSerialize): every in-process
//     payload is round-tripped through the internal/wire codec at the
//     Send/Recv boundary, so a missing wire registration or a
//     non-serializable payload — bugs that otherwise stay invisible
//     until the code happens to run on the TCP backend — fail on the
//     simulated and native backends too. The receiver gets the decoded
//     copy, which also surfaces aliasing bugs where an algorithm relies
//     on sharing memory with the sender. Post-Send mutation (forbidden
//     by the Communicator payload contract) is detected by checksumming
//     the encoding at Send and re-encoding the original at delivery:
//     a sender that touched the payload in between changes the second
//     checksum.
//
//   - Words audit: the declared `words` of every serialized message is
//     compared against its encoded byte size. The audit always records
//     the worst declared-vs-encoded ratio; with Config.WordsFactor > 0
//     a message whose encoding exceeds words·8·factor + slack bytes is
//     reported as a violation (under-declared messages corrupt the
//     simulator's cost model silently).
//
// Violations are delivered to Config.OnViolation (default: panic) and
// recorded in the shared Config.Audit, so a torture harness can both
// fail fast interactively and collect everything in one sweep.
//
// Wrapping composes with splitting: the middleware wraps the PE's
// endpoint, which every communicator split from the wrapped one shares,
// so a sort that recurses into subgroups stays under chaos all the way
// down.
package chaos

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/prng"
	"pmsort/internal/wire"
)

// Kind classifies a detected contract violation.
type Kind int

const (
	// Mutation: a payload was mutated between Send and delivery —
	// forbidden by the Communicator ownership contract (checksum at
	// Send differs from checksum of the re-encoding at delivery).
	Mutation Kind = iota
	// Unregistered: a payload's type is not wire-registered, so the
	// message would be unencodable on the TCP backend.
	Unregistered
	// Codec: the payload encoded but did not round-trip (decode error
	// or trailing bytes) — an encoder/decoder asymmetry.
	Codec
	// Words: the declared message size in words under-states the
	// encoded byte size beyond the configured tolerance.
	Words
)

// String names the violation kind.
func (k Kind) String() string {
	switch k {
	case Mutation:
		return "post-send-mutation"
	case Unregistered:
		return "unregistered-type"
	case Codec:
		return "codec-roundtrip"
	case Words:
		return "words-under-declared"
	}
	return "invalid"
}

// Violation is one detected contract violation. It implements error.
type Violation struct {
	Kind Kind
	// PE is the world rank of the PE that detected the violation (the
	// sender for Unregistered/Words, the receiver otherwise).
	PE int
	// Tag is the message tag in flight.
	Tag int
	// Detail is a human-readable diagnosis.
	Detail string
}

// Error formats the violation with its kind and location.
func (v Violation) Error() string {
	return fmt.Sprintf("chaos: %v at PE %d (tag %#x): %s", v.Kind, v.PE, v.Tag, v.Detail)
}

// Audit accumulates what the middleware observed across all PEs of a
// run: violations, message/byte counters, the worst declared-words
// ratio, and a per-PE hash of the injected schedule (for reproducibility
// checks: same seed ⇒ same ScheduleHash). One Audit is shared by all
// wrapped communicators of a run via Config.Audit; all methods are safe
// for concurrent use.
type Audit struct {
	mu         sync.Mutex
	violations []Violation
	msgs       int64
	bytes      int64
	words      int64
	worstRatio float64
	worstMsg   string
	delays     int64
	gosched    int64
	sched      map[int]uint64 // PE -> schedule-draw hash
}

// record appends a violation.
func (a *Audit) record(v Violation) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.violations = append(a.violations, v)
	a.mu.Unlock()
}

// noteMessage folds one serialized message into the counters.
func (a *Audit) noteMessage(encodedBytes int, words int64, detail string) {
	if a == nil {
		return
	}
	ratio := float64(encodedBytes) / float64(8*max(words, 1))
	a.mu.Lock()
	a.msgs++
	a.bytes += int64(encodedBytes)
	a.words += words
	if ratio > a.worstRatio {
		a.worstRatio = ratio
		a.worstMsg = detail
	}
	a.mu.Unlock()
}

// noteSchedule folds one schedule draw of a PE into its schedule hash.
func (a *Audit) noteSchedule(pe int, draw uint64, kind int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.sched == nil {
		a.sched = make(map[int]uint64)
	}
	h := a.sched[pe]
	h = h*0x100000001b3 ^ draw
	a.sched[pe] = h
	switch kind {
	case 1:
		a.gosched++
	case 2:
		a.delays++
	}
	a.mu.Unlock()
}

// Violations returns a copy of every recorded violation.
func (a *Audit) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

// Messages returns the number of serialized messages and their total
// encoded bytes and declared words.
func (a *Audit) Messages() (msgs, bytes, words int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.msgs, a.bytes, a.words
}

// WorstWordsRatio returns the largest observed encoded-bytes /
// (8·declared-words) ratio and the message it came from.
func (a *Audit) WorstWordsRatio() (float64, string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.worstRatio, a.worstMsg
}

// Injected returns how many Gosched calls and sleeps were injected.
func (a *Audit) Injected() (gosched, delays int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gosched, a.delays
}

// ScheduleHash returns the per-PE hash of the injected schedule draws.
// Two runs with the same seed and program must return equal maps.
func (a *Audit) ScheduleHash() map[int]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]uint64, len(a.sched))
	for pe, h := range a.sched {
		out[pe] = h
	}
	return out
}

// Config tunes the middleware. The zero value injects nothing and
// checks nothing; the torture harness enables everything.
type Config struct {
	// Seed drives every pseudo-random choice. Runs with equal seeds
	// inject identical schedules.
	Seed uint64
	// Shake enables seeded delays/Gosched around Send and Recv.
	Shake bool
	// ForceSerialize round-trips every payload through internal/wire
	// at the Send/Recv boundary and enables the mutation checksum and
	// the words audit. Only valid on backends that move payloads by
	// reference (sim, native); the TCP backend already serializes.
	ForceSerialize bool
	// MaxDelay bounds an injected Shake sleep. 0 means 50µs. Keep it
	// small: the point is perturbed interleavings, not slow tests.
	MaxDelay time.Duration
	// WordsFactor > 0 turns the words audit into a hard check: a
	// message whose encoding exceeds words·8·WordsFactor + WordsSlack
	// bytes is a violation. 0 records the worst ratio without failing.
	WordsFactor float64
	// WordsSlack is the constant byte allowance of the words check
	// (headers, varints, tiny control messages). 0 means 64.
	WordsSlack int
	// OnViolation receives every detected violation. nil panics with
	// the Violation, which the backends' Run surfaces (the native
	// machine re-panics on the caller; the TCP machine returns an
	// error).
	OnViolation func(Violation)
	// Audit, when non-nil, accumulates counters and violations across
	// all PEs wrapped with this config.
	Audit *Audit
}

// endpoint is the chaos-wrapped endpoint of one PE: the wrapped endpoint
// (Cost passes through — chaos perturbs real schedules, never modeled
// time) plus the per-PE chaos state. Every communicator of the PE
// shares it; all of them stay on the PE's goroutine.
type endpoint struct {
	comm.Endpoint
	cfg Config
	pe  int // world rank at Wrap time
	rng *prng.Rng
}

// Unwrap keeps the middleware transparent to comm.Capability lookups,
// so tracing sees through it.
func (s *endpoint) Unwrap() comm.Endpoint { return s.Endpoint }

// Wrap returns c with its endpoint wrapped in the chaos middleware. Call
// it once per PE on the communicator the PE program starts from
// (typically the world communicator); communicators split from the
// result share the wrapped endpoint. The injected schedule is
// deterministic in (cfg.Seed, world rank, operation order).
func Wrap(c comm.Communicator, cfg Config) comm.Communicator {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Microsecond
	}
	if cfg.WordsSlack <= 0 {
		cfg.WordsSlack = 64
	}
	pe := c.GlobalRank(c.Rank())
	return c.WithEndpoint(&endpoint{
		Endpoint: c.Endpoint(),
		cfg:      cfg,
		pe:       pe,
		rng:      prng.New(cfg.Seed).Fork(uint64(pe)*0x9e3779b97f4a7c15 + 0x6d),
	})
}

// violate reports a violation through the configured sinks.
func (s *endpoint) violate(v Violation) {
	s.cfg.Audit.record(v)
	if s.cfg.OnViolation != nil {
		s.cfg.OnViolation(v)
		return
	}
	panic(v)
}

// shake injects one deterministic schedule perturbation: nothing,
// a Gosched, or a bounded sleep, chosen by the PE's seeded stream.
func (s *endpoint) shake() {
	if !s.cfg.Shake {
		return
	}
	draw := s.rng.Next()
	var kind int64
	switch {
	case draw%16 == 0: // 1/16: sleep up to MaxDelay
		kind = 2
		d := time.Duration(draw>>32) % s.cfg.MaxDelay
		time.Sleep(d)
	case draw%4 == 0: // 3/16: yield the processor
		kind = 1
		runtime.Gosched()
	}
	s.cfg.Audit.noteSchedule(s.pe, draw, kind)
}

// envelope carries a force-serialized payload through an in-process
// backend: the encoded bytes (the receiver decodes its own copy), the
// checksum of the encoding at Send time, and the sender's original
// payload for the delivery-time mutation check. The envelope itself is
// never wire-encoded — it only travels by reference.
type envelope struct {
	bytes []byte
	sum   uint64
	orig  any
	tag   int
	from  int // sender's world rank, for diagnostics
}

// encodePayload runs payload through a fresh wire stream writer (every
// message self-describes; no interning state is shared across messages).
func encodePayload(payload any) ([]byte, error) {
	return wire.NewWriter().AppendPayload(nil, payload)
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Send perturbs the schedule, serializes the payload when forced
// serialization is on, audits the declared words, and forwards to the
// wrapped endpoint. A payload that cannot be encoded is reported
// (Unregistered or Codec) and then forwarded unserialized so that a
// collecting harness can keep running after the diagnosis.
func (s *endpoint) Send(to, tag int, payload any, words int64) {
	s.shake()
	if !s.cfg.ForceSerialize {
		s.Endpoint.Send(to, tag, payload, words)
		return
	}
	enc, err := encodePayload(payload)
	if err != nil {
		s.violate(Violation{Kind: Unregistered, PE: s.pe, Tag: tag,
			Detail: fmt.Sprintf("payload %T cannot be serialized: %v", payload, err)})
		s.Endpoint.Send(to, tag, payload, words)
		return
	}
	s.cfg.Audit.noteMessage(len(enc), words, fmt.Sprintf("%T (tag %#x, %d B, %d words)", payload, tag, len(enc), words))
	if f := s.cfg.WordsFactor; f > 0 {
		if limit := int(float64(8*max(words, 0))*f) + s.cfg.WordsSlack; len(enc) > limit {
			s.violate(Violation{Kind: Words, PE: s.pe, Tag: tag,
				Detail: fmt.Sprintf("payload %T encodes to %d bytes but declares %d words (limit %d bytes at factor %g)",
					payload, len(enc), words, limit, f)})
		}
	}
	//nolint:wirereg // envelope is never wire-encoded: it crosses the in-process backends by reference
	s.Endpoint.Send(to, tag, &envelope{bytes: enc, sum: checksum(enc), orig: payload, tag: tag, from: s.pe}, words)
}

// Recv perturbs the schedule, receives, and — for force-serialized
// envelopes — verifies the sender did not mutate the payload after Send
// and hands the receiver its own decoded copy. A round-trip failure is
// reported and the sender's original payload is delivered instead.
func (s *endpoint) Recv(from, tag int) (any, int64) {
	s.shake()
	payload, words := s.Endpoint.Recv(from, tag)
	env, ok := payload.(*envelope)
	if !ok {
		return payload, words
	}
	// Mutation check: the encoding is deterministic, so re-encoding the
	// sender's original must reproduce the Send-time checksum unless the
	// sender wrote to the payload after Send.
	if re, err := encodePayload(env.orig); err == nil && checksum(re) != env.sum {
		s.violate(Violation{Kind: Mutation, PE: s.pe, Tag: env.tag,
			Detail: fmt.Sprintf("payload %T from PE %d was mutated between Send and delivery", env.orig, env.from)})
	}
	decoded, rest, err := wire.NewReader().DecodePayload(env.bytes)
	if err != nil {
		s.violate(Violation{Kind: Codec, PE: s.pe, Tag: env.tag,
			Detail: fmt.Sprintf("payload %T from PE %d does not decode: %v", env.orig, env.from, err)})
		return env.orig, words
	}
	if len(rest) != 0 {
		s.violate(Violation{Kind: Codec, PE: s.pe, Tag: env.tag,
			Detail: fmt.Sprintf("payload %T from PE %d leaves %d trailing bytes", env.orig, env.from, len(rest))})
		return env.orig, words
	}
	return decoded, words
}
