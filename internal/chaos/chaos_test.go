package chaos

import (
	"reflect"
	"strings"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/native"
	"pmsort/internal/sim"
	"pmsort/internal/workload"
)

// collecting returns a config whose violations accumulate in the
// returned audit instead of panicking.
func collecting(seed uint64, force bool) (Config, *Audit) {
	aud := &Audit{}
	return Config{
		Seed:           seed,
		Shake:          true,
		ForceSerialize: force,
		Audit:          aud,
		OnViolation:    func(Violation) {},
	}, aud
}

// TestPlantedPostSendMutation is the planted-bug self-test of the
// acceptance criteria: a deliberate post-Send payload mutation on the
// native backend must be caught by the checksum-at-Send vs
// checksum-at-delivery comparison. The mutation is sequenced before the
// receive through a second message, so the test is race-free: the bug
// chaos detects here is a contract violation, not a data race.
func TestPlantedPostSendMutation(t *testing.T) {
	cfg, aud := collecting(7, true)
	native.New(2).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		if cc.Rank() == 0 {
			data := []uint64{1, 2, 3}
			cc.Send(1, 5, data, 3)
			data[0] = 99 // forbidden: the payload was already sent
			cc.Send(1, 6, nil, 1)
		} else {
			cc.Recv(0, 6) // sequence after the mutation
			pl, _ := cc.Recv(0, 5)
			// The receiver must still get the unmutated Send-time bytes.
			if got := pl.([]uint64); got[0] != 1 {
				t.Errorf("receiver saw the mutation: %v", got)
			}
		}
	})
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Kind != Mutation {
		t.Fatalf("want exactly one Mutation violation, got %v", vs)
	}
	if vs[0].PE != 1 {
		t.Errorf("mutation detected at PE %d, want receiver PE 1", vs[0].PE)
	}
}

// unregisteredPayload is deliberately never wire-registered.
type unregisteredPayload struct {
	X int
}

// TestPlantedUnregisteredType is the second planted-bug self-test: a
// payload type without a wire registration must be caught by forced
// serialization on the native backend — not only when the code first
// runs on TCP.
func TestPlantedUnregisteredType(t *testing.T) {
	cfg, aud := collecting(7, true)
	native.New(2).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		if cc.Rank() == 0 {
			cc.Send(1, 3, unregisteredPayload{X: 42}, 1)
		} else {
			// The unserializable payload is still delivered (by
			// reference) so collecting harnesses can continue.
			pl, _ := cc.Recv(0, 3)
			if pl.(unregisteredPayload).X != 42 {
				t.Errorf("fallback delivery broken: %v", pl)
			}
		}
	})
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Kind != Unregistered {
		t.Fatalf("want exactly one Unregistered violation, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "unregisteredPayload") {
		t.Errorf("diagnosis does not name the type: %s", vs[0].Detail)
	}
}

// TestPlantedWordsUnderDeclaration: declaring 1 word for a 1000-element
// vector must trip the strict words audit.
func TestPlantedWordsUnderDeclaration(t *testing.T) {
	cfg, aud := collecting(7, true)
	cfg.WordsFactor = 4
	big := make([]uint64, 1000)
	native.New(2).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		if cc.Rank() == 0 {
			cc.Send(1, 3, big, 1) // lie: 8000 bytes declared as 1 word
			cc.Send(1, 4, big, 1000)
		} else {
			cc.Recv(0, 3)
			cc.Recv(0, 4)
		}
	})
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Kind != Words {
		t.Fatalf("want exactly one Words violation (honest message must pass), got %v", vs)
	}
	if ratio, _ := aud.WorstWordsRatio(); ratio < 100 {
		t.Errorf("worst ratio %v, want ~1000", ratio)
	}
}

// TestHealthyTrafficIsClean: correct traffic through the full middleware
// (shaking + serialization + strict words audit) must produce zero
// violations and deliver decoded copies, not aliases.
func TestHealthyTrafficIsClean(t *testing.T) {
	cfg, aud := collecting(3, true)
	cfg.WordsFactor = 4
	native.New(3).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		next, prev := (cc.Rank()+1)%3, (cc.Rank()+2)%3
		sent := []uint64{uint64(cc.Rank()), 17}
		cc.Send(next, 1, sent, 2)
		pl, w := cc.Recv(prev, 1)
		got := pl.([]uint64)
		if w != 2 || got[0] != uint64(prev) || got[1] != 17 {
			t.Errorf("PE %d: got %v (w=%d)", cc.Rank(), got, w)
		}
		// nil payloads round-trip as nil.
		cc.Send(next, 2, nil, 1)
		if pl, _ := cc.Recv(prev, 2); pl != nil {
			t.Errorf("nil payload arrived as %v", pl)
		}
	})
	if vs := aud.Violations(); len(vs) != 0 {
		t.Fatalf("healthy traffic flagged: %v", vs)
	}
	if msgs, bytes, _ := aud.Messages(); msgs != 6 || bytes == 0 {
		t.Errorf("audit counted %d messages, %d bytes; want 6 serialized messages", msgs, bytes)
	}
}

// TestForcedSerializationBreaksAliasing: without chaos the native
// backend passes slices by reference; with ForceSerialize the receiver
// must own an independent copy.
func TestForcedSerializationBreaksAliasing(t *testing.T) {
	cfg, _ := collecting(9, true)
	native.New(2).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		if cc.Rank() == 0 {
			data := []uint64{10, 20}
			cc.Send(1, 1, data, 2)
			// Wait for the receiver's verdict before touching anything.
			cc.Recv(1, 2)
		} else {
			pl, _ := cc.Recv(0, 1)
			got := pl.([]uint64)
			got[0] = 777 // receiver owns the copy; must not alias the sender
			cc.Send(0, 2, nil, 1)
		}
	})
	// No assertion needed beyond -race cleanliness plus the mutation
	// check not firing: the receiver wrote to its copy only.
}

// runChaosSort runs one chaos-wrapped AMS sort on the given backend and
// returns outputs plus the audit.
func runChaosSort(t *testing.T, backend string, seed uint64) ([][]uint64, *Audit) {
	t.Helper()
	const p, perPE = 4, 200
	cfg, aud := collecting(seed, true)
	cfg.OnViolation = nil // violations are fatal here
	locals := make([][]uint64, p)
	for rank := range locals {
		locals[rank] = workload.Local(workload.DupHeavy, 5, p, perPE, rank)
	}
	outs := make([][]uint64, p)
	run := func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		out, _ := core.AMSSort(cc, append([]uint64(nil), locals[c.Rank()]...),
			func(a, b uint64) bool { return a < b },
			core.Config{Levels: 2, Seed: 11, TieBreak: true})
		outs[c.Rank()] = out
	}
	switch backend {
	case "native":
		native.New(p).Run(run)
	case "sim":
		sim.NewDefault(p).Run(func(pe *sim.PE) { run(sim.World(pe)) })
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	return outs, aud
}

// TestChaosSortTransparent: a full multi-level AMS sort under the
// complete middleware must produce the exact output of an unwrapped run
// on both in-process backends — chaos perturbs schedules, never results.
func TestChaosSortTransparent(t *testing.T) {
	const p, perPE = 4, 200
	locals := make([][]uint64, p)
	for rank := range locals {
		locals[rank] = workload.Local(workload.DupHeavy, 5, p, perPE, rank)
	}
	plain := make([][]uint64, p)
	native.New(p).Run(func(c comm.Communicator) {
		out, _ := core.AMSSort(c, append([]uint64(nil), locals[c.Rank()]...),
			func(a, b uint64) bool { return a < b },
			core.Config{Levels: 2, Seed: 11, TieBreak: true})
		plain[c.Rank()] = out
	})
	for _, backend := range []string{"native", "sim"} {
		outs, aud := runChaosSort(t, backend, 21)
		if !reflect.DeepEqual(outs, plain) {
			t.Errorf("%s: chaos-wrapped output differs from plain run", backend)
		}
		if msgs, _, _ := aud.Messages(); msgs == 0 {
			t.Errorf("%s: no messages serialized — middleware not engaged", backend)
		}
		if g, d := aud.Injected(); g+d == 0 {
			t.Errorf("%s: no schedule perturbations injected", backend)
		}
	}
}

// TestScheduleReproducible: equal seeds must inject the identical
// schedule (per-PE draw-hash equality) and unequal seeds must not.
func TestScheduleReproducible(t *testing.T) {
	_, audA := runChaosSort(t, "native", 42)
	_, audB := runChaosSort(t, "native", 42)
	if !reflect.DeepEqual(audA.ScheduleHash(), audB.ScheduleHash()) {
		t.Fatal("same seed produced different injected schedules")
	}
	_, audC := runChaosSort(t, "native", 43)
	if reflect.DeepEqual(audA.ScheduleHash(), audC.ScheduleHash()) {
		t.Fatal("different seeds produced the identical injected schedule")
	}
}

// TestWrapComposesWithSplits: split communicators derived from a
// wrapped one must stay wrapped (messages inside subgroups are still
// serialized and audited).
func TestWrapComposesWithSplits(t *testing.T) {
	cfg, aud := collecting(5, true)
	native.New(4).Run(func(c comm.Communicator) {
		cc := Wrap(c, cfg)
		sub, g := cc.SplitEqual(2)
		if _, ok := sub.Endpoint().(*endpoint); !ok {
			t.Errorf("SplitEqual unwrapped the middleware: %T", sub.Endpoint())
		}
		partner := 1 - sub.Rank()
		sub.Send(partner, 9, []uint64{uint64(g)}, 1)
		pl, _ := sub.Recv(partner, 9)
		if got := pl.([]uint64); got[0] != uint64(g) {
			t.Errorf("group %d: got %v", g, got)
		}
		mod, _ := cc.SplitModulo(2)
		if _, ok := mod.Endpoint().(*endpoint); !ok {
			t.Errorf("SplitModulo unwrapped the middleware: %T", mod.Endpoint())
		}
		if sset := mod.Subset(0, mod.Size()); sset.Size() != mod.Size() {
			t.Errorf("Subset size %d != %d", sset.Size(), mod.Size())
		}
	})
	if vs := aud.Violations(); len(vs) != 0 {
		t.Fatalf("split traffic flagged: %v", vs)
	}
	if msgs, _, _ := aud.Messages(); msgs != 4 {
		t.Errorf("audit counted %d messages, want 4 (subgroup sends serialized)", msgs)
	}
}

// TestDefaultViolationPanics: without OnViolation the violation must
// surface as a panic carrying the diagnosis (the native machine
// re-panics it on the caller).
func TestDefaultViolationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("planted bug did not panic")
		}
		if !strings.Contains(panicText(r), "unregistered") {
			t.Fatalf("panic does not carry the diagnosis: %v", r)
		}
	}()
	native.New(2).Run(func(c comm.Communicator) {
		cc := Wrap(c, Config{Seed: 1, ForceSerialize: true})
		if cc.Rank() == 0 {
			// The panic fires at Send, before anything is forwarded, so
			// rank 1 must not wait for the message (it would never come).
			cc.Send(1, 3, unregisteredPayload{X: 1}, 1)
		}
	})
}

func panicText(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		return x.Error()
	}
	return ""
}
