package pmsort

import (
	"math/rand"
	"reflect"
	"testing"

	"pmsort/internal/workload"
)

// prefixSweepSorters are the two sorters that consume the prefix cache,
// each with tie-breaking profiles that stress the cached classifiers.
func prefixSweepSorters() []struct {
	name string
	run  func(c Communicator, d []uint64, cfg Config) []uint64
} {
	return []struct {
		name string
		run  func(c Communicator, d []uint64, cfg Config) []uint64
	}{
		{"AMS", func(c Communicator, d []uint64, cfg Config) []uint64 {
			out, _ := AMSSort(c, d, u64Less, cfg)
			return out
		}},
		{"RLM", func(c Communicator, d []uint64, cfg Config) []uint64 {
			out, _ := RLMSort(c, d, u64Less, cfg)
			return out
		}},
	}
}

// TestPrefixConformanceAllKinds sweeps every workload distribution
// through AMS and RLM on both in-process backends and asserts that the
// prefix-cached comparator path produces output byte-identical to the
// plain comparator path (Config.NoPrefix). DupHeavy (16 distinct keys)
// and Sorted/Reverse are the interesting rows: equal-prefix runs and
// degenerate splitter trees exercise every tie fallback of the cached
// kernels.
func TestPrefixConformanceAllKinds(t *testing.T) {
	const p, perPE = 6, 200
	backends := []struct {
		name string
		run  func(fn func(c Communicator))
	}{
		{"sim", func(fn func(c Communicator)) {
			New(p).Run(func(pe *PE) { fn(World(pe)) })
		}},
		{"native", func(fn func(c Communicator)) {
			NewNative(p).Run(fn)
		}},
	}
	for _, kind := range conformanceKinds() {
		for _, s := range prefixSweepSorters() {
			for _, b := range backends {
				t.Run(kind.String()+"/"+s.name+"/"+b.name, func(t *testing.T) {
					locals := make([][]uint64, p)
					for rank := range locals {
						locals[rank] = workload.Local(kind, 77, p, perPE, rank)
					}
					base := Config{Levels: 2, Seed: 13}

					run := func(cfg Config) [][]uint64 {
						outs := make([][]uint64, p)
						b.run(func(c Communicator) {
							outs[c.Rank()] = s.run(c, append([]uint64(nil), locals[c.Rank()]...), cfg)
						})
						return outs
					}
					off := base
					off.NoPrefix = true
					plain := run(off)
					prefixed := run(base)

					total := 0
					var prev uint64
					for rank := 0; rank < p; rank++ {
						if !reflect.DeepEqual(plain[rank], prefixed[rank]) {
							t.Fatalf("PE %d: prefix path diverges from plain comparator path", rank)
						}
						for i, v := range prefixed[rank] {
							if v < prev {
								t.Fatalf("PE %d element %d: global order violated", rank, i)
							}
							prev = v
						}
						total += len(prefixed[rank])
					}
					if want := p * perPE; total != want {
						t.Fatalf("lost elements: %d of %d", total, want)
					}
				})
			}
		}
	}
}

// TestPrefixConformanceStructTies drives a struct element with an
// explicit coarse (non-injective) Config.Prefix hook through both
// in-process backends: equal-prefix groups spanning several distinct
// keys plus payload-carrying ties must still reproduce the plain path
// byte for byte.
func TestPrefixConformanceStructTies(t *testing.T) {
	type rec struct {
		K uint64
		V int
	}
	recLess := func(a, b rec) bool { return a.K < b.K }
	hook := func(e rec) uint64 { return e.K >> 3 }

	const p, perPE = 5, 300
	rng := rand.New(rand.NewSource(21))
	locals := make([][]rec, p)
	v := 0
	for rank := range locals {
		loc := make([]rec, perPE)
		for i := range loc {
			loc[i] = rec{K: uint64(rng.Intn(40)), V: v}
			v++
		}
		locals[rank] = loc
	}

	backends := []struct {
		name string
		run  func(fn func(c Communicator))
	}{
		{"sim", func(fn func(c Communicator)) {
			New(p).Run(func(pe *PE) { fn(World(pe)) })
		}},
		{"native", func(fn func(c Communicator)) {
			NewNative(p).Run(fn)
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			run := func(cfg Config) [][]rec {
				outs := make([][]rec, p)
				b.run(func(c Communicator) {
					outs[c.Rank()], _ = AMSSort(c, append([]rec(nil), locals[c.Rank()]...), recLess, cfg)
				})
				return outs
			}
			plain := run(Config{Levels: 2, Seed: 17, NoPrefix: true})
			prefixed := run(Config{Levels: 2, Seed: 17, Prefix: hook})
			if !reflect.DeepEqual(plain, prefixed) {
				t.Fatalf("coarse struct prefix path diverges from plain comparator path")
			}
		})
	}
}

// TestTCPPrefixStructSingleProcess pins the Config.Prefix hook on the
// TCP backend's public API (the multi-process prefix coverage rides in
// TestTCPConformanceMultiProcess, whose AMS/RLM cases run prefix-on and
// whose AMS-noprefix case runs prefix-off).
func TestTCPPrefixStructSingleProcess(t *testing.T) {
	type tcpRec struct {
		K uint64
		V int
	}
	recLess := func(a, b tcpRec) bool { return a.K < b.K }
	cl, err := NewTCP(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := []tcpRec{{9, 0}, {1, 1}, {9, 2}, {4, 3}, {1, 4}}
	var out []tcpRec
	if _, err := cl.Run(func(c Communicator) {
		out, _ = AMSSort(c, append([]tcpRec(nil), in...), recLess,
			Config{Levels: 1, Seed: 3, Prefix: func(e tcpRec) uint64 { return e.K >> 2 }})
	}); err != nil {
		t.Fatal(err)
	}
	want := []tcpRec{{1, 1}, {1, 4}, {4, 3}, {9, 0}, {9, 2}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("single-rank TCP prefix sort: %v, want %v", out, want)
	}
}
