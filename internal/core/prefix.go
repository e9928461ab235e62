package core

import "math"

// This file derives and validates the sorters' prefix hooks
// (Config.Prefix, or one derived from the element type; the kernels
// live in internal/seq). The normalization rules are the classic
// order-preserving bit tricks (DESIGN.md §11): unsigned integers are
// their own prefix, signed integers flip the sign bit, floats use the
// total-order bit flip with ±0 collapsed, and strings pack their first
// 8 bytes big-endian — non-injective, but never out of order.

// derivedPrefix returns the automatically derived natural-order prefix
// for element type E, or nil when E is not a supported ordered type,
// and whether it is exact: for the integer types equal prefixes mean
// equal bytes, so the keyed kernels may sort on it without the
// comparator (floats are not exact — ±0 share a prefix but differ in
// bytes — and strings keep only their first 8 bytes). The derivation
// assumes less is E's ascending natural order; a sort with any other
// comparator must supply its own Config.Prefix or set NoPrefix — and
// prefixGuard additionally cross-checks a bounded sample at sort entry,
// dropping a derived hook that contradicts less.
func derivedPrefix[E any]() (pf func(E) uint64, exact bool) {
	var fn any
	var zero E
	exact = true
	switch any(zero).(type) {
	case uint64:
		fn = func(x uint64) uint64 { return x }
	case uint:
		fn = func(x uint) uint64 { return uint64(x) }
	case uintptr:
		fn = func(x uintptr) uint64 { return uint64(x) }
	case uint32:
		fn = func(x uint32) uint64 { return uint64(x) }
	case uint16:
		fn = func(x uint16) uint64 { return uint64(x) }
	case uint8:
		fn = func(x uint8) uint64 { return uint64(x) }
	case int64:
		fn = func(x int64) uint64 { return signFlip(x) }
	case int:
		fn = func(x int) uint64 { return signFlip(int64(x)) }
	case int32:
		fn = func(x int32) uint64 { return signFlip(int64(x)) }
	case int16:
		fn = func(x int16) uint64 { return signFlip(int64(x)) }
	case int8:
		fn = func(x int8) uint64 { return signFlip(int64(x)) }
	case float64:
		fn, exact = floatPrefix, false
	case float32:
		// The float32→float64 conversion is exact, so the float64
		// normalization is order-preserving for float32 too.
		fn, exact = func(x float32) uint64 { return floatPrefix(float64(x)) }, false
	case string:
		fn, exact = stringPrefix, false
	default:
		return nil, false
	}
	pf, _ = fn.(func(E) uint64)
	return pf, exact
}

// signFlip maps int64 order onto uint64 order by flipping the sign bit.
func signFlip(x int64) uint64 { return uint64(x) ^ (1 << 63) }

// floatPrefix maps float64 order onto uint64 order: positive floats
// get their sign bit set, negative floats are bit-complemented (which
// reverses their magnitude order back to ascending). ±0 compare equal
// under <, so both map to +0's image — the two-sided prefix contract
// forbids splitting a comparator tie across prefixes. NaNs have no
// consistent order under < at all (the comparator itself is not a
// strict weak order then); they land above +Inf here.
func floatPrefix(x float64) uint64 {
	b := math.Float64bits(x)
	if b == 1<<63 { // -0 → +0
		b = 0
	}
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// stringPrefix packs the first 8 bytes big-endian, zero-padding short
// strings. Padding keeps order: a string precedes every proper
// extension of itself, and 0x00 is the smallest byte — so two strings
// with distinct packed prefixes compare exactly like the prefixes, and
// equal packs only ever join (never reorder) the pair.
func stringPrefix(s string) uint64 {
	var p uint64
	n := len(s)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		p |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return p
}

// splitterPrefixes extracts the sorted splitter keys' prefixes under pf
// for the uint64 classification path, or nil when pf is nil or the
// prefixes come out decreasing — possible only under a hook that
// violates the contract (the splitter keys are sorted), in which case
// the level falls back to the generic classifier.
func splitterPrefixes[E any](keys []E, pf func(E) uint64) []uint64 {
	if pf == nil {
		return nil
	}
	spfx := make([]uint64, len(keys))
	for i, k := range keys {
		spfx[i] = pf(k)
		if i > 0 && spfx[i] < spfx[i-1] {
			return nil
		}
	}
	return spfx
}

// prefixGuard cross-checks the prefix hook against less on a bounded
// sample of adjacent pairs of the local input. It only ever fails on a
// real contract violation (a strict prefix inequality the comparator
// does not confirm), so it never drops a valid hook — PEs deciding
// differently (each sees only its own data) is therefore harmless:
// under a valid hook every prefix decision is PE-local and
// output-identical either way.
func prefixGuard[E any](data []E, less func(a, b E) bool, pf func(E) uint64) bool {
	n := len(data) - 1
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		a, b := data[i], data[i+1]
		pa, pb := pf(a), pf(b)
		if pa < pb && !less(a, b) {
			return false
		}
		if pb < pa && !less(b, a) {
			return false
		}
	}
	return true
}
