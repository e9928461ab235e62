// Package wire is the typed binary codec of the TCP backend
// (internal/netcomm): it turns the payload values the sorting algorithms
// hand to Communicator.Send — element slices, tagged sample slices,
// splitter vectors, count/prefix arrays, delivery descriptors — into
// self-describing, length-prefixed bytes and back.
//
// Every concrete payload type is registered once (Register / the
// RegisterWire helpers of the algorithm packages); registration records
// the type under a stable wire name (its Go type string) and compiles an
// encoder/decoder pair for it by walking its structure with reflection —
// scalars, strings, slices, arrays, pointers, and structs (including
// unexported fields) are supported. Element types the structural codec
// cannot handle (or that need a custom layout) plug in through the
// Encoder hook, which user code reaches via Config.Encoder.
//
// Bulk data: slices whose element type is "memmove-safe" — uint64,
// int64, float64, and arrays/padding-free structs composed of those,
// i.e. types whose little-endian wire encoding coincides with their
// in-memory layout — move as single raw blocks instead of per-element
// walks. On top of that, the transport-facing entry points support a
// zero-copy discipline (DESIGN.md §10):
//
//   - AppendPayloadVec emits the encoding as a segment list in which
//     large bulk blocks are *views of the payload itself* (no staging
//     copy; the transport writes them with vectored I/O), and — in
//     aligned mode — pads each bulk block so its bytes land 8-aligned
//     relative to the frame body.
//   - DecodePayloadOpt, in aliasing mode, decodes aligned bulk blocks
//     as sub-slices of the input buffer (no copy, no allocation) and
//     reports that the payload now aliases src so the transport can
//     hand the buffer off instead of reusing it. Non-aliased bulk
//     decodes carve exactly-sized copies out of a per-Reader bump
//     arena (blocks are abandoned, never recycled, so payloads stay
//     safe to retain indefinitely).
//
// Messages are self-describing: the first time a type crosses a stream
// its wire name is sent inline and both ends intern it under a small
// dense id; subsequent messages carry only the id. A Writer/Reader pair
// therefore needs no out-of-band schema negotiation beyond both
// processes having registered the same types — which they have, because
// every process runs the same algorithm and registration happens at the
// algorithm entry points before any message is sent.
//
// The format uses little-endian fixed 8-byte encodings for int64/uint64
// (the bulk data) and varints for lengths, tags, and small integers.
// It is not self-delimiting at the value level; framing (length
// prefixes) is the transport's job.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// Encoder is the custom element-codec hook: a fallback for user element
// types the structural codec cannot handle (types containing pointers
// into shared state, maps, interfaces, or platform-dependent layout).
// Register it for the element type with RegisterEncoder, or let the
// sorters do it from Config.Encoder. Append and Decode must be inverses
// and deterministic: conformance across backends requires identical
// bytes for identical values.
type Encoder interface {
	// Append serializes elem (always of the registered type) onto dst.
	Append(dst []byte, elem any) []byte
	// Decode parses one element off src and returns it together with
	// the remaining bytes. The returned element must NOT retain src —
	// transports reuse the frame buffer, so an aliasing sub-slice would
	// silently mutate after delivery; copy any bytes the element keeps.
	// (The built-in structural codec only returns views of src in the
	// transport's explicit aliasing mode, never through a hook.)
	Decode(src []byte) (elem any, rest []byte, err error)
}

// encEnv is the per-call state threaded through the compiled encoders:
// segment collection for vectored output, and the running stream offset
// for bulk alignment. The zero value is plain single-buffer mode.
type encEnv struct {
	// segs collects completed segments in vectored mode (nil otherwise).
	// Bulk blocks >= minSpan are appended as views of the payload.
	segs    [][]byte
	minSpan int
	// off is the stream offset of the current working segment's first
	// byte, relative to the alignment origin (may be negative when the
	// caller's dst prefix precedes the origin).
	off int
	vec bool
	// aligned inserts a pad before every non-empty bulk block so its
	// bytes start 8-aligned relative to the alignment origin.
	aligned bool
}

// bulk appends one raw block, applying alignment padding and the
// vectored-span policy. Returns the new working segment.
func (e *encEnv) bulk(dst []byte, raw []byte) []byte {
	if e.aligned && len(raw) > 0 {
		// One pad-count byte, then 0..7 zeros, so raw lands 8-aligned.
		off := e.off + len(dst) + 1
		pad := ((-off)%8 + 8) % 8
		dst = append(dst, byte(pad))
		for i := 0; i < pad; i++ {
			dst = append(dst, 0)
		}
	}
	if e.vec && len(raw) >= e.minSpan {
		e.off += len(dst) + len(raw)
		e.segs = append(e.segs, dst, raw)
		return nil // fresh working segment
	}
	return append(dst, raw...)
}

// decEnv is the per-call state threaded through the compiled decoders.
// The zero value (with a nil reader) is plain copying mode.
type decEnv struct {
	// aligned: bulk blocks carry the pad emitted by an aligned encoder.
	aligned bool
	// alias: bulk decodes may return views of src instead of copies.
	alias bool
	// aliased reports that at least one view of src was returned.
	aliased bool
	// r supplies the bump arena for copied bulk decodes (nil: exact
	// allocations).
	r *Reader
}

// carve returns n bytes of 8-aligned, never-recycled memory: from the
// reader's bump arena when available, an exact allocation otherwise.
func (e *decEnv) carve(n int) []byte {
	if e.r != nil {
		return e.r.carve(n)
	}
	return make([]byte, n)
}

// encFunc appends v's encoding to the working segment. v is addressable
// and writable (unexported fields are laundered by the struct walker).
type encFunc func(e *encEnv, dst []byte, v reflect.Value) []byte

// decFunc decodes one value off src into the addressable, settable v.
type decFunc func(e *decEnv, src []byte, v reflect.Value) ([]byte, error)

// entry is one registered payload type. Entries are created once and
// then only mutated (never replaced in the registry): Readers intern
// *entry pointers per stream, so replacement would desynchronize a
// stream's decoder from the sender's encoder.
type entry struct {
	t    reflect.Type
	name string

	mu       sync.Mutex
	custom   Encoder // non-nil: the type encodes through the hook
	compiled bool    // a codec embedding this type's format exists

	once sync.Once
	enc  encFunc
	dec  decFunc
	err  error
}

// codec compiles the entry's encoder/decoder pair on first use. Lazy
// compilation keeps registration infallible: a type that can never be
// serialized only errors if a serializing backend actually sends it.
func (e *entry) codec() (encFunc, decFunc, error) {
	e.once.Do(func() {
		e.mu.Lock()
		e.compiled = true
		custom := e.custom
		e.mu.Unlock()
		if custom != nil {
			// Hooked types use their hook at the top level too, so a
			// bare element payload and a nested one share one format.
			e.enc, e.dec, e.err = buildCustom(custom)
			return
		}
		e.enc, e.dec, e.err = build(e.t)
	})
	return e.enc, e.dec, e.err
}

// markCompiled records that a compiled codec (this type's own, or one
// of a type embedding it) has fixed this type's wire format, and
// returns the hook in force. After this point the format must never
// change.
func (e *entry) markCompiled() Encoder {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compiled = true
	return e.custom
}

// setCustom installs the hook codec. The first hook wins; installing
// one after the structural format was already compiled into use would
// silently desynchronize peers, so it panics instead.
func (e *entry) setCustom(enc Encoder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.custom != nil {
		return // keep the first hook: codecs may already embed it
	}
	if e.compiled {
		panic(fmt.Sprintf("wire: Encoder for %v registered after its structural codec was already used — set Config.Encoder before the first serialized sort of this element type", e.t))
	}
	e.custom = enc
}

// hooked reports whether a custom Encoder is installed for the type.
func (e *entry) hooked() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.custom != nil
}

var registry struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*entry
	byName map[string]*entry
}

func init() {
	registry.byType = make(map[reflect.Type]*entry)
	registry.byName = make(map[string]*entry)

	registerBasics[bool]()
	registerBasics[int]()
	registerBasics[int8]()
	registerBasics[int16]()
	registerBasics[int32]()
	registerBasics[int64]()
	registerBasics[uint]()
	registerBasics[uint8]()
	registerBasics[uint16]()
	registerBasics[uint32]()
	registerBasics[uint64]()
	registerBasics[float32]()
	registerBasics[float64]()
	registerBasics[string]()
}

func registerBasics[T any]() {
	Register[T]()
	Register[[]T]()
}

// Register makes T usable as a top-level payload on serializing
// backends, keyed by its wire name (the Go type string). Registration is
// idempotent and cheap (no codec is compiled until first use), so
// algorithm entry points call it unconditionally on every invocation.
func Register[T any]() {
	RegisterType(reflect.TypeOf((*T)(nil)).Elem())
}

// RegisterType is Register for a reflect.Type.
func RegisterType(t reflect.Type) {
	registerInternal(t, nil)
}

// RegisterEncoder registers T with a custom element codec. The hook
// replaces the structural codec for T everywhere — as a top-level
// payload and nested inside slices and structs (tagged samples, delivery
// chunks) alike.
func RegisterEncoder[T any](enc Encoder) {
	if enc == nil {
		panic("wire: RegisterEncoder with nil Encoder")
	}
	registerInternal(reflect.TypeOf((*T)(nil)).Elem(), enc)
}

func registerInternal(t reflect.Type, custom Encoder) {
	name := t.String()
	registry.mu.RLock()
	e := registry.byName[name]
	registry.mu.RUnlock()
	if e == nil {
		registry.mu.Lock()
		if e = registry.byName[name]; e == nil {
			e = &entry{t: t, name: name}
			registry.byType[t] = e
			registry.byName[name] = e
		}
		registry.mu.Unlock()
	}
	if e.t != t {
		panic(fmt.Sprintf("wire: name collision: %q maps to both %v and %v", name, e.t, t))
	}
	if custom != nil {
		e.setCustom(custom)
	}
}

func lookupType(t reflect.Type) *entry {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byType[t]
}

func lookupName(name string) *entry {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byName[name]
}

// ---------------------------------------------------------------------
// Codec compilation.

// launder returns a fully usable view of a struct field value:
// unexported fields come out of reflect read-only, so re-derive the
// value from its address. The parent is always addressable here.
func launder(fv reflect.Value) reflect.Value {
	if fv.CanSet() {
		return fv
	}
	return reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
}

// build compiles the encoder/decoder pair for t.
func build(t reflect.Type) (encFunc, decFunc, error) {
	return buildRec(t, make(map[reflect.Type]bool), true)
}

// buildRec walks t's structure. top marks the registered root: nested
// occurrences of registered hook types defer to their hook, so user
// element types embedded in tagged/chunk wrappers round-trip through the
// same custom codec as top-level ones.
func buildRec(t reflect.Type, inProgress map[reflect.Type]bool, top bool) (encFunc, decFunc, error) {
	if !top {
		// A nested type contributes its format to this codec: register
		// it if needed and pin it (hook or structural), so a later hook
		// registration for it fails loudly instead of desynchronizing
		// peers whose composite codecs already embedded the structural
		// format.
		e := lookupType(t)
		if e == nil {
			registerInternal(t, nil)
			e = lookupType(t)
		}
		if hook := e.markCompiled(); hook != nil {
			return buildCustom(hook)
		}
	}
	if inProgress[t] {
		return nil, nil, fmt.Errorf("wire: recursive type %v is not supported", t)
	}
	inProgress[t] = true
	defer delete(inProgress, t)

	switch t.Kind() {
	case reflect.Bool:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(dst, 1)
			}
			return append(dst, 0)
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 1 {
				return nil, errTruncated(t)
			}
			v.SetBool(src[0] != 0)
			return src[1:], nil
		}
		return enc, dec, nil

	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return appendZigzag(dst, v.Int())
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			x, rest, err := readZigzag(src, t)
			if err != nil {
				return nil, err
			}
			v.SetInt(x)
			return rest, nil
		}
		return enc, dec, nil

	case reflect.Int64:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 8 {
				return nil, errTruncated(t)
			}
			v.SetInt(int64(binary.LittleEndian.Uint64(src)))
			return src[8:], nil
		}
		return enc, dec, nil

	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return binary.AppendUvarint(dst, v.Uint())
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			x, rest, err := readUvarint(src, t)
			if err != nil {
				return nil, err
			}
			v.SetUint(x)
			return rest, nil
		}
		return enc, dec, nil

	case reflect.Uint64:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(dst, v.Uint())
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 8 {
				return nil, errTruncated(t)
			}
			v.SetUint(binary.LittleEndian.Uint64(src))
			return src[8:], nil
		}
		return enc, dec, nil

	case reflect.Float32:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.Float())))
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 4 {
				return nil, errTruncated(t)
			}
			v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(src))))
			return src[4:], nil
		}
		return enc, dec, nil

	case reflect.Float64:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 8 {
				return nil, errTruncated(t)
			}
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(src)))
			return src[8:], nil
		}
		return enc, dec, nil

	case reflect.String:
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			s := v.String()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			return append(dst, s...)
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			n, rest, err := readUvarint(src, t)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated(t)
			}
			v.SetString(string(rest[:n]))
			return rest[n:], nil
		}
		return enc, dec, nil

	case reflect.Slice:
		return buildSlice(t, inProgress)

	case reflect.Array:
		elemEnc, elemDec, err := buildRec(t.Elem(), inProgress, false)
		if err != nil {
			return nil, nil, err
		}
		n := t.Len()
		enc := func(e *encEnv, dst []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				dst = elemEnc(e, dst, v.Index(i))
			}
			return dst
		}
		dec := func(e *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			var err error
			for i := 0; i < n; i++ {
				if src, err = elemDec(e, src, v.Index(i)); err != nil {
					return nil, err
				}
			}
			return src, nil
		}
		return enc, dec, nil

	case reflect.Pointer:
		elemEnc, elemDec, err := buildRec(t.Elem(), inProgress, false)
		if err != nil {
			return nil, nil, err
		}
		elemT := t.Elem()
		enc := func(e *encEnv, dst []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(dst, 0)
			}
			return elemEnc(e, append(dst, 1), v.Elem())
		}
		dec := func(e *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			if len(src) < 1 {
				return nil, errTruncated(t)
			}
			tag := src[0]
			src = src[1:]
			if tag == 0 {
				v.SetZero()
				return src, nil
			}
			p := reflect.New(elemT)
			src, err := elemDec(e, src, p.Elem())
			if err != nil {
				return nil, err
			}
			v.Set(p)
			return src, nil
		}
		return enc, dec, nil

	case reflect.Struct:
		type field struct {
			idx int
			enc encFunc
			dec decFunc
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			fe, fd, err := buildRec(t.Field(i).Type, inProgress, false)
			if err != nil {
				return nil, nil, fmt.Errorf("%v field %s: %w", t, t.Field(i).Name, err)
			}
			fields = append(fields, field{idx: i, enc: fe, dec: fd})
		}
		enc := func(e *encEnv, dst []byte, v reflect.Value) []byte {
			for _, f := range fields {
				dst = f.enc(e, dst, launder(v.Field(f.idx)))
			}
			return dst
		}
		dec := func(e *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			var err error
			for _, f := range fields {
				if src, err = f.dec(e, src, launder(v.Field(f.idx))); err != nil {
					return nil, err
				}
			}
			return src, nil
		}
		return enc, dec, nil
	}
	return nil, nil, fmt.Errorf("wire: type %v (kind %v) is not serializable — register a wire.Encoder for the element type (Config.Encoder)", t, t.Kind())
}

// memmoveSize returns the element size of a memmove-safe type: one
// whose structural wire encoding (little-endian, fields in order, no
// length prefixes) is byte-identical to its in-memory layout on a
// little-endian host. Those are the 8-byte word scalars and any
// arrays/structs composed exclusively of them — all fields 8-byte, so
// the compiler inserts no padding. Returns 0 for everything else.
func memmoveSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Uint64, reflect.Int64, reflect.Float64:
		return 8
	case reflect.Array:
		if s := memmoveSize(t.Elem()); s > 0 {
			return s * t.Len()
		}
	case reflect.Struct:
		sum := 0
		for i := 0; i < t.NumField(); i++ {
			s := memmoveSize(t.Field(i).Type)
			if s == 0 {
				return 0
			}
			sum += s
		}
		// Paranoia: the bulk move is only valid if the in-memory size
		// matches the wire size exactly (no padding, no reordering —
		// both guaranteed for all-8-byte fields, but cheap to assert).
		if sum > 0 && int(t.Size()) == sum {
			return sum
		}
	}
	return 0
}

// hookedDeep reports whether t or any of its components has a custom
// Encoder installed — in which case the raw bulk move would bypass the
// hook's format. Components were pinned (markCompiled) by the caller's
// buildRec walk, so a later hook registration panics instead of
// silently diverging from this decision.
func hookedDeep(t reflect.Type) bool {
	if e := lookupType(t); e != nil && e.hooked() {
		return true
	}
	switch t.Kind() {
	case reflect.Array:
		return hookedDeep(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hookedDeep(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// buildSlice compiles a slice codec: uvarint(0) for nil, uvarint(len+1)
// then the elements otherwise (nil-ness is preserved exactly — some
// collectives distinguish nil from empty). Slices of memmove-safe
// elements ([]uint64, []int64, delivery chunk data, pair structs …)
// move as single raw blocks with optional alignment pads and zero-copy
// views; []byte keeps its dedicated raw-block format.
func buildSlice(t reflect.Type, inProgress map[reflect.Type]bool) (encFunc, decFunc, error) {
	if t == typByteSlice {
		enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
			s := *(*[]byte)(addrOf(v))
			if s == nil {
				return binary.AppendUvarint(dst, 0)
			}
			dst = binary.AppendUvarint(dst, uint64(len(s))+1)
			return append(dst, s...)
		}
		dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
			n, rest, err := sliceLen(src, t)
			if err != nil || n < 0 {
				v.SetZero()
				return rest, err
			}
			if len(rest) < n {
				return nil, errTruncated(t)
			}
			out := make([]byte, n)
			copy(out, rest)
			v.Set(reflect.ValueOf(out))
			return rest[n:], nil
		}
		return enc, dec, nil
	}

	elemEnc, elemDec, err := buildRec(t.Elem(), inProgress, false)
	if err != nil {
		return nil, nil, err
	}
	if size := memmoveSize(t.Elem()); size > 0 && !hookedDeep(t.Elem()) {
		enc, dec := bulkSliceCodec(t, size, elemDec)
		return enc, dec, nil
	}

	enc := func(e *encEnv, dst []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0)
		}
		n := v.Len()
		dst = binary.AppendUvarint(dst, uint64(n)+1)
		for i := 0; i < n; i++ {
			dst = elemEnc(e, dst, v.Index(i))
		}
		return dst
	}
	dec := func(e *decEnv, src []byte, v reflect.Value) ([]byte, error) {
		n, rest, err := sliceLen(src, t)
		if err != nil || n < 0 {
			v.SetZero()
			return rest, err
		}
		// Cap the up-front allocation: a corrupt length must not OOM.
		capHint := n
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		out := reflect.MakeSlice(t, 0, capHint)
		elem := reflect.New(t.Elem()).Elem()
		for i := 0; i < n; i++ {
			elem.SetZero()
			if rest, err = elemDec(e, rest, elem); err != nil {
				return nil, err
			}
			out = reflect.Append(out, elem)
		}
		v.Set(out)
		return rest, nil
	}
	return enc, dec, nil
}

// bulkSliceCodec returns the raw-block codec for a slice of memmove-safe
// elements. Wire format: uvarint(len+1), then — in aligned mode and for
// non-empty slices — one pad-count byte and 0..7 zeros so the block
// starts 8-aligned relative to the frame body, then len·size raw
// little-endian bytes. elemDec is the per-element structural decoder,
// used as the fallback on big-endian hosts (where raw bytes must be
// byte-shuffled, not memmoved).
func bulkSliceCodec(t reflect.Type, size int, elemDec decFunc) (encFunc, decFunc) {
	elemT := t.Elem()
	enc := func(e *encEnv, dst []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0)
		}
		n := v.Len()
		dst = binary.AppendUvarint(dst, uint64(n)+1)
		if n == 0 {
			return dst
		}
		if hostLE {
			return e.bulk(dst, rawView(v, n*size))
		}
		// Big-endian host: per-element encode produces the same bytes.
		// The pad discipline must match the LE decoder's expectations,
		// but aligned mode is only requested on LE hosts (the transport
		// checks HostLittleEndian), so no pad is emitted here.
		for i := 0; i < n; i++ {
			dst = appendBE(dst, v.Index(i))
		}
		return dst
	}
	dec := func(e *decEnv, src []byte, v reflect.Value) ([]byte, error) {
		n, rest, err := sliceLen(src, t)
		if err != nil || n < 0 {
			v.SetZero()
			return rest, err
		}
		if n == 0 {
			v.Set(reflect.MakeSlice(t, 0, 0)) // non-nil: nil-ness is encoded separately
			return rest, nil
		}
		if e.aligned {
			if len(rest) < 1 {
				return nil, errTruncated(t)
			}
			pad := int(rest[0])
			if pad > 7 || len(rest) < 1+pad {
				return nil, fmt.Errorf("wire: corrupt bulk pad decoding %v", t)
			}
			rest = rest[1+pad:]
		}
		need := n * size
		if n > maxSliceLen/size || len(rest) < need {
			return nil, errTruncated(t)
		}
		raw := rest[:need]
		// setView writes a raw-memory view into v, converting for named
		// slice types (SliceAt yields the unnamed []elem type).
		setView := func(p unsafe.Pointer) {
			s := reflect.SliceAt(elemT, p, n)
			if s.Type() != t {
				s = s.Convert(t)
			}
			v.Set(s)
		}
		switch {
		case hostLE && e.alias && uintptr(unsafe.Pointer(&raw[0]))%8 == 0:
			// Zero-copy: the decoded slice is a view of src. The caller
			// must hand the buffer off (Reader reports it via aliased).
			setView(unsafe.Pointer(&raw[0]))
			e.aliased = true
		case hostLE:
			buf := e.carve(need)
			copy(buf, raw)
			setView(unsafe.Pointer(&buf[0]))
		default:
			out := reflect.MakeSlice(t, n, n)
			s := raw
			var err error
			for i := 0; i < n; i++ {
				if s, err = elemDec(e, s, out.Index(i)); err != nil {
					return nil, err
				}
			}
			v.Set(out)
		}
		return rest[need:], nil
	}
	return enc, dec
}

// appendBE encodes one memmove-safe value field-by-field (the big-endian
// fallback of the bulk path; bytes match the LE raw block exactly).
func appendBE(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Uint64:
		return binary.LittleEndian.AppendUint64(dst, v.Uint())
	case reflect.Int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dst = appendBE(dst, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = appendBE(dst, launder(v.Field(i)))
		}
	}
	return dst
}

// rawView returns the first n bytes of v's backing array as a []byte
// (v is an addressable non-empty slice of pointer-free elements).
func rawView(v reflect.Value, n int) []byte {
	return unsafe.Slice((*byte)(v.UnsafePointer()), n)
}

func buildCustom(hook Encoder) (encFunc, decFunc, error) {
	enc := func(_ *encEnv, dst []byte, v reflect.Value) []byte {
		return hook.Append(dst, v.Interface())
	}
	dec := func(_ *decEnv, src []byte, v reflect.Value) ([]byte, error) {
		elem, rest, err := hook.Decode(src)
		if err != nil {
			return nil, err
		}
		v.Set(reflect.ValueOf(elem))
		return rest, nil
	}
	return enc, dec, nil
}

// addrOf returns the address of the (addressable) value's data.
func addrOf(v reflect.Value) unsafe.Pointer {
	return v.Addr().UnsafePointer()
}

// maxSliceLen bounds decoded slice lengths: no legitimate payload can
// carry more elements than a frame has bytes (the transport caps frames
// at 1 GiB), so anything larger is corruption and must error instead of
// attempting a huge allocation or overflowing length arithmetic.
const maxSliceLen = 1 << 31

// sliceLen reads a slice length prefix: -1 means nil.
func sliceLen(src []byte, t reflect.Type) (int, []byte, error) {
	n, rest, err := readUvarint(src, t)
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return -1, rest, nil
	}
	if n-1 > maxSliceLen {
		return 0, nil, fmt.Errorf("wire: corrupt length %d decoding %v", n-1, t)
	}
	return int(n - 1), rest, nil
}

func appendZigzag(dst []byte, x int64) []byte {
	return binary.AppendUvarint(dst, uint64(x<<1)^uint64(x>>63))
}

func readZigzag(src []byte, t reflect.Type) (int64, []byte, error) {
	u, rest, err := readUvarint(src, t)
	if err != nil {
		return 0, nil, err
	}
	return int64(u>>1) ^ -int64(u&1), rest, nil
}

func readUvarint(src []byte, t reflect.Type) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, errTruncated(t)
	}
	return v, src[n:], nil
}

func errTruncated(t reflect.Type) error {
	return fmt.Errorf("wire: truncated input decoding %v", t)
}

// ---------------------------------------------------------------------
// Bulk helpers (the []uint64/[]int64 fast-path building blocks, exported
// for the micro-benchmarks and kept as the canonical format reference).

// hostLE reports whether this machine is little-endian — the wire byte
// order — in which case the bulk blocks move with single memmoves (or
// zero-copy views) instead of per-word byte shuffles.
var hostLE = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// HostLittleEndian reports whether this host's memory layout matches
// the wire byte order. Transports use it to decide whether to request
// aligned (zero-copy capable) frame encodings.
func HostLittleEndian() bool { return hostLE }

// wordBytes views a word slice as its raw bytes (for the memmove fast
// paths; only valid on little-endian hosts).
func wordBytes[W uint64 | int64](s []W) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// AppendU64s appends the plain-mode slice codec encoding of s.
func AppendU64s(dst []byte, s []uint64) []byte {
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s))+1)
	if hostLE {
		return append(dst, wordBytes(s)...)
	}
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(s))...)
	for i, x := range s {
		binary.LittleEndian.PutUint64(dst[off+8*i:], x)
	}
	return dst
}

// AppendI64s appends the plain-mode slice codec encoding of s.
func AppendI64s(dst []byte, s []int64) []byte {
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s))+1)
	if hostLE {
		return append(dst, wordBytes(s)...)
	}
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(s))...)
	for i, x := range s {
		binary.LittleEndian.PutUint64(dst[off+8*i:], uint64(x))
	}
	return dst
}

var typByteSlice = reflect.TypeOf([]byte(nil))

// ---------------------------------------------------------------------
// Stream codec: per-stream type-name interning.

// Payload type references on the wire. Ids are assigned in first-use
// order per stream, identically on both ends.
const (
	refNil    = 0 // nil payload, no value bytes
	refInline = 1 // wire name string follows; id = next free id
	refBase   = 2 // first interned id
)

// Writer is the encoding half of one stream. Not safe for concurrent
// use; the transport owns one per connection.
type Writer struct {
	ids  map[reflect.Type]uint64
	next uint64
}

// NewWriter returns a Writer with an empty interning table.
func NewWriter() *Writer {
	return &Writer{ids: make(map[reflect.Type]uint64), next: refBase}
}

// appendRef appends the payload's type reference and returns its entry.
func (w *Writer) appendRef(dst []byte, t reflect.Type) ([]byte, *entry, error) {
	if id, ok := w.ids[t]; ok {
		return binary.AppendUvarint(dst, id), lookupType(t), nil
	}
	e := lookupType(t)
	if e == nil {
		return nil, nil, fmt.Errorf("wire: unregistered payload type %v — register it with wire.Register (or Config.Encoder for custom elements)", t)
	}
	w.ids[t] = w.next
	w.next++
	dst = binary.AppendUvarint(dst, refInline)
	dst = binary.AppendUvarint(dst, uint64(len(e.name)))
	dst = append(dst, e.name...)
	return dst, e, nil
}

// AppendPayload appends the self-describing plain-mode encoding of
// payload: one contiguous buffer, no alignment pads, no views.
func (w *Writer) AppendPayload(dst []byte, payload any) ([]byte, error) {
	if payload == nil {
		return binary.AppendUvarint(dst, refNil), nil
	}
	t := reflect.TypeOf(payload)
	dst, e, err := w.appendRef(dst, t)
	if err != nil {
		return nil, err
	}

	// Fast paths for the hottest payloads, bypassing reflection; the
	// bytes are identical to the structural codec's plain mode.
	switch p := payload.(type) {
	case []uint64:
		return AppendU64s(dst, p), nil
	case []int64:
		return AppendI64s(dst, p), nil
	case uint64:
		return binary.LittleEndian.AppendUint64(dst, p), nil
	case int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(p)), nil
	case int:
		return appendZigzag(dst, int64(p)), nil
	}

	enc, _, err := e.codec()
	if err != nil {
		return nil, err
	}
	rv := reflect.ValueOf(payload)
	// Top-level values from an interface are not addressable; the codec
	// needs addressability (unexported-field laundering), so copy the
	// header into a fresh addressable value.
	pv := reflect.New(t).Elem()
	pv.Set(rv)
	var env encEnv
	return enc(&env, dst, pv), nil
}

// VecOptions tunes AppendPayloadVec.
type VecOptions struct {
	// Aligned inserts pads so bulk blocks start 8-aligned relative to
	// the alignment origin (the frame body). Request it only on
	// little-endian hosts (HostLittleEndian) and record it in the frame
	// so the receiver parses the pads.
	Aligned bool
	// AlignBase is the length of the dst prefix that precedes the
	// alignment origin (the transport's frame length prefix).
	AlignBase int
	// MinSpan is the smallest bulk block emitted as a zero-copy view of
	// the payload; smaller blocks are copied into the working segment.
	// 0 disables vectored output entirely.
	MinSpan int
}

// AppendPayloadVec appends the self-describing encoding of payload as a
// segment list: segs[0] starts with dst's existing bytes, and bulk
// blocks of at least opt.MinSpan bytes appear as views of the payload
// itself — no staging copy; the transport writes the segments with
// vectored I/O. The payload must stay immutable until the write
// completes (the Communicator post-Send contract). The concatenation of
// the segments is byte-identical to what a single-buffer encode with
// the same alignment mode would produce.
func (w *Writer) AppendPayloadVec(dst []byte, payload any, opt VecOptions) ([][]byte, error) {
	if payload == nil {
		return [][]byte{binary.AppendUvarint(dst, refNil)}, nil
	}
	t := reflect.TypeOf(payload)
	dst, e, err := w.appendRef(dst, t)
	if err != nil {
		return nil, err
	}
	enc, _, err := e.codec()
	if err != nil {
		return nil, err
	}
	pv := reflect.New(t).Elem()
	pv.Set(reflect.ValueOf(payload))
	env := encEnv{
		vec:     opt.MinSpan > 0,
		minSpan: opt.MinSpan,
		aligned: opt.Aligned,
		off:     -opt.AlignBase,
	}
	last := enc(&env, dst, pv)
	if len(env.segs) == 0 {
		return [][]byte{last}, nil
	}
	if len(last) > 0 {
		return append(env.segs, last), nil
	}
	return env.segs, nil
}

// Reader is the decoding half of one stream. Not safe for concurrent
// use; the transport owns one per connection.
type Reader struct {
	entries []*entry
	// arena is the bump allocator for copied bulk decodes: carved
	// blocks are exactly sized, 8-aligned, and never reused — a
	// retained payload merely pins its block. Grow pre-sizes the arena
	// from the frame length so one frame's bulk decodes share one
	// allocation.
	arena []byte
}

// NewReader returns a Reader with an empty interning table.
func NewReader() *Reader {
	return &Reader{}
}

// arenaBlock is the minimum bump-arena block size (64 KiB), so streams
// of small payloads amortize allocations across many frames.
const arenaBlock = 1 << 16

// Grow ensures the arena can serve n more bytes from one contiguous
// block. Transports call it with the frame length before decoding a
// frame whose bulk data will be copied (not aliased), making the whole
// frame's chunk decodes carve from a single allocation.
func (r *Reader) Grow(n int) {
	if len(r.arena) < n {
		r.arena = make([]byte, max(n, arenaBlock))
	}
}

// carve returns n bytes of never-recycled memory, 8-aligned.
func (r *Reader) carve(n int) []byte {
	rounded := (n + 7) &^ 7
	if len(r.arena) < rounded {
		r.arena = make([]byte, max(rounded, arenaBlock))
	}
	out := r.arena[:n:n]
	r.arena = r.arena[rounded:]
	return out
}

// DecodeOptions tunes DecodePayloadOpt.
type DecodeOptions struct {
	// Aligned: the sender encoded with VecOptions.Aligned (bulk blocks
	// carry pads). Recorded per frame by the transport.
	Aligned bool
	// Alias permits bulk decodes to return views of src. The caller
	// must then treat src as owned by the decoded payload whenever
	// aliased comes back true (hand the buffer off, never reuse it).
	Alias bool
}

// DecodePayloadOpt decodes one self-describing payload off src and
// returns it with the remaining bytes. aliased reports whether any part
// of the payload is a view of src.
func (r *Reader) DecodePayloadOpt(src []byte, opt DecodeOptions) (payload any, rest []byte, aliased bool, err error) {
	ref, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, nil, false, fmt.Errorf("wire: truncated payload type reference")
	}
	src = src[n:]
	var e *entry
	switch {
	case ref == refNil:
		return nil, src, false, nil
	case ref == refInline:
		ln, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < ln {
			return nil, nil, false, fmt.Errorf("wire: truncated payload type name")
		}
		name := string(src[n : n+int(ln)])
		src = src[n+int(ln):]
		e = lookupName(name)
		if e == nil {
			return nil, nil, false, fmt.Errorf("wire: received unregistered type %q — the processes must register the same payload types", name)
		}
		r.entries = append(r.entries, e)
	default:
		idx := ref - refBase
		if idx >= uint64(len(r.entries)) {
			return nil, nil, false, fmt.Errorf("wire: payload references unknown interned type id %d", ref)
		}
		e = r.entries[idx]
	}

	_, dec, err := e.codec()
	if err != nil {
		return nil, nil, false, err
	}
	env := decEnv{aligned: opt.Aligned, alias: opt.Alias, r: r}
	pv := reflect.New(e.t).Elem()
	rest, err = dec(&env, src, pv)
	if err != nil {
		return nil, nil, false, err
	}
	return pv.Interface(), rest, env.aliased, nil
}

// DecodePayload decodes one self-describing plain-mode payload off src
// and returns it with the remaining bytes. The payload never aliases
// src (the mode chaos and the tests use; transports use
// DecodePayloadOpt with an explicit buffer-handoff discipline).
func (r *Reader) DecodePayload(src []byte) (any, []byte, error) {
	payload, rest, _, err := r.DecodePayloadOpt(src, DecodeOptions{})
	return payload, rest, err
}
