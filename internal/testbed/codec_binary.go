package testbed

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The compact binary codec for the hot frame types (WireBatch,
// WireBatchResult, WireResult, and everything they embed). The layout
// covers the exported fields in struct order — the same field set and
// order encoding/json uses — so the codec cannot drift from the wire
// structs: a field added to Request or Measurement is carried
// automatically, and the cross-codec property test
// (TestBinaryMatchesJSONDecode) pins binary-decode == JSON-decode for
// every wire type. Reflection runs once per Go type, not per value:
// the first encode or decode of a type builds its codecPlan (kind,
// exported-field indexes, element plans), which is cached for the life
// of the process, and every value then walks its plan.
//
// Layout, per value:
//
//	bool            1 byte (0/1)
//	int*            zigzag varint
//	uint*           uvarint
//	float64         8-byte little-endian IEEE 754 bits (exact — no
//	                formatting, so decoded values match JSON's
//	                shortest-round-trip floats bit for bit)
//	string, []byte  uvarint length + bytes
//	pointer, slice  presence byte (0 = nil) + contents (slices add a
//	                uvarint element count; nil and empty stay distinct,
//	                matching encoding/json's null vs [])
//	struct          fields in order, no names
//	map             uvarint length + canonical JSON bytes (maps have no
//	                deterministic binary order; stats.Sketch buckets ride
//	                as JSON, whose map-key sorting is deterministic)
//	interface       presence byte, nil only (process-local values such
//	                as path-loss models are rejected — Request.WireSafe
//	                gates them off the wire in the first place)
//
// Decoding is allocation-bounded: every length and element count is
// checked against the bytes actually remaining before anything is
// allocated — a slice of n elements is allocated only once n times the
// element's smallest encoding fits in what is left — so a hostile frame
// can cost at most a small multiple of its own size (FuzzBinaryFrame
// exercises this).

// errBinary indicates a malformed or unsupported binary encoding.
var errBinary = errors.New("testbed: bad binary encoding")

// codecPlan is the binary layout of one Go type.
type codecPlan struct {
	typ  reflect.Type
	kind reflect.Kind
	// fields are a struct's exported fields, in order.
	fields []planField
	// elem is a slice's or pointer's element plan; bytes marks []byte,
	// which is carried as one length-prefixed run.
	elem  *codecPlan
	bytes bool
	// minLen is the fewest bytes an encoded value of the type occupies;
	// it bounds how many slice elements the remaining bytes can hold.
	minLen int
}

// planField is one exported struct field: its index and its plan, and
// for the fingerprint appender its JSON spelling (jsonField).
type planField struct {
	index     int
	plan      *codecPlan
	key       []byte
	omitEmpty bool
}

// plans caches a codecPlan per reflect.Type. planMu serializes
// building, so a recursive type is built once and a plan is published
// only when every plan it reaches is complete.
var (
	plans  sync.Map
	planMu sync.Mutex
)

// planFor returns t's cached plan, building it on first use.
func planFor(t reflect.Type) *codecPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*codecPlan)
	}
	planMu.Lock()
	defer planMu.Unlock()
	building := map[reflect.Type]*codecPlan{}
	p := buildPlan(t, building)
	for bt, bp := range building {
		plans.Store(bt, bp)
	}
	return p
}

func buildPlan(t reflect.Type, building map[reflect.Type]*codecPlan) *codecPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*codecPlan)
	}
	if p, ok := building[t]; ok {
		return p // a recursive reference, reached only through a pointer, slice or map
	}
	p := &codecPlan{typ: t, kind: t.Kind(), minLen: 1}
	building[t] = p
	switch p.kind {
	case reflect.Float64:
		p.minLen = 8
	case reflect.Slice, reflect.Pointer:
		p.elem = buildPlan(t.Elem(), building)
		p.bytes = p.kind == reflect.Slice && t.Elem().Kind() == reflect.Uint8
	case reflect.Struct:
		p.minLen = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fp := buildPlan(f.Type, building)
			key, omitEmpty := jsonField(f)
			p.fields = append(p.fields, planField{index: i, plan: fp, key: key, omitEmpty: omitEmpty})
			p.minLen += fp.minLen
		}
	}
	return p
}

// EncodeBinary encodes v (a wire struct or pointer to one) in the
// compact binary codec.
func EncodeBinary(v any) ([]byte, error) {
	scratch := encodeBufs.Get().(*[]byte)
	buf, err := appendBinary((*scratch)[:0], v)
	var out []byte
	if err == nil {
		out = append([]byte(nil), buf...)
	}
	releaseEncodeBuf(scratch, buf)
	return out, err
}

// appendBinary appends v's binary encoding to dst.
func appendBinary(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("%w: nil value", errBinary)
		}
		rv = rv.Elem()
	}
	return binEncoder{}.append(dst, planFor(rv.Type()), rv)
}

// encodeBufs recycles the scratch buffers of EncodeBinary, of
// WriteBinaryFrame and of the request fingerprint, so an encoding grows
// in a warm buffer and is copied out, written or hashed once at its
// exact length.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledEncode = 64 << 10

// releaseEncodeBuf returns scratch to encodeBufs, keeping buf, the
// grown buffer taken from it. A buffer grown past maxPooledEncode by a
// rare large value is left to the collector rather than pinned in the
// pool.
func releaseEncodeBuf(scratch *[]byte, buf []byte) {
	if cap(buf) > maxPooledEncode {
		return
	}
	if cap(buf) > cap(*scratch) {
		*scratch = buf
	}
	encodeBufs.Put(scratch)
}

// DecodeBinary decodes a compact binary payload into v, which must be a
// non-nil pointer. Trailing garbage after a complete value is rejected.
func DecodeBinary(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("%w: decode target must be a non-nil pointer", errBinary)
	}
	d := &binDecoder{data: data}
	if err := d.value(planFor(rv.Type().Elem()), rv.Elem()); err != nil {
		return err
	}
	if d.off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", errBinary, len(data)-d.off)
	}
	return nil
}

// binEncoder appends values in the binary layout. finite makes NaN and
// ±Inf floats an error, as encoding/json does — the cache-key encoding
// uses it so a request that has no JSON fingerprint has no key either.
type binEncoder struct {
	finite bool
}

func (e binEncoder) append(buf []byte, p *codecPlan, rv reflect.Value) ([]byte, error) {
	switch p.kind {
	case reflect.Bool:
		if rv.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, rv.Uint()), nil
	case reflect.Float64:
		f := rv.Float()
		if e.finite && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return nil, fmt.Errorf("%w: unsupported float value %v", errBinary, f)
		}
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)), nil
	case reflect.String:
		s := rv.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...), nil
	case reflect.Slice:
		if rv.IsNil() {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		n := rv.Len()
		buf = binary.AppendUvarint(buf, uint64(n))
		if p.bytes {
			return append(buf, rv.Bytes()...), nil
		}
		var err error
		for i := 0; i < n; i++ {
			if buf, err = e.append(buf, p.elem, rv.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if rv.IsNil() {
			return append(buf, 0), nil
		}
		return e.append(append(buf, 1), p.elem, rv.Elem())
	case reflect.Struct:
		var err error
		for _, f := range p.fields {
			if buf, err = e.append(buf, f.plan, rv.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Map:
		blob, err := json.Marshal(rv.Interface())
		if err != nil {
			return nil, fmt.Errorf("%w: map field: %v", errBinary, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		return append(buf, blob...), nil
	case reflect.Interface:
		if !rv.IsNil() {
			return nil, fmt.Errorf("%w: non-nil interface field %s is process-local and cannot cross a worker boundary",
				errBinary, rv.Type())
		}
		return append(buf, 0), nil
	default:
		return nil, fmt.Errorf("%w: unsupported kind %s", errBinary, rv.Kind())
	}
}

type binDecoder struct {
	data []byte
	off  int
}

func (d *binDecoder) remaining() int { return len(d.data) - d.off }

func (d *binDecoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated", errBinary)
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *binDecoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", errBinary)
	}
	d.off += n
	return u, nil
}

func (d *binDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", errBinary)
	}
	d.off += n
	return v, nil
}

// length reads a uvarint length and bounds it by the remaining bytes, so
// a hostile declared length never drives an allocation larger than the
// input itself.
func (d *binDecoder) length() (int, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: declared length %d exceeds %d remaining bytes", errBinary, u, d.remaining())
	}
	return int(u), nil
}

func (d *binDecoder) take(n int) []byte {
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *binDecoder) value(p *codecPlan, rv reflect.Value) error {
	switch p.kind {
	case reflect.Bool:
		b, err := d.byte()
		if err != nil {
			return err
		}
		if b > 1 {
			return fmt.Errorf("%w: bad bool byte %d", errBinary, b)
		}
		rv.SetBool(b == 1)
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v, err := d.varint()
		if err != nil {
			return err
		}
		if rv.OverflowInt(v) {
			return fmt.Errorf("%w: %d overflows %s", errBinary, v, p.typ)
		}
		rv.SetInt(v)
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		if rv.OverflowUint(u) {
			return fmt.Errorf("%w: %d overflows %s", errBinary, u, p.typ)
		}
		rv.SetUint(u)
		return nil
	case reflect.Float64:
		if d.remaining() < 8 {
			return fmt.Errorf("%w: truncated float", errBinary)
		}
		rv.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.take(8))))
		return nil
	case reflect.String:
		n, err := d.length()
		if err != nil {
			return err
		}
		rv.SetString(string(d.take(n)))
		return nil
	case reflect.Slice:
		present, err := d.presence()
		if err != nil {
			return err
		}
		if !present {
			rv.SetZero()
			return nil
		}
		n, err := d.length()
		if err != nil {
			return err
		}
		if p.bytes {
			b := make([]byte, n)
			copy(b, d.take(n))
			rv.SetBytes(b)
			return nil
		}
		if p.elem.minLen > 0 && n > d.remaining()/p.elem.minLen {
			return fmt.Errorf("%w: %d elements cannot fit in %d remaining bytes", errBinary, n, d.remaining())
		}
		// Elements decode straight into the fresh slice's backing array.
		s := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n; i++ {
			if err := d.value(p.elem, s.Index(i)); err != nil {
				return err
			}
		}
		rv.Set(s)
		return nil
	case reflect.Pointer:
		present, err := d.presence()
		if err != nil {
			return err
		}
		if !present {
			rv.SetZero()
			return nil
		}
		ptr := reflect.New(p.elem.typ)
		if err := d.value(p.elem, ptr.Elem()); err != nil {
			return err
		}
		rv.Set(ptr)
		return nil
	case reflect.Struct:
		for _, f := range p.fields {
			if err := d.value(f.plan, rv.Field(f.index)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		n, err := d.length()
		if err != nil {
			return err
		}
		rv.SetZero() // json.Unmarshal merges into an existing map; decode must not
		if err := json.Unmarshal(d.take(n), rv.Addr().Interface()); err != nil {
			return fmt.Errorf("%w: map field: %v", errBinary, err)
		}
		return nil
	case reflect.Interface:
		b, err := d.byte()
		if err != nil {
			return err
		}
		if b != 0 {
			return fmt.Errorf("%w: non-nil interface field %s on the wire", errBinary, p.typ)
		}
		rv.SetZero()
		return nil
	default:
		return fmt.Errorf("%w: unsupported kind %s", errBinary, p.kind)
	}
}

// presence reads a pointer's or slice's presence byte.
func (d *binDecoder) presence() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: bad presence byte %d", errBinary, b)
	}
	return b == 1, nil
}
