package testbed

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The canonical JSON spelling behind Request.Fingerprint and
// Request.ContentSeed. The monitor-noise seed is defined over
// encoding/json's bytes for the request, so this appender emits exactly
// those bytes — struct field order, tag names and omitempty; null for
// nil pointers, slices and interfaces; json's float and string forms —
// but walks the cached codecPlan instead of re-deriving the type on
// every call, and appends into a caller's buffer. FuzzFingerprintJSON
// checks it against json.Marshal byte for byte, and
// TestFingerprintPlanCoverage fails on any type in the request tree the
// appender does not spell (maps, embedded structs, float32, custom
// marshalers, tag options other than omitempty), so a future field
// cannot shift seeds silently.

// requestType is the fingerprinted type.
var requestType = reflect.TypeOf(Request{})

// jsonField derives a struct field's JSON spelling: its `,"name":` key
// (the leading comma is dropped for the first field written) and its
// omitempty flag.
func jsonField(f reflect.StructField) (key []byte, omitEmpty bool) {
	name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
	if name == "" {
		name = f.Name
	}
	key = append(appendJSONString([]byte{','}, name), ':')
	return key, opts == "omitempty"
}

// appendJSON appends the encoding/json spelling of rv, whose plan is p.
func appendJSON(buf []byte, p *codecPlan, rv reflect.Value) ([]byte, error) {
	switch p.kind {
	case reflect.Bool:
		return strconv.AppendBool(buf, rv.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, rv.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(buf, rv.Uint(), 10), nil
	case reflect.Float64:
		return appendJSONFloat(buf, rv.Float())
	case reflect.String:
		return appendJSONString(buf, rv.String()), nil
	case reflect.Slice:
		if rv.IsNil() {
			return append(buf, "null"...), nil
		}
		if p.bytes {
			break
		}
		buf = append(buf, '[')
		var err error
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendJSON(buf, p.elem, rv.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(buf, ']'), nil
	case reflect.Pointer:
		if rv.IsNil() {
			return append(buf, "null"...), nil
		}
		return appendJSON(buf, p.elem, rv.Elem())
	case reflect.Interface:
		if rv.IsNil() {
			return append(buf, "null"...), nil
		}
	case reflect.Struct:
		buf = append(buf, '{')
		first := true
		var err error
		for _, f := range p.fields {
			fv := rv.Field(f.index)
			if f.omitEmpty && jsonEmpty(fv) {
				continue
			}
			key := f.key
			if first {
				key, first = key[1:], false
			}
			if buf, err = appendJSON(append(buf, key...), f.plan, fv); err != nil {
				return nil, err
			}
		}
		return append(buf, '}'), nil
	}
	return nil, fmt.Errorf("json: unsupported value of type %s", p.typ)
}

// jsonEmpty is encoding/json's omitempty test. Unlike
// reflect.Value.IsZero, -0 is empty and a struct never is.
func jsonEmpty(rv reflect.Value) bool {
	switch rv.Kind() {
	case reflect.Bool:
		return !rv.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return rv.Uint() == 0
	case reflect.Float64:
		return rv.Float() == 0
	case reflect.String, reflect.Slice:
		return rv.Len() == 0
	case reflect.Pointer, reflect.Interface:
		return rv.IsNil()
	}
	return false
}

// appendJSONFloat spells a float64 as encoding/json does: 'f' form,
// 'e' below 1e-6 and from 1e21 with a two-digit negative exponent
// trimmed to one (e-07 → e-7), and an error on NaN and ±Inf.
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	// Integers below 2^53 are exact, and their shortest 'f' spelling is
	// their integer digits; -0 spells "-0" and takes the general path.
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(buf, int64(f), 10), nil
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
		return buf, nil
	}
	return strconv.AppendFloat(buf, f, 'f', -1, 64), nil
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped in a
// string with HTML escaping on: printable, and none of " \ < > &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune("\"\\<>&", rune(b))
	}
	return safe
}()

// appendJSONString appends s quoted as encoding/json quotes it: short
// escapes for " \ \b \f \n \r \t, \u00XX for other control bytes and
// for < > &, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// written as \ufffd. The short \b and \f are Go 1.22's spelling; Go 1.21
// wrote \u0008 and \u000c, so on a 1.21 toolchain a string holding
// either byte gets a different fingerprint from json.Marshal's, and
// FuzzFingerprintJSON's seed corpus reports it.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(append(buf, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}
