// Package jsonenc appends JSON scalars to a byte slice exactly as
// encoding/json prints them, for the two encoders that write results
// without reflection: the /v1 result documents (internal/jobs) and the
// stored result files (internal/jobs/store). Both formats predate these
// encoders and are pinned byte for byte, so every rule here is
// encoding/json's, not a choice; jobs.FuzzResultEncoding compares the
// output with the standard library's on every input it generates.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string the way json.Marshal does, HTML
// escaping on: '"' and '\' take a backslash; \b \f \n \r \t their short
// forms; every other byte below 0x20 and '<', '>', '&' become \u00XX;
// U+2028 and U+2029 become \u2028 and \u2029; a byte that is not valid
// UTF-8 becomes \ufffd; everything else is copied. A string of plain
// ASCII is one scan and one copy.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Finite reports whether f has a JSON form. encoding/json refuses NaN and
// +-Inf with an UnsupportedValueError; callers of AppendFloat check first
// and report the field.
func Finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// AppendFloat appends a finite f the way json.Marshal prints a float64:
// the shortest decimal that round-trips, in 'f' form unless the exponent
// is below -6 or at least 21, then in 'e' form with a two-digit exponent's
// leading zero dropped (1e-07 becomes 1e-7). Negative zero is "-0".
func AppendFloat(dst []byte, f float64) []byte {
	if f == 0 && !math.Signbit(f) { // most floats of a stored result: a gate entry's Float and Energy
		return append(dst, '0')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
