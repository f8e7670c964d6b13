package row

import (
	"fmt"
	"strconv"
)

// The text table format used on the simulated DFS is a line-oriented,
// comma-separated format with CSV-style quoting:
//
//   - fields are separated by ','
//   - a field containing ',' '"' '\\' or '\n' is wrapped in double quotes;
//     inside quotes, '"' doubles to '""', backslash escapes to '\\\\', and a
//     newline escapes to the two characters '\\n' — an encoded line therefore
//     never contains a physical newline, so files stay line-splittable
//   - NULL encodes as the unquoted empty field; the empty *string* encodes
//     as "" (a quoted empty field), keeping the two distinguishable
//
// This mirrors the "text format on HDFS" storage the paper's experiments
// use for both input tables.

// needsQuoting reports whether a VARCHAR field must be quoted: it is
// empty (which unquoted would read back as NULL) or holds a byte the
// format escapes or splits on. It takes a string or a vector's bytes and
// allocates nothing.
func needsQuoting[S string | []byte](s S) bool {
	if len(s) == 0 {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\n', '\\':
			return true
		}
	}
	return false
}

// appendQuoted appends s as a quoted field: the format's escape rules.
func appendQuoted[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			dst = append(dst, '"', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return append(dst, '"')
}

// appendField is the text format's one field encoder: AppendLine and
// AppendLines write every field through it. NULL is the empty field;
// BIGINT, DOUBLE and BOOLEAN take Value.String's strconv spellings,
// formatted straight into dst; a VARCHAR field is s, quoted when
// needsQuoting says so (v's own string is not read).
func appendField[S string | []byte](dst []byte, v Value, s S) []byte {
	switch {
	case v.Null:
		return dst
	case v.Kind == TypeInt:
		return strconv.AppendInt(dst, v.i, 10)
	case v.Kind == TypeFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case v.Kind == TypeBool:
		return strconv.AppendBool(dst, v.b)
	case needsQuoting(s):
		return appendQuoted(dst, s)
	default:
		return append(dst, s...)
	}
}

// AppendLine appends the encoded row plus a trailing newline to dst and
// returns the extended slice. A warm buffer makes it allocation-free.
func AppendLine(dst []byte, r Row) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendField(dst, v, v.s)
	}
	return append(dst, '\n')
}

// AppendLines appends the batch's live rows to dst, in order, each as the
// line AppendLine writes for it. Cells are read straight from the typed
// vectors, VARCHARs as views of their slab, so no row is materialized and
// a warm buffer makes it allocation-free.
func AppendLines(dst []byte, b *ColBatch) []byte {
	for si, n := 0, b.Len(); si < n; si++ {
		p := b.SelPos(si)
		for c := range b.cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = b.cols[c].appendText(dst, p)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendText appends slot p as one text field: its fixed-width payload
// goes to appendField in a Value, a VARCHAR's as the slab's bytes.
func (v *Vector) appendText(dst []byte, p int) []byte {
	c := Value{Kind: v.typ, Null: v.Null(p)}
	var s []byte
	if !c.Null {
		switch v.typ {
		case TypeInt:
			c.i = v.Ints[p]
		case TypeFloat:
			c.f = v.Floats[p]
		case TypeBool:
			c.b = v.Bools[p]
		default:
			s = v.Bytes(p)
		}
	}
	return appendField(dst, c, s)
}

// DecodeLineInto is the text format's decoder: it parses one line straight
// off its bytes and appends it as one row of dst, which must be shaped like
// s. The line is walked once; field bytes are viewed in place and copied
// exactly once, into a VARCHAR column's slab. A NULL is the unquoted empty
// field; any other field coerces to its column's type as Value.Coerce
// would from a string. A failed call leaves dst at its prior row count
// with every vector the same length.
func DecodeLineInto(dst *ColBatch, line []byte, s Schema) error {
	if err := dst.Conforms(s); err != nil {
		return err
	}
	return dst.AppendTextLine(line, s)
}

// AppendTextLine is DecodeLineInto without the shape check, for a reader
// that has shaped b like s itself: it checks once per batch, not once per
// line.
func (b *ColBatch) AppendTextLine(line []byte, s Schema) error {
	if err := decodeLineInto(b, line, s); err != nil {
		for c := range b.cols {
			b.cols[c].truncate(b.n) // drop the cells the failed row did append
		}
		return err
	}
	b.n++
	return nil
}

func decodeLineInto(dst *ColBatch, line []byte, s Schema) error {
	i := 0
	for c := 0; ; c++ {
		if c == len(s.Cols) {
			return fmt.Errorf("row: line has more than the schema's %d fields: %q", len(s.Cols), line)
		}
		col, vec := s.Cols[c], &dst.cols[c]
		var err error
		if i < len(line) && line[i] == '"' {
			// Quoted: find the closing quote, validating escapes on the way.
			start := i + 1
			j, escaped := start, false
		scan:
			for {
				switch {
				case j >= len(line):
					return fmt.Errorf("row: unterminated quote in line %q", line)
				case line[j] == '"' && (j+1 >= len(line) || line[j+1] != '"'):
					break scan
				case line[j] == '\\' && j+1 >= len(line):
					return fmt.Errorf("row: dangling escape in line %q", line)
				case line[j] == '\\' && line[j+1] != '\\' && line[j+1] != 'n':
					return fmt.Errorf("row: bad escape \\%c in line %q", line[j+1], line)
				case line[j] == '"' || line[j] == '\\':
					escaped = true
					j += 2
				default:
					j++
				}
			}
			i = j + 1
			if i < len(line) && line[i] != ',' {
				return fmt.Errorf("row: garbage after closing quote in line %q", line)
			}
			switch {
			case !escaped:
				err = vec.appendField(line[start:j])
			case col.Type == TypeString:
				vec.appendUnescaped(line[start:j])
			default:
				// An escape decodes to '"', '\\' or '\n', which no number or
				// boolean spelling contains.
				err = fmt.Errorf("row: cannot coerce %q to %s", line[start:j], col.Type)
			}
		} else {
			// Plain BIGINT and DOUBLE spellings parse in the pass that finds
			// their end; anything else rewinds to a byte loop (fields are
			// short: IndexByte's call costs more) and appendField.
			j, ok := i, false
			switch col.Type {
			case TypeInt:
				j, ok = scanInt(vec, line, i)
			case TypeFloat:
				j, ok = scanFloat(vec, line, i)
			}
			if !ok {
				for j = i; j < len(line) && line[j] != ','; j++ {
				}
				if j == i {
					vec.AppendNull()
				} else {
					err = vec.appendField(line[i:j])
				}
			}
			i = j
		}
		if err != nil {
			return fmt.Errorf("row: column %q: %w", col.Name, err)
		}
		if i >= len(line) {
			if c+1 != len(s.Cols) {
				return fmt.Errorf("row: line has %d fields, schema has %d: %q", c+1, len(s.Cols), line)
			}
			return nil
		}
		i++ // the separator; a line ending on it has one more, empty, field
	}
}

// appendField parses one non-NULL field (already unquoted and free of
// escapes) as the vector's type and appends it — Coerce's string
// conversions, without the string.
func (v *Vector) appendField(f []byte) error {
	switch v.typ {
	case TypeInt:
		// As for DOUBLE below, the conversion to string does not escape.
		x, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return fmt.Errorf("row: cannot coerce %q to BIGINT: %w", f, err)
		}
		v.AppendInt(x)
	case TypeFloat:
		// strconv copies its input into the errors it returns, so this
		// conversion does not escape and short fields never reach the heap.
		x, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return fmt.Errorf("row: cannot coerce %q to DOUBLE: %w", f, err)
		}
		v.AppendFloat(x)
	case TypeBool:
		var lower [5]byte // the longest spelling
		n := copy(lower[:], f)
		for i, c := range lower[:n] {
			if 'A' <= c && c <= 'Z' {
				lower[i] = c + 'a' - 'A'
			}
		}
		x, ok := boolSpellings[string(lower[:n])]
		if !ok || n < len(f) {
			return fmt.Errorf("row: cannot coerce %s to %s", TypeString, TypeBool)
		}
		v.AppendBool(x)
	default:
		v.AppendBytes(f)
	}
	return nil
}

// scanDigits accumulates the decimal digits at line[j:] onto m and returns
// the sum and the end of the run; past 19 digits m wraps, so callers bound
// the run's length.
func scanDigits(line []byte, j int, m uint64) (uint64, int) {
	for ; j < len(line); j++ {
		d := line[j] - '0'
		if d > 9 {
			break
		}
		m = m*10 + uint64(d)
	}
	return m, j
}

// scanInt appends the field at line[i:] and returns its end if it is an
// optional '-' and 1–18 digits (which cannot overflow) ending at ',' or the
// line's end. Otherwise it appends nothing and reports false.
func scanInt(v *Vector, line []byte, i int) (int, bool) {
	j := i
	if j < len(line) && line[j] == '-' {
		j++
	}
	m, e := scanDigits(line, j, 0)
	if e == j || e-j > 18 || e < len(line) && line[e] != ',' {
		return i, false
	}
	x := int64(m)
	if line[i] == '-' {
		x = -x
	}
	v.AppendInt(x)
	return e, true
}

// exactPow10 holds the powers of ten a float64 represents exactly that
// scanFloat divides by.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanFloat is scanInt for DOUBLE: [-]digits[.digits] with 1–15 digits in
// all and no exponent. The value is ±m / 10^frac with m < 2^53 and 10^frac
// both exact, so the one IEEE division is correctly rounded and gives
// strconv.ParseFloat's bits (Clinger's fast path).
func scanFloat(v *Vector, line []byte, i int) (int, bool) {
	j := i
	if j < len(line) && line[j] == '-' {
		j++
	}
	m, e := scanDigits(line, j, 0)
	digits, frac := e-j, 0
	if e < len(line) && line[e] == '.' {
		f := e + 1
		m, e = scanDigits(line, f, m)
		frac = e - f
	}
	if digits+frac == 0 || digits+frac > 15 || e < len(line) && line[e] != ',' {
		return i, false
	}
	x := float64(m) / exactPow10[frac]
	if line[i] == '-' {
		x = -x
	}
	v.AppendFloat(x)
	return e, true
}

// appendUnescaped appends a VARCHAR slot from the inside of a quoted field
// whose escapes ("" \\ \n) have been validated, decoding them straight into
// the slab.
func (v *Vector) appendUnescaped(f []byte) {
	for i := 0; i < len(f); i++ {
		c := f[i]
		if c == '"' || c == '\\' {
			i++
			if c == '\\' && f[i] == 'n' {
				c = '\n'
			}
		}
		v.bytes = append(v.bytes, c)
	}
	v.offs = append(v.offs, uint32(len(v.bytes)))
	v.n++
}
