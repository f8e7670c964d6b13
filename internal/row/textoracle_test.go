package row

import (
	"fmt"
	"strings"
)

// The row-at-a-time text codec: a field splitter, a decoder through
// Value.Coerce and a string encoder. Product code reads the format only
// through DecodeLineInto and writes it only through AppendLine; these are
// the independent oracle both are held to.

// EncodeField renders one value as a text-format field.
func EncodeField(v Value) string {
	if v.Null {
		return ""
	}
	s := v.String()
	if v.Kind == TypeString && needsQuoting(s) {
		return string(appendQuoted(nil, s))
	}
	return s
}

// EncodeLine renders a row as one text-format line (without newline).
func EncodeLine(r Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(EncodeField(v))
	}
	return b.String()
}

// SplitLine splits one text-format line into raw fields, honouring quoting.
// The returned quoted flags report whether each field was quoted (a quoted
// empty field is the empty string; an unquoted one is NULL).
func SplitLine(line string) (fields []string, quoted []bool, err error) {
	i := 0
	for {
		if i >= len(line) {
			// Trailing empty field (line ends with separator or is empty).
			fields = append(fields, "")
			quoted = append(quoted, false)
			return fields, quoted, nil
		}
		if line[i] == '"' {
			var b strings.Builder
			i++
			for {
				if i >= len(line) {
					return nil, nil, fmt.Errorf("row: unterminated quote in line %q", line)
				}
				if line[i] == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				if line[i] == '\\' {
					if i+1 >= len(line) {
						return nil, nil, fmt.Errorf("row: dangling escape in line %q", line)
					}
					switch line[i+1] {
					case '\\':
						b.WriteByte('\\')
					case 'n':
						b.WriteByte('\n')
					default:
						return nil, nil, fmt.Errorf("row: bad escape \\%c in line %q", line[i+1], line)
					}
					i += 2
					continue
				}
				b.WriteByte(line[i])
				i++
			}
			fields = append(fields, b.String())
			quoted = append(quoted, true)
			if i >= len(line) {
				return fields, quoted, nil
			}
			if line[i] != ',' {
				return nil, nil, fmt.Errorf("row: garbage after closing quote in line %q", line)
			}
			i++
			continue
		}
		j := strings.IndexByte(line[i:], ',')
		if j < 0 {
			fields = append(fields, line[i:])
			quoted = append(quoted, false)
			return fields, quoted, nil
		}
		fields = append(fields, line[i:i+j])
		quoted = append(quoted, false)
		i += j + 1
	}
}

// DecodeLine parses one text-format line into a row conforming to schema.
func DecodeLine(line string, s Schema) (Row, error) {
	fields, quoted, err := SplitLine(line)
	if err != nil {
		return nil, err
	}
	if len(fields) != s.Len() {
		return nil, fmt.Errorf("row: line has %d fields, schema has %d: %q", len(fields), s.Len(), line)
	}
	out := make(Row, len(fields))
	for i, f := range fields {
		if f == "" && !quoted[i] {
			out[i] = NullOf(s.Cols[i].Type)
			continue
		}
		v, err := String_(f).Coerce(s.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("row: column %q: %w", s.Cols[i].Name, err)
		}
		out[i] = v
	}
	return out, nil
}
