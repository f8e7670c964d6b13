package row

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Two NaN payloads, one of them sign-negated: equal under the DOUBLE rule,
// different bits.
var (
	nanA = math.Float64frombits(0x7ff8000000000001)
	nanB = math.Float64frombits(0xfff8000000000123)
)

// randKeyValue draws a value across all four types, NULLs, ±0 and two NaN
// payloads included, from a byte-driven source so both quick.Check and the
// fuzzer can reuse it.
func randKeyValue(next func() byte) Value {
	switch next() % 12 {
	case 0:
		return Int(int64(next()) | int64(next())<<8 | int64(next())<<56)
	case 1:
		return Int(-int64(next()))
	case 2:
		return Float(float64(next()) / (1 + float64(next())))
	case 3:
		return Float(math.Inf(1))
	case 4:
		s := make([]byte, int(next())%7)
		for i := range s {
			s[i] = next() // arbitrary bytes, including 0x00 and tag bytes
		}
		return String_(string(s))
	case 5:
		return Bool(next()%2 == 0)
	case 6:
		if next()%2 == 0 {
			return Float(0)
		}
		return Float(math.Copysign(0, -1))
	case 7:
		return Float(nanA)
	case 8:
		return Float(nanB)
	default:
		return NullOf(Type(next() % 4))
	}
}

func randKeyRow(next func() byte, arity int) Row {
	r := make(Row, arity)
	for i := range r {
		r[i] = randKeyValue(next)
	}
	return r
}

func byteSource(seed int64) func() byte {
	rng := rand.New(rand.NewSource(seed))
	return func() byte { return byte(rng.Intn(256)) }
}

// keyRowsEqual is the grouping/DISTINCT notion of row equality the codec
// must reproduce: Value.Equal within each kind — NULLs of one type equal,
// DOUBLEs by the PostgreSQL rule (-0 = 0, NaN = NaN).
func keyRowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestKeyCodecCollisionFree: two rows of equal arity encode to the same
// bytes iff they are equal, and neither encoding is a proper prefix of
// the other (prefix-freedom at equal arity).
func TestKeyCodecCollisionFree(t *testing.T) {
	f := func(seed int64) bool {
		next := byteSource(seed)
		arity := 1 + int(next())%4
		a := randKeyRow(next, arity)
		b := randKeyRow(next, arity)
		ea := AppendKey(nil, a)
		eb := AppendKey(nil, b)
		if keyRowsEqual(a, b) != bytes.Equal(ea, eb) {
			return false
		}
		if !bytes.Equal(ea, eb) && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestKeyCodecAppendsInPlace: encoding reuses the caller's buffer without
// allocating when capacity suffices.
func TestKeyCodecAppendsInPlace(t *testing.T) {
	r := Row{Int(42), String_("hello"), NullOf(TypeFloat), Bool(true)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendKey(buf[:0], r)
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocated %.1f times per run with sufficient capacity", allocs)
	}
}

// TestKeyCodecNumericNormalization: the normalized form makes BIGINT n
// and DOUBLE n encode identically (the join-key semantics), while the
// exact form keeps them distinct (the GROUP BY / DISTINCT semantics).
func TestKeyCodecNumericNormalization(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, 1 << 40} {
		ni := AppendNormKeyValue(nil, Int(n))
		nf := AppendNormKeyValue(nil, Float(float64(n)))
		if !bytes.Equal(ni, nf) {
			t.Errorf("normalized BIGINT %d != DOUBLE %d: %x vs %x", n, n, ni, nf)
		}
		xi := AppendKeyValue(nil, Int(n))
		xf := AppendKeyValue(nil, Float(float64(n)))
		if bytes.Equal(xi, xf) {
			t.Errorf("exact BIGINT %d == DOUBLE %d; exact codec must distinguish types", n, n)
		}
	}
	// NULL BIGINT stays distinct from NULL DOUBLE even under normalization.
	if bytes.Equal(AppendNormKeyValue(nil, NullOf(TypeInt)), AppendNormKeyValue(nil, NullOf(TypeFloat))) {
		t.Error("normalized NULL BIGINT == NULL DOUBLE")
	}
}

// FuzzKeyCodec drives the collision/prefix properties from raw fuzz
// bytes: the input is split into a value stream generating two rows of
// equal arity.
func FuzzKeyCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 0, 4, 0, 0})                  // identical string values
	f.Add([]byte{6, 1, 6, 2, 6, 3, 6, 0})            // NULLs of mixed types
	f.Add([]byte("floats and ints and bools oh my")) // arbitrary
	f.Add([]byte{0, 7, 8})                           // two NaN payloads: one key
	f.Add([]byte{0, 6, 0, 6, 1})                     // +0 and -0: one key
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		arity := 1 + int(next())%3
		a := randKeyRow(next, arity)
		b := randKeyRow(next, arity)
		ea := AppendKey(nil, a)
		eb := AppendKey(nil, b)
		if keyRowsEqual(a, b) != bytes.Equal(ea, eb) {
			t.Fatalf("codec equality mismatch: rows %v / %v, keys %x / %x", a, b, ea, eb)
		}
		if !bytes.Equal(ea, eb) && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
			t.Fatalf("key of %v is a prefix of key of %v", a, b)
		}
	})
}

func TestHash64MatchesFNV1a(t *testing.T) {
	// Spot-check the inlined FNV-1a against known vectors.
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	}
	for _, c := range cases {
		if got := Hash64([]byte(c.in)); got != c.want {
			t.Errorf("Hash64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
