package row

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// scanSchemas is the fixed schema set FuzzTextScan selects from: every
// type, one to six columns, each type in first, middle and last position.
var scanSchemas = []Schema{
	MustSchema(Column{"i", TypeInt}),
	MustSchema(Column{"f", TypeFloat}),
	MustSchema(Column{"s", TypeString}),
	MustSchema(Column{"b", TypeBool}),
	MustSchema(Column{"i", TypeInt}, Column{"s", TypeString}),
	MustSchema(Column{"s", TypeString}, Column{"f", TypeFloat}, Column{"b", TypeBool}),
	MustSchema(Column{"id", TypeInt}, Column{"amount", TypeFloat}, Column{"name", TypeString}, Column{"flag", TypeBool}),
	MustSchema(Column{"b", TypeBool}, Column{"s", TypeString}, Column{"t", TypeString}, Column{"i", TypeInt}, Column{"f", TypeFloat}),
	MustSchema(Column{"cartid", TypeInt}, Column{"userid", TypeInt}, Column{"amount", TypeFloat},
		Column{"nitems", TypeInt}, Column{"year", TypeInt}, Column{"abandoned", TypeString}),
}

// sameCell is exact cell identity: NULL and "" distinct, floats by bit
// pattern (so -0 != 0 and NaN == NaN).
func sameCell(a, b Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	if a.Kind == TypeFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a.Equal(b)
}

// checkTextScan holds DecodeLineInto to its oracle on one line: it fails
// exactly when DecodeLine fails; on success the appended row equals the
// oracle's cell by cell; on failure the batch is as it was — same row
// count, every vector that long, the rows before it intact.
func checkTextScan(t *testing.T, line []byte, s Schema) {
	t.Helper()
	prior := make(Row, s.Len())
	for i, c := range s.Cols {
		prior[i] = NullOf(c.Type)
		if i%2 == 0 {
			switch c.Type {
			case TypeInt:
				prior[i] = Int(42)
			case TypeFloat:
				prior[i] = Float(-0.5)
			case TypeString:
				prior[i] = String_(`p"q`)
			case TypeBool:
				prior[i] = Bool(true)
			}
		}
	}
	b := NewColBatch(SchemaTypes(s))
	b.AppendRow(prior)

	want, wantErr := DecodeLine(string(line), s)
	err := DecodeLineInto(b, line, s)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("line %q schema %s: DecodeLineInto err = %v, DecodeLine err = %v", line, s, err, wantErr)
	}
	rows := 2
	if err != nil {
		rows = 1
	}
	if b.FullLen() != rows || b.Len() != rows {
		t.Fatalf("line %q: batch has %d rows (err %v), want %d", line, b.FullLen(), err, rows)
	}
	for c := 0; c < b.NumCols(); c++ {
		if n := b.Col(c).Len(); n != rows {
			t.Fatalf("line %q: column %d has %d slots after err %v, want %d", line, c, n, err, rows)
		}
	}
	got := b.Rows(nil)
	for c := range prior {
		if !sameCell(got[0][c], prior[c]) {
			t.Fatalf("line %q: prior row column %d disturbed: %v, want %v", line, c, got[0][c], prior[c])
		}
	}
	if err != nil {
		// The rolled-back batch must take the next row as if nothing happened.
		b.AppendRow(prior)
		if again := b.Rows(nil); !sameCell(again[1][0], prior[0]) || b.Col(b.NumCols()-1).Len() != 2 {
			t.Fatalf("line %q: batch unusable after rollback: %v", line, again)
		}
		return
	}
	for c := range want {
		if !sameCell(got[1][c], want[c]) {
			t.Fatalf("line %q schema %s column %d: got %#v want %#v", line, s, c, got[1][c], want[c])
		}
	}
}

// textScanSeeds has one input (at least) per branch of the parser; the
// schema selector indexes scanSchemas.
var textScanSeeds = []struct {
	line string
	sel  byte
}{
	{`7,2.5,alice,true`, 6},
	{`7,2.5,"unterminated,true`, 6},       // unterminated quote
	{`1,2.5,"x\`, 6},                      // dangling escape
	{`1,2.5,"a\tb",true`, 6},              // bad escape
	{`1,2.5,"x"y,true`, 6},                // garbage after closing quote
	{`1,2.5,x`, 6},                        // field count -1
	{`1,2.5,x,true,extra`, 6},             // field count +1
	{`1,2.5,x,true,`, 6},                  // trailing separator
	{`1,2.5,x,`, 6},                       // trailing separator = NULL last field
	{`,,,`, 6},                            // all NULL
	{``, 0},                               // empty line, one column: NULL
	{``, 4},                               // empty line, two columns
	{`"say ""hi""",1.5,true`, 5},          // "" inside quotes
	{`"back\\slash and\nnewline",0,f`, 5}, // \\ and \n
	{`"",2,no`, 5},                        // empty string, not NULL
	{`,2,no`, 5},                          // NULL string
	{`mid"quote\raw,2,no`, 5},             // unquoted field keeps quote and backslash
	{`"12",x`, 4},                         // quoted number
	{`"1""2",x`, 4},                       // escape inside a quoted number
	{`"",x`, 4},                           // quoted empty is not a number
	{`1234567890123456789`, 0},            // 19 digits: past the fast path
	{`12345678901234567890`, 0},           // 20 digits: overflows
	{`999999999999999999`, 0},             // 18 digits: the fast path's edge
	{`-999999999999999999`, 0},            //
	{`9223372036854775807`, 0},            // MaxInt64
	{`9223372036854775808`, 0},            // MaxInt64 + 1
	{`-9223372036854775808`, 0},           // MinInt64
	{`-9223372036854775809`, 0},           //
	{`+5`, 0},                             // explicit plus
	{`-0`, 0},                             //
	{`-`, 0},                              // sign alone
	{` 5`, 0},                             // leading space
	{`5 `, 0},                             //
	{`1_000`, 0},                          //
	{`0x10`, 0},                           //
	{`1e309`, 1},                          // out of range
	{`-1e309`, 1},                         //
	{`0x1p-2`, 1},                         // hex float
	{`nan`, 1},                            //
	{`-Inf`, 1},                           //
	{`-0`, 1},                             // negative zero keeps its sign bit
	{`4.9e-324`, 1},                       // smallest denormal
	{`1.7976931348623157e308`, 1},         // MaxFloat64
	{`1_0.5`, 1},                          //
	{`.5`, 1},                             //
	{`5.`, 1},                             //
	{`1e`, 1},                             //
	{`TRUE`, 3}, {`yes`, 3}, {`2`, 3},     // boolean spellings, and not one
	{`False`, 3}, {`T`, 3}, {`f`, 3}, {`0`, 3}, {`1`, 3}, {`NO`, 3},
	{`truer`, 3}, {`"true"`, 3}, {`"t\\"`, 3}, {"K", 3},
	{`true,"a,b","",9,1e3`, 7},   // separator inside quotes
	{`1,2,3.5,4,2014,yes`, 8},    // the carts shape
	{`1,2,3.5,4,2014,"y,es"`, 8}, //
	{`1,2,3.5,4,2014,`, 8},       //
	// The branch audit's additions: one seed per decoder branch the list
	// above reached only in combination.
	{`"a""b"`, 2},   // "" alone
	{`"a\\b"`, 2},   // \\ alone
	{`"a\nb"`, 2},   // \n alone
	{`"ab\`, 2},     // dangling escape as the line's last byte
	{`"a\"b"`, 2},   // \" is a bad escape
	{`"a"b`, 2},     // garbage after the last field's closing quote
	{`"a"`, 2},      // quoted field, alone
	{`a"b`, 2},      // unquoted field with a quote inside
	{`7`, 4},        // too few fields, unquoted
	{`"7"`, 4},      // too few fields, quoted
	{`7,"x",`, 4},   // too many after a quoted field
	{`007`, 0},      // BIGINT fast path, leading zeros
	{`-0012`, 0},    //
	{`+0012`, 0},    // strconv path with a sign the fast path refuses
	{`1.5`, 0},      // a DOUBLE spelling is not a BIGINT
	{`NaN`, 1},      //
	{`+Inf`, 1},     //
	{`inf`, 1},      //
	{`Infinity`, 1}, //
	{`+0`, 1},       //
	{`-0.0`, 1},     //
	{`"1\\5"`, 1},   // an escape inside a quoted DOUBLE
	{`"2.5"`, 1},    // a quoted DOUBLE
	{`true`, 3},     // each BOOLEAN spelling in its plain case
	{`t`, 3},        //
	{`false`, 3},    //
	{`no`, 3},       //
	{`YES`, 3},      //
	{`falsey`, 3},   // a spelling with bytes past the longest one
	{`"no"`, 3},     // quoted, no escape
	{`,`, 3},        // too many: NULL then NULL
	// The typed one-pass scan's edges, inside carts-shaped lines: DOUBLE
	// spellings at and past the exact path's 15 digits, numeric prefixes
	// followed by junk (the scan must rewind), and BIGINT runs of 18 and 19
	// digits ended by a separator.
	{`1,2,123456789.012345,4,2014,yes`, 8},       // 15 digits: exact path
	{`1,2,999999999999999,4,2014,yes`, 8},        // 15 digits, no point
	{`1,2,.123456789012345,4,2014,yes`, 8},       // 15 digits, all fraction
	{`1,2,1234567890.123456,4,2014,yes`, 8},      // 16 digits: strconv
	{`1,2,967.1563043378493,4,2014,yes`, 8},      // 16 digits, m > 2^53: one division would round twice
	{`1,2,9007199254740993,4,2014,yes`, 8},       // 2^53+1: strconv rounds
	{`1,2,007.50,4,2014,yes`, 8},                 //
	{`1,2,5.,4,2014,yes`, 8},                     //
	{`1,2,.5,4,2014,yes`, 8},                     //
	{`1,2,-.5,4,2014,yes`, 8},                    //
	{`1,2,-0.0,4,2014,yes`, 8},                   //
	{`1,2,.,4,2014,yes`, 8},                      // a point alone
	{`1,2,-,4,2014,yes`, 8},                      // a sign alone
	{`1,2,12x,4,2014,yes`, 8},                    //
	{`1,2,1.5e3,4,2014,yes`, 8},                  //
	{`1,2,1.5.2,4,2014,yes`, 8},                  //
	{`1,2,--1,4,2014,yes`, 8},                    //
	{`1,2,3.5,12x,2014,yes`, 8},                  // the same in BIGINT columns
	{`1,2,3.5,1.5,2014,yes`, 8},                  //
	{`1,2,3.5,--1,2014,yes`, 8},                  //
	{`1,2,3.5,4,2014x`, 8},                       // junk ends the line
	{`999999999999999999,2,3.5,4,2014,yes`, 8},   // 18 digits: fast path
	{`-999999999999999999,2,3.5,4,2014,yes`, 8},  //
	{`9223372036854775807,2,3.5,4,2014,yes`, 8},  // 19 digits: strconv
	{`9223372036854775808,2,3.5,4,2014,yes`, 8},  // 19 digits, overflows
	{`1,-9223372036854775808,3.5,4,2014,yes`, 8}, //
}

func TestDecodeLineIntoSeeds(t *testing.T) {
	for _, sd := range textScanSeeds {
		checkTextScan(t, []byte(sd.line), scanSchemas[int(sd.sel)%len(scanSchemas)])
	}
}

// TestDecodeLineIntoMatchesDecodeLine drives the two parsers with encoded
// random rows (NULL-heavy, quoted, escaped) and with byte-level mutations
// of them, which reach the error branches.
func TestDecodeLineIntoMatchesDecodeLine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const junk = `",\n x0-+.e`
	for iter := 0; iter < 4000; iter++ {
		s := scanSchemas[rng.Intn(len(scanSchemas))]
		r := make(Row, s.Len())
		for i, c := range s.Cols {
			r[i] = NullOf(c.Type)
			for rng.Intn(3) > 0 { // a third stay NULL
				if v := genValue(rng); v.Kind == c.Type {
					r[i] = v
					break
				}
			}
		}
		line := []byte(EncodeLine(r))
		checkTextScan(t, line, s)
		if len(line) > 0 {
			for m := rng.Intn(3); m >= 0; m-- {
				line[rng.Intn(len(line))] = junk[rng.Intn(len(junk))]
			}
			checkTextScan(t, line[:rng.Intn(len(line)+1)], s)
			checkTextScan(t, line, s)
		}
	}
}

func TestDecodeLineIntoRejectsMisshapenBatch(t *testing.T) {
	s := scanSchemas[6]
	b := NewColBatch([]Type{TypeInt, TypeFloat})
	if err := DecodeLineInto(b, []byte(`7,2.5,alice,true`), s); err == nil || b.FullLen() != 0 {
		t.Errorf("batch of another shape: err = %v, rows = %d", err, b.FullLen())
	}
}

// The scan's inner loop: an unquoted line into a warm batch allocates
// nothing — no string per line, no slice per field, no boxed value —
// whether its numbers take the typed scan or fall back to strconv.
func TestDecodeLineIntoAllocatesNothingWarm(t *testing.T) {
	doubles := MustSchema(Column{"id", TypeInt}, Column{"a", TypeFloat}, Column{"b", TypeFloat},
		Column{"c", TypeFloat}, Column{"d", TypeFloat})
	for _, tc := range []struct {
		line string
		s    Schema
	}{
		{`123456,4242,1234.56,3,2014,yes`, scanSchemas[8]},
		{`7,1234.56,-0.25,007.50,99999.9999`, doubles},   // the typed scan
		{`7,1e3,2.5E-3,1234567890.123456,-Inf`, doubles}, // strconv
	} {
		line, types := []byte(tc.line), SchemaTypes(tc.s)
		b := NewColBatch(types)
		fill := func() {
			b.Reset(types)
			for i := 0; i < DefaultBatchSize; i++ {
				if err := DecodeLineInto(b, line, tc.s); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill()
		if n := testing.AllocsPerRun(20, fill); n != 0 {
			t.Errorf("%d lines %q into a warm batch: %v allocs, want 0", DefaultBatchSize, line, n)
		}
	}
}

// BenchmarkDecodeLineInto decodes 1 024 carts lines shaped as
// internal/datagen writes them (sequential cartid, log-normal amount to the
// cent, 1–12 items, three years, Yes/No) into one warm batch.
func BenchmarkDecodeLineInto(b *testing.B) {
	s := scanSchemas[8]
	rng := rand.New(rand.NewSource(7))
	lines := make([][]byte, DefaultBatchSize)
	for i := range lines {
		abandoned := "No"
		if rng.Intn(3) == 0 {
			abandoned = "Yes"
		}
		amount := math.Round(math.Exp(rng.NormFloat64()*0.9+4.0)*100) / 100
		r := Row{Int(int64(i + 1)), Int(int64(1 + i/100)), Float(amount),
			Int(int64(1 + rng.Intn(12))), Int(int64(2012 + rng.Intn(3))), String_(abandoned)}
		enc := AppendLine(nil, r)
		lines[i] = enc[:len(enc)-1]
	}
	types := SchemaTypes(s)
	batch := NewColBatch(types)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch.Reset(types)
		for _, line := range lines {
			if err := DecodeLineInto(batch, line, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// checkRoundTrip holds AppendLine to DecodeLineInto: a row the decoder
// accepts, written back by AppendLine, decodes to the same cells, bit for
// bit, except that every NaN reads back as the one NaN ParseFloat returns.
// AppendLines, encoding the decoded batch from its vectors, must write
// AppendLine's bytes.
func checkRoundTrip(t *testing.T, line []byte, s Schema) {
	t.Helper()
	types := SchemaTypes(s)
	b := NewColBatch(types)
	if DecodeLineInto(b, line, s) != nil {
		return
	}
	r := b.RowAt(0, nil)
	enc := AppendLine(nil, r)
	if fromVectors := AppendLines(nil, b); !bytes.Equal(fromVectors, enc) {
		t.Fatalf("line %q: AppendLines wrote %q, AppendLine %q", line, fromVectors, enc)
	}
	back := NewColBatch(types)
	if err := DecodeLineInto(back, enc[:len(enc)-1], s); err != nil {
		t.Fatalf("line %q: AppendLine wrote %q, which does not decode: %v", line, enc, err)
	}
	got := back.RowAt(0, nil)
	for c := range r {
		bothNaN := r[c].Kind == TypeFloat && !r[c].Null && !got[c].Null && math.IsNaN(r[c].f) && math.IsNaN(got[c].f)
		if !bothNaN && !sameCell(got[c], r[c]) {
			t.Fatalf("line %q via %q column %d: got %#v want %#v", line, enc, c, got[c], r[c])
		}
	}
}

// FuzzTextScan holds the columnar text parser to DecodeLine on arbitrary
// bytes (see checkTextScan for the contract), and AppendLine to it on
// every line it accepts (checkRoundTrip).
func FuzzTextScan(f *testing.F) {
	for _, sd := range textScanSeeds {
		f.Add([]byte(sd.line), sd.sel)
	}
	f.Fuzz(func(t *testing.T, line []byte, schemaSel byte) {
		s := scanSchemas[int(schemaSel)%len(scanSchemas)]
		checkTextScan(t, line, s)
		checkRoundTrip(t, line, s)
	})
}
