package transform

import (
	"fmt"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// A codingFn describes how one recoded categorical column with k levels
// expands into derived columns: it returns the number of derived columns,
// their type, and the encoder mapping a level (1..k) to its vector.
type codingFn func(k int) (n int, t row.Type, encode func(level int64) (row.Row, error), err error)

// dummyCoding is the paper's §2.2 dummy coding (one-hot / one-of-K): a
// column with K levels becomes K binary columns, level i setting the i-th.
func dummyCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 1 {
		return 0, 0, nil, fmt.Errorf("dummy coding needs at least 1 level, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k)
		for i := range out {
			out[i] = row.Int(0)
		}
		out[level-1] = row.Int(1)
		return out, nil
	}
	return k, row.TypeInt, encode, nil
}

// effectCoding produces K-1 columns: level i < K sets the i-th column to 1;
// the reference level K sets every column to -1.
func effectCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 2 {
		return 0, 0, nil, fmt.Errorf("effect coding needs at least 2 levels, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k-1)
		for i := range out {
			if level == int64(k) {
				out[i] = row.Int(-1)
			} else if int64(i) == level-1 {
				out[i] = row.Int(1)
			} else {
				out[i] = row.Int(0)
			}
		}
		return out, nil
	}
	return k - 1, row.TypeInt, encode, nil
}

// orthogonalCoding produces K-1 (difference/Helmert) contrast columns:
// contrast j compares level j+1 against the mean of levels 1..j, so the
// columns are pairwise orthogonal.
func orthogonalCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 2 {
		return 0, 0, nil, fmt.Errorf("orthogonal coding needs at least 2 levels, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k-1)
		for j := 1; j < k; j++ {
			switch {
			case level <= int64(j):
				out[j-1] = row.Float(-1)
			case level == int64(j)+1:
				out[j-1] = row.Float(float64(j))
			default:
				out[j-1] = row.Float(0)
			}
		}
		return out, nil
	}
	return k - 1, row.TypeFloat, encode, nil
}

// codingSelects renders coding c of one recoded column as the recode
// join's select items: one fixed CASE over the level v per derived column
// name_1..name_n, cell for cell the vectors dummyCoding, effectCoding and
// orthogonalCoding build. No level outside 1..k reaches it, and no NULL:
// v is the recodeval of the inner join's match in the map, which holds
// exactly the levels 1..k.
func codingSelects(c Coding, v, name string, k int) ([]string, error) {
	n, err := CodedWidth(c, k)
	if err != nil {
		return nil, fmt.Errorf("transform: column %q: %w", name, err)
	}
	lit := func(f float64) string { return (&sqlengine.Lit{V: row.Float(f)}).String() }
	out := make([]string, n)
	for i := 1; i <= n; i++ {
		var arms string
		switch c {
		case CodingDummy:
			arms = fmt.Sprintf("WHEN %s = %d THEN 1 ELSE 0", v, i)
		case CodingEffect:
			arms = fmt.Sprintf("WHEN %[1]s = %[2]d THEN -1 WHEN %[1]s = %[3]d THEN 1 ELSE 0", v, k, i)
		case CodingOrthogonal:
			arms = fmt.Sprintf("WHEN %[1]s <= %[2]d THEN %[3]s WHEN %[1]s = %[4]d THEN %[5]s ELSE %[6]s",
				v, i, lit(-1), i+1, lit(float64(i)), lit(0))
		default:
			return nil, fmt.Errorf("transform: unknown coding %d", c)
		}
		out[i-1] = fmt.Sprintf("CASE %s END AS %s_%d", arms, name, i)
	}
	return out, nil
}

// CodedWidth returns how many derived columns a coding family produces for
// a categorical column with k levels.
func CodedWidth(c Coding, k int) (int, error) {
	switch c {
	case CodingDummy:
		n, _, _, err := dummyCoding(k)
		return n, err
	case CodingEffect:
		n, _, _, err := effectCoding(k)
		return n, err
	case CodingOrthogonal:
		n, _, _, err := orthogonalCoding(k)
		return n, err
	default:
		return 1, nil
	}
}
