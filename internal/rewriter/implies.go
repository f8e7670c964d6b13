package rewriter

import (
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// Implies reports whether predicate p logically implies predicate q — the
// paper's "same as or logically stronger than" test (its example: a < 18 is
// logically stronger than a <= 20).
//
// The decision is sound but incomplete: it returns true only for cases it
// can prove. Non-simple predicates imply only their exact canonical twins.
func Implies(p, q Pred) bool {
	if p.Raw == q.Raw && p.Raw != "" {
		return true
	}
	if p.Column == "" || p.Column != q.Column {
		return false
	}
	// IN-list reasoning: p's satisfying set must be contained in q's.
	if p.In != nil || q.In != nil {
		return impliesIn(p, q)
	}
	if !p.Simple || !q.Simple {
		return false
	}
	pv, pok := litValue(p.Value)
	qv, qok := litValue(q.Value)
	if !pok || !qok || pv.Null || qv.Null || !exactMix(pv, qv) {
		return false
	}

	switch p.Op {
	case "=":
		// col = v implies any predicate v satisfies.
		return evalCmp(pv, q.Op, qv)
	case "<":
		switch q.Op {
		case "<":
			return cmp(pv, qv) <= 0 // col < a ⇒ col < b when a <= b
		case "<=":
			return cmp(pv, qv) <= 0
		case "<>":
			return cmp(pv, qv) <= 0 // everything below a excludes b >= a
		}
	case "<=":
		switch q.Op {
		case "<":
			return cmp(pv, qv) < 0 // col <= a ⇒ col < b when a < b
		case "<=":
			return cmp(pv, qv) <= 0
		case "<>":
			return cmp(pv, qv) < 0
		}
	case ">":
		switch q.Op {
		case ">":
			return cmp(pv, qv) >= 0
		case ">=":
			return cmp(pv, qv) >= 0
		case "<>":
			return cmp(pv, qv) >= 0
		}
	case ">=":
		switch q.Op {
		case ">":
			return cmp(pv, qv) > 0
		case ">=":
			return cmp(pv, qv) >= 0
		case "<>":
			return cmp(pv, qv) > 0
		}
	case "<>":
		return q.Op == "<>" && cmp(pv, qv) == 0
	}
	return false
}

// ImpliesAll reports whether the conjunction ps implies the conjunction qs:
// every q must be implied by at least one p.
func ImpliesAll(ps, qs []Pred) bool {
	for _, q := range qs {
		ok := false
		for _, p := range ps {
			if Implies(p, q) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func litValue(e sqlengine.Expr) (row.Value, bool) {
	l, ok := e.(*sqlengine.Lit)
	if !ok {
		return row.Value{}, false
	}
	return l.V, true
}

func cmp(a, b row.Value) int { return a.Compare(b) }

// maxExactInt is 2^53: every BIGINT strictly inside ±maxExactInt converts
// to DOUBLE exactly.
const maxExactInt = 1 << 53

// exactMix reports whether a proof may relate literals a and b. The engine
// compares a BIGINT with a DOUBLE after rounding the BIGINT to DOUBLE, so a
// BIGINT literal at or beyond ±2^53 may stand for a different value in the
// engine than in the proof: the BIGINT 2^53+1 and the DOUBLE 2^53 compare
// equal, yet a BIGINT column holding 2^53 is below the first and not below
// the second. A Pred carries no column type, and against a DOUBLE column
// even two BIGINT literals round — amount <= 2^53 holds for the DOUBLE
// 2^53 and amount < 2^53+1 does not — so any such literal, whatever the
// other's kind, proves nothing.
func exactMix(a, b row.Value) bool { return exactLit(a) && exactLit(b) }

// exactLit reports whether v means the same value as a BIGINT and as a
// DOUBLE: anything but a BIGINT at or beyond ±2^53.
func exactLit(v row.Value) bool {
	return v.Null || v.Kind != row.TypeInt || (v.AsInt() > -maxExactInt && v.AsInt() < maxExactInt)
}

// evalCmp evaluates `a op b` for literal values.
func evalCmp(a row.Value, op string, b row.Value) bool {
	// Incomparable kinds (e.g. string vs number) prove nothing.
	if (a.Kind != b.Kind && !(a.Numeric() && b.Numeric())) || !exactMix(a, b) {
		return false
	}
	c := cmp(a, b)
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// impliesIn decides implication when at least one side is an IN-list.
func impliesIn(p, q Pred) bool {
	switch {
	case p.In != nil && q.In != nil:
		// col IN (subset) ⇒ col IN (superset).
		for _, pv := range p.In {
			if !containsValue(q.In, pv) {
				return false
			}
		}
		return true
	case p.Simple && p.Op == "=" && q.In != nil:
		// col = v ⇒ col IN (..., v, ...).
		pv, ok := litValue(p.Value)
		return ok && !pv.Null && containsValue(q.In, pv)
	case p.In != nil && q.Simple:
		// col IN (v1..vn) ⇒ q when every vi satisfies q.
		qv, ok := litValue(q.Value)
		if !ok || qv.Null {
			return false
		}
		for _, pv := range p.In {
			if !evalCmp(pv, q.Op, qv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func containsValue(list []row.Value, v row.Value) bool {
	for _, x := range list {
		if exactMix(x, v) && x.Equal(v) {
			return true
		}
	}
	return false
}
