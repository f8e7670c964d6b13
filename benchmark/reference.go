package main

import (
	"fmt"
	"math"
	"sort"

	"sqlml/internal/datagen"
	"sqlml/internal/ml"
)

// The reference is computed in plain Go from the generator's rows — a map
// join on userid, the filter, sorted-distinct recode ids, dummy coding and
// the label transform — so a bug shared by every path through the engine
// still shows as a failed op.

// digest is an order-independent fingerprint of a dataset: the row count
// and the sum mod 2^64 of a 64-bit hash of each point's label and feature
// bits.
type digest struct {
	rows     int
	features int
	sum      uint64
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

func hashPoint(label float64, features []float64) uint64 {
	h := mix(0x243F6A8885A308D3, math.Float64bits(label))
	for _, f := range features {
		h = mix(h, math.Float64bits(f))
	}
	return h
}

func (d *digest) add(label float64, features ...float64) {
	d.rows++
	d.sum += hashPoint(label, features)
}

func digestOf(ds *ml.Dataset) digest {
	d := digest{features: ds.NumFeatures}
	for _, part := range ds.Parts {
		for _, p := range part {
			d.rows++
			d.sum += hashPoint(p.Label, p.Features)
		}
	}
	return d
}

// reference holds what every step of a workload must produce.
type reference struct {
	paper    digest
	followUp digest
	// agg is the aggregate workload's expected points, in sortAgg order.
	agg []ml.LabeledPoint
	// srcRows is users + carts, the rows an uncached op reads.
	carts, srcRows int
}

// codes assigns recode ids the way the paper's recode map does: distinct
// values in sorted order, starting at 1.
func codes(seen map[string]bool) map[string]int {
	vals := make([]string, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	ids := make(map[string]int, len(vals))
	for i, v := range vals {
		ids[v] = i + 1
	}
	return ids
}

// dummy returns the one-of-K expansion of a 1-based code.
func dummy(code, k int) []float64 {
	out := make([]float64, k)
	out[code-1] = 1
	return out
}

func buildReference(sc scale) (*reference, error) {
	d, err := datagen.Generate(datagen.Config{Users: sc.users, CartsPerUser: sc.cartsPerUser, Seed: sc.seed})
	if err != nil {
		return nil, err
	}
	type user struct {
		age    float64
		gender string
		usa    bool
	}
	users := make(map[int64]user, len(d.Users))
	for _, u := range d.Users {
		users[u[0].AsInt()] = user{age: float64(u[1].AsInt()), gender: u[2].AsString(), usa: u[3].AsString() == "USA"}
	}

	// The join + filter, kept as the columns the three queries project.
	type joined struct {
		userid    int64
		age       float64
		gender    string
		amount    float64
		nitems    int64
		abandoned string
	}
	var prep []joined
	genders, labels := map[string]bool{}, map[string]bool{}
	for _, c := range d.Carts {
		u, ok := users[c[1].AsInt()]
		if !ok || !u.usa {
			continue
		}
		j := joined{userid: c[1].AsInt(), age: u.age, gender: u.gender, amount: c[2].AsFloat(), nitems: c[3].AsInt(), abandoned: c[5].AsString()}
		prep = append(prep, j)
		genders[j.gender] = true
		labels[j.abandoned] = true
	}
	genderID, labelID := codes(genders), codes(labels)

	ref := &reference{carts: len(d.Carts), srcRows: len(d.Users) + len(d.Carts)}
	ref.paper.features = 2 + len(genderID)
	ref.followUp.features = 2
	type group struct {
		age, sum, max, abandoned float64
		gender                   string
		n, items                 int64
	}
	groups := map[int64]*group{}
	for _, j := range prep {
		// Both cached steps take their label ids from the paper query's
		// map (the follow-up is served from the paper query's cached
		// result), and the label transform is id-1.
		label := float64(labelID[j.abandoned] - 1)
		f := append([]float64{j.age}, dummy(genderID[j.gender], len(genderID))...)
		ref.paper.add(label, append(f, j.amount)...)
		if j.gender == "F" {
			ref.followUp.add(label, j.age, j.amount)
		}
		g := groups[j.userid]
		if g == nil {
			g = &group{age: j.age, gender: j.gender, max: math.Inf(-1)}
			groups[j.userid] = g
		}
		g.n++
		g.sum += j.amount
		g.max = math.Max(g.max, j.amount)
		g.items += j.nitems
		if j.abandoned == "Yes" {
			g.abandoned++
		}
	}
	for _, g := range groups {
		// age, gender_1..K, ncarts, avg_amount, max_amount, items → abandon_rate
		f := append([]float64{g.age}, dummy(genderID[g.gender], len(genderID))...)
		f = append(f, float64(g.n), g.sum/float64(g.n), g.max, float64(g.items))
		ref.agg = append(ref.agg, ml.LabeledPoint{Label: g.abandoned / float64(g.n), Features: f})
	}
	sortAgg(ref.agg)
	return ref, nil
}

// sortAgg orders aggregate points by their exact columns (age, gender
// code, max_amount, items) before the float averages, whose summation
// order is the engine's to choose.
func sortAgg(pts []ml.LabeledPoint) {
	sort.Slice(pts, func(a, b int) bool {
		fa, fb := pts[a].Features, pts[b].Features
		n := len(fa)
		// Features end ..., ncarts, avg_amount, max_amount, items.
		for i := 0; i < n-3; i++ {
			if fa[i] != fb[i] {
				return fa[i] < fb[i]
			}
		}
		for _, i := range []int{n - 2, n - 1, n - 3} {
			if fa[i] != fb[i] {
				return fa[i] < fb[i]
			}
		}
		return pts[a].Label < pts[b].Label
	})
}

// check compares one step's dataset with its reference.
func (r *reference) check(kind refKind, ds *ml.Dataset) error {
	switch kind {
	case refPaper:
		return compareDigest(r.paper, digestOf(ds))
	case refFollowUp:
		return compareDigest(r.followUp, digestOf(ds))
	default:
		return compareAgg(r.agg, ds.All())
	}
}

func compareDigest(want, got digest) error {
	if got != want {
		return fmt.Errorf("dataset differs from reference: got %d rows x %d features digest %016x, want %d x %d digest %016x",
			got.rows, got.features, got.sum, want.rows, want.features, want.sum)
	}
	return nil
}

func compareAgg(want, got []ml.LabeledPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("aggregate dataset has %d rows, reference %d", len(got), len(want))
	}
	sortAgg(got)
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	for i := range want {
		if len(got[i].Features) != len(want[i].Features) {
			return fmt.Errorf("aggregate row %d has %d features, reference %d", i, len(got[i].Features), len(want[i].Features))
		}
		if !near(got[i].Label, want[i].Label) {
			return fmt.Errorf("aggregate row %d label %v, reference %v", i, got[i].Label, want[i].Label)
		}
		for j := range want[i].Features {
			if !near(got[i].Features[j], want[i].Features[j]) {
				return fmt.Errorf("aggregate row %d feature %d is %v, reference %v", i, j, got[i].Features[j], want[i].Features[j])
			}
		}
	}
	return nil
}
