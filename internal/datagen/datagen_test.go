package datagen

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

func TestGenerateShapeAndDeterminism(t *testing.T) {
	cfg := Config{Users: 200, CartsPerUser: 10, Seed: 42}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Users) != 200 || len(d1.Carts) != 2000 {
		t.Fatalf("sizes = %d users, %d carts", len(d1.Users), len(d1.Carts))
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Users {
		if !d1.Users[i].Equal(d2.Users[i]) {
			t.Fatalf("users not deterministic at %d", i)
		}
	}
	for i := range d1.Carts {
		if !d1.Carts[i].Equal(d2.Carts[i]) {
			t.Fatalf("carts not deterministic at %d", i)
		}
	}
	d3, err := Generate(Config{Users: 200, CartsPerUser: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range d1.Users {
		if d1.Users[i].Equal(d3.Users[i]) {
			same++
		}
	}
	if same == len(d1.Users) {
		t.Error("different seeds produced identical users")
	}
}

// TestGenerateDigest pins the generated data itself: the digest of every
// row printed "%v|", users then carts. Any change to the RNG call order or
// to a row's values changes it.
func TestGenerateDigest(t *testing.T) {
	d, err := Generate(Config{Users: 300, CartsPerUser: 7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, rows := range [][]row.Row{d.Users, d.Carts} {
		for _, r := range rows {
			fmt.Fprintf(h, "%v|", r)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "84838170e79cf2e9b8e64bb13bdb0e2fb14f41e5544988776e82740e449b6190"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestCartRowsDoNotAlias: cart rows share backing chunks, so each must be
// capped at its own width — appending to one row may not write into the
// next.
func TestCartRowsDoNotAlias(t *testing.T) {
	d, err := Generate(Config{Users: 3, CartsPerUser: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cap(d.Carts[0]), CartsSchema().Len(); got != want {
		t.Fatalf("cap(Carts[0]) = %d, want %d", got, want)
	}
	next := append(row.Row(nil), d.Carts[1]...)
	_ = append(d.Carts[0], row.Int(-1), row.String_("spill"))
	if !d.Carts[1].Equal(next) {
		t.Fatalf("appending to Carts[0] changed Carts[1]: %v, was %v", d.Carts[1], next)
	}
}

func TestGeneratedRowsConformToSchemas(t *testing.T) {
	d, err := Generate(Config{Users: 50, CartsPerUser: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range d.Users {
		if err := r.Conforms(UsersSchema()); err != nil {
			t.Fatalf("user row %d: %v", i, err)
		}
	}
	for i, r := range d.Carts {
		if err := r.Conforms(CartsSchema()); err != nil {
			t.Fatalf("cart row %d: %v", i, err)
		}
	}
}

func TestGeneratedDistributions(t *testing.T) {
	d, err := Generate(Config{Users: 3000, CartsPerUser: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	countries := map[string]int{}
	genders := map[string]int{}
	usaIdx := UsersSchema().ColIndex("country")
	gIdx := UsersSchema().ColIndex("gender")
	ageIdx := UsersSchema().ColIndex("age")
	for _, r := range d.Users {
		countries[r[usaIdx].AsString()]++
		genders[r[gIdx].AsString()]++
		age := r[ageIdx].AsInt()
		if age < 18 || age > 80 {
			t.Fatalf("age %d out of range", age)
		}
	}
	usaShare := float64(countries["USA"]) / float64(len(d.Users))
	if usaShare < 0.45 || usaShare > 0.65 {
		t.Errorf("USA share = %.3f, want ~0.55", usaShare)
	}
	if genders["F"] == 0 || genders["M"] == 0 || len(genders) != 2 {
		t.Errorf("genders = %v", genders)
	}

	// Cart foreign keys reference existing users; amounts positive.
	uidIdx := CartsSchema().ColIndex("userid")
	amtIdx := CartsSchema().ColIndex("amount")
	abIdx := CartsSchema().ColIndex("abandoned")
	abandoned := 0
	for _, r := range d.Carts {
		uid := r[uidIdx].AsInt()
		if uid < 1 || uid > int64(len(d.Users)) {
			t.Fatalf("cart references user %d", uid)
		}
		if r[amtIdx].AsFloat() <= 0 {
			t.Fatalf("non-positive amount %v", r[amtIdx])
		}
		if r[abIdx].AsString() == "Yes" {
			abandoned++
		}
	}
	share := float64(abandoned) / float64(len(d.Carts))
	if share < 0.2 || share > 0.8 {
		t.Errorf("abandonment share = %.3f, want an informative mix", share)
	}
}

// TestLabelHasSignal: the abandonment label must correlate with the
// features, or the reproduced SVM experiment would be learning noise.
func TestLabelHasSignal(t *testing.T) {
	d, err := Generate(Config{Users: 2000, CartsPerUser: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	amtIdx := CartsSchema().ColIndex("amount")
	abIdx := CartsSchema().ColIndex("abandoned")
	var sumYes, sumNo float64
	var nYes, nNo int
	for _, r := range d.Carts {
		if r[abIdx].AsString() == "Yes" {
			sumYes += r[amtIdx].AsFloat()
			nYes++
		} else {
			sumNo += r[amtIdx].AsFloat()
			nNo++
		}
	}
	if nYes == 0 || nNo == 0 {
		t.Fatal("degenerate label")
	}
	if sumYes/float64(nYes) <= sumNo/float64(nNo) {
		t.Error("abandoned carts should have a higher mean amount (by construction)")
	}
}

func TestWriteToDFSRoundTrip(t *testing.T) {
	topo := cluster.NewTopology(3)
	fs := dfs.New(topo, dfs.Config{BlockSize: 4096, Replication: 2})
	d, err := Generate(Config{Users: 40, CartsPerUser: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	usersPath, cartsPath, err := WriteToDFS(d, fs, "/wh", topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	users, err := hadoopfmt.ReadAll(hadoopfmt.NewTextTableFormat(fs, usersPath, UsersSchema()), topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	carts, err := hadoopfmt.ReadAll(hadoopfmt.NewTextTableFormat(fs, cartsPath, CartsSchema()), topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 40 || len(carts) != 120 {
		t.Fatalf("round trip sizes: %d users, %d carts", len(users), len(carts))
	}
	if !users[0].Equal(d.Users[0]) {
		t.Errorf("first user differs: %v vs %v", users[0], d.Users[0])
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Users: 0, CartsPerUser: 1}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := Generate(Config{Users: 1, CartsPerUser: 0}); err == nil {
		t.Error("zero carts-per-user accepted")
	}
}

func TestRow2Rounding(t *testing.T) {
	if round2(1.005) != 1.01 && round2(1.005) != 1.0 {
		// Floating point may land either way for .005; just ensure 2dp.
	}
	if round2(3.14159) != 3.14 {
		t.Errorf("round2(3.14159) = %v", round2(3.14159))
	}
}
