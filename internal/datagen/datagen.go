// Package datagen generates the paper's §7 synthetic workload: a carts
// table and a users table "in the context of the example query scenario
// described in Section 1", stored in text format on the DFS.
//
// The paper's tables are 1 billion carts (56 GB) and 10 million users
// (361 MB); Config.Scale shrinks both while keeping the 100:1 ratio. The
// abandoned label is drawn from a logistic model over age, gender and
// amount so the downstream SVM has real signal to learn.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// Config sizes the synthetic dataset.
type Config struct {
	// Users is the row count of the users table.
	Users int
	// CartsPerUser keeps the paper's 100:1 carts:users ratio by default.
	CartsPerUser int
	Seed         int64
}

// UsersSchema is the users table schema from the paper's example.
func UsersSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "country", Type: row.TypeString},
	)
}

// CartsSchema is the carts table schema (including the nitems and year
// columns §5.2's example query touches).
func CartsSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "cartid", Type: row.TypeInt},
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "nitems", Type: row.TypeInt},
		row.Column{Name: "year", Type: row.TypeInt},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
}

// countries weights the users' country field; USA dominates so the §1
// filter keeps most of the data, as in any US retailer's warehouse.
var countries = []struct {
	name   string
	weight float64
}{
	{"USA", 0.55}, {"Germany", 0.12}, {"Greece", 0.08}, {"Brazil", 0.10}, {"Japan", 0.15},
}

// Dataset holds generated rows for both tables.
type Dataset struct {
	Users []row.Row
	Carts []row.Row
}

// cartChunkRows is how many cart rows share one backing allocation. A
// chunk stays live while any of its rows is reachable; one slab for the
// whole table measured a higher peak RSS than chunks of this size.
const cartChunkRows = 1024

// Generate produces the synthetic tables deterministically from the seed.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.CartsPerUser <= 0 {
		return nil, fmt.Errorf("datagen: need positive sizes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Users: make([]row.Row, 0, cfg.Users),
		Carts: make([]row.Row, 0, cfg.Users*cfg.CartsPerUser),
	}
	type userInfo struct {
		age    int64
		female bool
	}
	users := make([]userInfo, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		age := 18 + rng.Intn(63)
		female := rng.Intn(2) == 0
		gender := "M"
		if female {
			gender = "F"
		}
		c := pickCountry(rng)
		users[i] = userInfo{age: int64(age), female: female}
		d.Users = append(d.Users, row.Row{
			row.Int(int64(i + 1)),
			row.Int(int64(age)),
			row.String_(gender),
			row.String_(c),
		})
	}
	// Cart rows are cut from shared value chunks of cartChunkRows rows —
	// one allocation per chunk instead of one per row. Each row's capacity
	// is its length, so appending to one row never writes into the next.
	width := CartsSchema().Len()
	var chunk []row.Value
	cartID := int64(1)
	for u := 0; u < cfg.Users; u++ {
		info := users[u]
		for c := 0; c < cfg.CartsPerUser; c++ {
			amount := math.Exp(rng.NormFloat64()*0.9 + 4.0) // log-normal dollars
			nitems := 1 + rng.Intn(12)
			year := 2012 + rng.Intn(3)
			// Logistic abandonment model: younger users and larger carts
			// abandon more; gender contributes a small shift.
			z := 0.04*(45-float64(info.age)) + 0.012*(amount-60)
			if info.female {
				z -= 0.3
			}
			abandoned := "No"
			if rng.Float64() < 1/(1+math.Exp(-z)) {
				abandoned = "Yes"
			}
			if len(chunk) == 0 {
				chunk = make([]row.Value, cartChunkRows*width)
			}
			r := row.Row(chunk[:width:width])
			chunk = chunk[width:]
			r[0] = row.Int(cartID)
			r[1] = row.Int(int64(u + 1))
			r[2] = row.Float(round2(amount))
			r[3] = row.Int(int64(nitems))
			r[4] = row.Int(int64(year))
			r[5] = row.String_(abandoned)
			d.Carts = append(d.Carts, r)
			cartID++
		}
	}
	return d, nil
}

func pickCountry(rng *rand.Rand) string {
	r := rng.Float64()
	acc := 0.0
	for _, c := range countries {
		acc += c.weight
		if r < acc {
			return c.name
		}
	}
	return countries[len(countries)-1].name
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

// WriteToDFS stores both tables as text files under dir, returning their
// paths. writerNode is the node issuing the writes.
func WriteToDFS(d *Dataset, fs *dfs.FileSystem, dir string, writerNode *cluster.Node) (usersPath, cartsPath string, err error) {
	usersPath = dir + "/users.txt"
	cartsPath = dir + "/carts.txt"
	if _, err := hadoopfmt.WriteTextTable(fs, usersPath, UsersSchema(), d.Users, writerNode); err != nil {
		return "", "", err
	}
	if _, err := hadoopfmt.WriteTextTable(fs, cartsPath, CartsSchema(), d.Carts, writerNode); err != nil {
		return "", "", err
	}
	return usersPath, cartsPath, nil
}
