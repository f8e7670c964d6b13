// Command sqlsh is an interactive SQL shell against a simulated deployment
// preloaded with the paper's synthetic warehouse — handy for exploring the
// engine, the In-SQL transformation UDFs, and the catalog.
//
//	go run ./cmd/sqlsh
//	sqlml> SHOW TABLES;
//	sqlml> SELECT country, COUNT(*) FROM users GROUP BY country;
//	sqlml> SELECT * FROM TABLE(distinct_values(users, 'gender')) LIMIT 5;
//
// Statements end with ';' and may span lines. Ctrl-D exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/row"
)

func main() {
	users := flag.Int("users", 500, "users table rows")
	cartsPer := flag.Int("carts-per-user", 20, "carts per user")
	maxRows := flag.Int("max-rows", 40, "result rows to display")
	flag.Parse()
	if err := run(*users, *cartsPer, *maxRows); err != nil {
		fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
		os.Exit(1)
	}
}

func run(users, cartsPer, maxRows int) error {
	env, err := core.NewEnv(core.DefaultEnvConfig())
	if err != nil {
		return err
	}
	defer env.Close()
	d, err := datagen.Generate(datagen.Config{Users: users, CartsPerUser: cartsPer, Seed: 7})
	if err != nil {
		return err
	}
	usersPath, cartsPath, err := datagen.WriteToDFS(d, env.FS, "/warehouse", env.Topo.Node(1))
	if err != nil {
		return err
	}
	if err := env.Engine.RegisterExternalTable("users", env.FS, usersPath, datagen.UsersSchema()); err != nil {
		return err
	}
	if err := env.Engine.RegisterExternalTable("carts", env.FS, cartsPath, datagen.CartsSchema()); err != nil {
		return err
	}
	fmt.Printf("sqlml shell — %d users, %d carts on the simulated DFS; end statements with ';'\n",
		len(d.Users), len(d.Carts))

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("sqlml> ")
		} else {
			fmt.Print("  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmt == ";" || stmt == "" {
			prompt()
			continue
		}
		execute(env, strings.TrimSuffix(stmt, ";"), maxRows)
		prompt()
	}
	fmt.Println()
	return scanner.Err()
}

func execute(env *core.Env, sql string, maxRows int) {
	start := time.Now()
	res, err := env.Engine.Run(sql)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if res == nil {
		fmt.Printf("ok (%s)\n", elapsed.Round(time.Microsecond))
		return
	}
	printResult(res.Schema, res.Rows(), maxRows)
	fmt.Printf("%d row(s) in %s\n", res.NumRows(), elapsed.Round(time.Microsecond))
}

func printResult(schema row.Schema, rows []row.Row, maxRows int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(schema.Names(), "\t"))
	for i, r := range rows {
		if i >= maxRows {
			fmt.Fprintf(w, "... (%d more)\n", len(rows)-maxRows)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			if v.Null {
				cells[j] = "NULL"
			} else {
				cells[j] = v.String()
			}
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flush: %v\n", err)
	}
}
