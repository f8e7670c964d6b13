// Command sqlsh is an interactive SQL shell against a simulated deployment
// preloaded with the paper's synthetic warehouse — handy for exploring the
// engine, the In-SQL transformation UDFs, and the catalog.
//
//	go run ./cmd/sqlsh
//	sqlml> SHOW TABLES;
//	sqlml> SELECT country, COUNT(*) FROM users GROUP BY country;
//	sqlml> SELECT * FROM TABLE(distinct_values(users, 'gender')) LIMIT 5;
//
// Statements end with ';' (outside string literals), may span lines or
// share one, and the last one may leave the ';' off. Ctrl-D exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Stdin, os.Stdout, *users, *cartsPer, *maxRows); err != nil {
		fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, users, cartsPer, maxRows int) error {
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
	fmt.Fprintf(out, "sqlml shell — %d users, %d carts on the simulated DFS; end statements with ';'\n",
		len(d.Users), len(d.Carts))

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	pending := ""
	prompt := func() {
		if pending == "" {
			fmt.Fprint(out, "sqlml> ")
		} else {
			fmt.Fprint(out, "  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		stmts, rest := splitStatements(pending + scanner.Text() + "\n")
		for _, stmt := range stmts {
			execute(out, env, stmt, maxRows)
		}
		pending = rest
		if strings.TrimSpace(pending) == "" {
			pending = ""
		}
		prompt()
	}
	// EOF ends the last statement as a ';' would.
	execute(out, env, pending, maxRows)
	fmt.Fprintln(out)
	return scanner.Err()
}

// splitStatements cuts src at every ';' outside a single-quoted literal and
// returns the terminated statements plus the unterminated tail. The doubled
// quote that escapes a quote inside a literal closes and reopens it, so it
// needs no case of its own.
func splitStatements(src string) (stmts []string, rest string) {
	start, quoted := 0, false
	for i := 0; i < len(src); i++ {
		switch {
		case src[i] == '\'':
			quoted = !quoted
		case src[i] == ';' && !quoted:
			stmts = append(stmts, src[start:i])
			start = i + 1
		}
	}
	return stmts, src[start:]
}

// execute runs one statement and prints its result or its error; blank
// input (";;", a trailing newline) is not a statement.
func execute(out io.Writer, env *core.Env, sql string, maxRows int) {
	if strings.TrimSpace(sql) == "" {
		return
	}
	start := time.Now()
	res, err := env.Engine.Run(sql)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if res == nil {
		fmt.Fprintf(out, "ok (%s)\n", elapsed.Round(time.Microsecond))
		return
	}
	printResult(out, res.Schema, res.Rows(), maxRows)
	fmt.Fprintf(out, "%d row(s) in %s\n", res.NumRows(), elapsed.Round(time.Microsecond))
}

func printResult(out io.Writer, schema row.Schema, rows []row.Row, maxRows int) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
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
