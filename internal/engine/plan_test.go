package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// seedPlannerData builds a three-table schema with skewed sizes and a mix of
// index kinds, populated deterministically from seed.
func seedPlannerData(t *testing.T, seed int64) *Engine {
	t.Helper()
	e := New(txn.NewManager(storage.NewCatalog()))
	ddl := []string{
		"CREATE TABLE regions (name STRING, tier INT, PRIMARY KEY (name))",
		"CREATE TABLE users (id INT, region STRING, score INT, PRIMARY KEY (id))",
		"CREATE TABLE orders (oid INT, uid INT, amount FLOAT, PRIMARY KEY (oid))",
		"CREATE INDEX ON users (region)",            // unnamed hash
		"CREATE INDEX users_score ON users (score)", // named single-column → ordered
		"CREATE INDEX orders_uid ON orders (uid)",   // named single-column → ordered
	}
	for _, src := range ddl {
		if _, err := e.ExecuteSQL(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"north", "south", "east", "west"}
	for i, r := range regions {
		mustExec(t, e, fmt.Sprintf("INSERT INTO regions VALUES ('%s', %d)", r, i%2))
	}
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d)",
			i, regions[rng.Intn(len(regions))], rng.Intn(20)))
	}
	for i := 0; i < 80; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %.2f)",
			i, rng.Intn(40), float64(rng.Intn(10000))/100))
	}
	return e
}

func mustExec(t *testing.T, e *Engine, src string) {
	t.Helper()
	if _, err := e.ExecuteSQL(src); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
}

// sortedRows renders a result's rows sorted lexicographically, so two plans
// producing the same multiset in different orders render byte-identically.
func sortedRows(r *Result) string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = fmt.Sprintf("%v", row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPlanEquivalence is the plan-equivalence suite: every query runs twice —
// cost-ranked join order vs. naive statement order — through both the text
// and the prepared path, across several data seeds. The rendered (sorted) row
// sets must be byte-identical: reordering may only change performance, never
// the answer.
func TestPlanEquivalence(t *testing.T) {
	queries := []struct {
		src    string
		params value.Tuple
	}{
		{"SELECT u.id, o.oid FROM users u, orders o WHERE u.id = o.uid", nil},
		{"SELECT o.oid, u.region FROM orders o, users u WHERE u.id = o.uid AND u.region = 'north'", nil},
		{"SELECT u.id FROM regions r, users u WHERE u.region = r.name AND r.tier = 1", nil},
		{"SELECT u.id, o.amount FROM users u, orders o WHERE u.id = o.uid AND o.amount > 50.0", nil},
		{"SELECT r.name, u.id, o.oid FROM regions r, users u, orders o " +
			"WHERE u.region = r.name AND u.id = o.uid AND u.score >= 10", nil},
		{"SELECT o.oid FROM orders o, users u WHERE u.id = o.uid AND u.score = ?", value.NewTuple(int64(7))},
		{"SELECT u.id FROM orders o, users u WHERE u.id = o.uid AND o.amount BETWEEN ? AND ?",
			value.NewTuple(10.0, 40.0)},
		{"SELECT u.id FROM users u WHERE u.score = 7 AND u.region = 'south'", nil},
	}
	for _, seed := range []int64{1, 7, 42} {
		e := seedPlannerData(t, seed)
		for _, q := range queries {
			name := fmt.Sprintf("seed%d/%s", seed, q.src)
			stmt, err := sql.Parse(q.src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run := func(naive bool) (text, prepped string) {
				planNaiveOrder = naive
				defer func() { planNaiveOrder = false }()
				p, err := e.Prepare(stmt)
				if err != nil {
					t.Fatalf("%s: prepare: %v", name, err)
				}
				res, err := p.Execute(q.params)
				if err != nil {
					t.Fatalf("%s: prepared exec: %v", name, err)
				}
				prepped = sortedRows(res)
				if q.params == nil {
					r2, err := e.ExecuteSQL(q.src)
					if err != nil {
						t.Fatalf("%s: text exec: %v", name, err)
					}
					text = sortedRows(r2)
				}
				return text, prepped
			}
			naiveText, naivePrepped := run(true)
			rankedText, rankedPrepped := run(false)
			if rankedPrepped != naivePrepped {
				t.Errorf("%s: prepared ranked != naive\nranked:\n%s\nnaive:\n%s", name, rankedPrepped, naivePrepped)
			}
			if rankedText != naiveText {
				t.Errorf("%s: text ranked != naive\nranked:\n%s\nnaive:\n%s", name, rankedText, naiveText)
			}
		}
	}
}

// TestOrderedEqCrossTypeCoercion pins the ordered-index analogue of the hash
// coercion bug: an eq probe routed through an ordered secondary index as a
// degenerate [v, v] range must never silently miss rows whose stored key
// compares equal under SQL `=` cross-type rules — INT probe against a
// FLOAT-keyed index and vice versa.
func TestOrderedEqCrossTypeCoercion(t *testing.T) {
	mk := func(withIndex bool) *Engine {
		e := New(txn.NewManager(storage.NewCatalog()))
		mustExec(t, e, "CREATE TABLE fares (id INT, price FLOAT, hops INT, PRIMARY KEY (id))")
		mustExec(t, e, "INSERT INTO fares VALUES (1, 2.0, 0), (2, 2.5, 1), (3, 180.0, 2), (4, NULL, 2)")
		if withIndex {
			// Named single-column indexes build ordered; eq probes against them
			// execute as degenerate ranges.
			mustExec(t, e, "CREATE INDEX fares_price ON fares (price)")
			mustExec(t, e, "CREATE INDEX fares_hops ON fares (hops)")
		}
		return e
	}
	indexed, plain := mk(true), mk(false)
	cases := []struct {
		src    string
		params value.Tuple
	}{
		// INT probe against the FLOAT-keyed ordered index: must find id 1.
		{"SELECT id FROM fares WHERE price = 2 ORDER BY id", nil},
		{"SELECT id FROM fares WHERE price = ? ORDER BY id", value.NewTuple(int64(2))},
		// FLOAT probe against the INT-keyed ordered index: 2.0 matches hops=2.
		{"SELECT id FROM fares WHERE hops = 2.0 ORDER BY id", nil},
		{"SELECT id FROM fares WHERE hops = ? ORDER BY id", value.NewTuple(2.0)},
		// Fractional FLOAT probe on the INT index: matches nothing, silently.
		{"SELECT id FROM fares WHERE hops = ? ORDER BY id", value.NewTuple(1.5)},
		// NULL probe: SQL `=` is never true against NULL.
		{"SELECT id FROM fares WHERE price = ? ORDER BY id", value.NewTuple(value.Null)},
		// Uncoercible probe type: zero rows, no error.
		{"SELECT id FROM fares WHERE price = ? ORDER BY id", value.NewTuple("cheap")},
		// eq + range on the same ordered column intersect correctly.
		{"SELECT id FROM fares WHERE hops = 2 AND hops >= ? ORDER BY id", value.NewTuple(int64(1))},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s%v", tc.src, tc.params)
		stmt, err := sql.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want, got *Result
		for _, e := range []*Engine{plain, indexed} {
			p, err := e.Prepare(stmt)
			if err != nil {
				t.Fatalf("%s: prepare: %v", name, err)
			}
			res, err := p.Execute(tc.params)
			if err != nil {
				t.Fatalf("%s: exec: %v", name, err)
			}
			if e == plain {
				want = res
			} else {
				got = res
			}
			if tc.params == nil {
				tr, err := e.ExecuteSQL(tc.src)
				if err != nil {
					t.Fatalf("%s: text exec: %v", name, err)
				}
				if rowsString(tr) != rowsString(res) {
					t.Errorf("%s: text and prepared disagree: %v vs %v", name, tr.Rows, res.Rows)
				}
			}
		}
		if rowsString(got) != rowsString(want) {
			t.Errorf("%s: indexed = %v, scan = %v", name, got.Rows, want.Rows)
		}
	}
}

// TestExplainStatements pins the EXPLAIN surface: access-path selection per
// predicate shape, the result-set form, and non-SELECT statements.
func TestExplainStatements(t *testing.T) {
	e := seedPlannerData(t, 1)
	paths := []struct {
		src  string
		want string // substring of the first step's rendered path
	}{
		{"SELECT * FROM users WHERE id = 3", "pk probe"},
		{"SELECT * FROM users WHERE region = 'north'", "eq probe (hash)"},
		{"SELECT * FROM users WHERE score = 7", "eq probe (ordered) via users_score"},
		{"SELECT * FROM users WHERE score > 10", "range scan (ordered) via users_score"},
		{"SELECT * FROM users", "full scan"},
		{"SELECT COUNT(*) FROM users", "aggregation"},
		{"INSERT INTO users VALUES (99, 'north', 1)", "index maintenance"},
		{"DELETE FROM users WHERE id = 99", "tombstone"},
	}
	for _, tc := range paths {
		stmt, err := sql.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		d, err := e.ExplainStmt(stmt, nil)
		if err != nil {
			t.Fatalf("explain %s: %v", tc.src, err)
		}
		if !strings.Contains(d.String(), tc.want) {
			t.Errorf("EXPLAIN %s:\n%s\nwant substring %q", tc.src, d.String(), tc.want)
		}
	}

	// EXPLAIN as a statement flows through execution as a result set.
	res, err := e.ExecuteSQL("EXPLAIN SELECT * FROM users WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "plan" || len(res.Rows) < 3 {
		t.Fatalf("EXPLAIN result shape: cols=%v rows=%d", res.Cols, len(res.Rows))
	}

	// Multi-table: the smaller/selective side must come first in the ranked
	// order even when the statement lists it last.
	stmt, err := sql.Parse("SELECT u.id, o.oid FROM orders o, users u WHERE u.id = o.uid AND u.id = 5")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.ExplainStmt(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 2 || d.Steps[0].Table != "users" {
		t.Fatalf("expected pk-probed users first in ranked order, got:\n%s", d.String())
	}

	// Parameters refine estimates at explain time just as they would at bind
	// time: an unbound NULL-able probe keeps its generic estimate, a bound
	// NULL probe estimates near zero.
	stmt, err = sql.Parse("SELECT id FROM users WHERE score = ?")
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := e.ExplainStmt(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := e.ExplainStmt(stmt, value.NewTuple(value.Null))
	if err != nil {
		t.Fatal(err)
	}
	if bound.Steps[0].EstRows >= unbound.Steps[0].EstRows {
		t.Fatalf("NULL-bound estimate %v should be below unbound %v",
			bound.Steps[0].EstRows, unbound.Steps[0].EstRows)
	}
}

// TestCreateIndexReplan pins DDL-stamped replanning: a prepared statement
// planned as a full scan transparently switches to the index once CREATE
// INDEX bumps the catalog version, with no re-prepare.
func TestCreateIndexReplan(t *testing.T) {
	e := New(txn.NewManager(storage.NewCatalog()))
	mustExec(t, e, "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
	for i := 0; i < 32; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i%8))
	}
	stmt, err := sql.Parse("SELECT k FROM kv WHERE v = ?")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Execute(value.NewTuple(int64(3)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.ExplainStmt(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Steps[0].Path, "scan") {
		t.Fatalf("expected scan before CREATE INDEX, got %s", d.Steps[0].Path)
	}
	mustExec(t, e, "CREATE INDEX kv_v ON kv (v)")
	after, err := p.Execute(value.NewTuple(int64(3)))
	if err != nil {
		t.Fatal(err)
	}
	if sortedRows(before) != sortedRows(after) {
		t.Fatalf("replanned result diverged:\n%s\nvs\n%s", sortedRows(before), sortedRows(after))
	}
	d, err = e.ExplainStmt(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Steps[0].Path, "eq probe (ordered)") {
		t.Fatalf("expected ordered eq probe after CREATE INDEX, got:\n%s", d.String())
	}
}

// FuzzExplain drives the full parse → plan → describe pipeline with
// arbitrary statement text over a populated catalog: anything that parses
// must explain without panicking, and rendering must not crash.
func FuzzExplain(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM users WHERE id = 3",
		"SELECT u.id, o.oid FROM users u, orders o WHERE u.id = o.uid",
		"SELECT * FROM users WHERE score BETWEEN 1 AND 5 AND region = 'north'",
		"EXPLAIN SELECT * FROM users",
		"INSERT INTO users VALUES (1, 'x', 2)",
		"SELECT COUNT(*) FROM orders GROUP BY uid",
		"SELECT * FROM missing WHERE x = 1",
	} {
		f.Add(s)
	}
	e := New(txn.NewManager(storage.NewCatalog()))
	for _, src := range []string{
		"CREATE TABLE users (id INT, region STRING, score INT, PRIMARY KEY (id))",
		"CREATE TABLE orders (oid INT, uid INT, amount FLOAT, PRIMARY KEY (oid))",
		"CREATE INDEX ON users (region)",
		"CREATE INDEX users_score ON users (score)",
		"INSERT INTO users VALUES (1, 'north', 5), (2, 'south', 10)",
		"INSERT INTO orders VALUES (1, 1, 10.0), (2, 2, 20.0)",
	} {
		if _, err := e.ExecuteSQL(src); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}
		if ex, ok := stmt.(*sql.Explain); ok {
			stmt = ex.Stmt
		}
		d, err := e.ExplainStmt(stmt, nil)
		if err != nil {
			return // unknown tables/columns are fine; panics are not
		}
		_ = d.String()
	})
}
