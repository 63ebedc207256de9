package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// Result is the outcome of executing a statement: column names and rows for
// queries, Affected for DML, both zero for DDL.
type Result struct {
	Cols     []string
	Rows     []value.Tuple
	Affected int
}

// Engine executes plain SQL statements.
type Engine struct {
	mgr *txn.Manager
}

// New returns an Engine over the transaction manager.
func New(mgr *txn.Manager) *Engine { return &Engine{mgr: mgr} }

// Manager exposes the engine's transaction manager.
func (e *Engine) Manager() *txn.Manager { return e.mgr }

// Catalog exposes the underlying catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.mgr.Catalog() }

// ExecuteSQL parses and executes a single statement in its own transaction.
func (e *Engine) ExecuteSQL(src string) (*Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

// Execute runs one statement in its own transaction (auto-commit).
func (e *Engine) Execute(stmt sql.Statement) (*Result, error) {
	var res *Result
	err := e.mgr.RunAtomic(func(tx *txn.Txn) error {
		var err error
		res, err = e.ExecuteIn(tx, stmt)
		return err
	})
	return res, err
}

// ExecuteIn runs one statement inside an existing transaction.
//
// DDL (CREATE/DROP) takes effect immediately and is not rolled back with the
// transaction; this mirrors common database behaviour and keeps the catalog
// simple.
func (e *Engine) ExecuteIn(tx *txn.Txn, stmt sql.Statement) (*Result, error) {
	return e.executeIn(tx, stmt, nil)
}

// ExecuteInBound is ExecuteIn with a bound parameter vector: sql.Param
// expressions anywhere in the statement (including subquery bodies) resolve
// against params.
func (e *Engine) ExecuteInBound(tx *txn.Txn, stmt sql.Statement, params value.Tuple) (*Result, error) {
	return e.executeIn(tx, stmt, params)
}

func (e *Engine) executeIn(tx *txn.Txn, stmt sql.Statement, params value.Tuple) (*Result, error) {
	var base *Env
	if params != nil {
		base = NewEnv()
		base.BindParams(params)
	}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		schema := value.NewSchema()
		for _, c := range s.Cols {
			schema.Columns = append(schema.Columns, value.Col(c.Name, c.Type))
		}
		if _, err := e.Catalog().Create(s.Name, schema, s.PK...); err != nil {
			return nil, err
		}
		e.Catalog().BumpDDL()
		return &Result{}, nil

	case *sql.CreateIndex:
		tbl, err := e.Catalog().Get(s.Table)
		if err != nil {
			return nil, err
		}
		switch {
		case s.Ordered:
			if err := tbl.CreateOrderedIndexNamed(s.Name, s.Cols[0]); err != nil {
				return nil, err
			}
		case s.Name != "" && len(s.Cols) == 1:
			// The named single-column form creates an ordered secondary index:
			// it serves both eq probes (as a degenerate range) and range scans,
			// so it is the strictly more capable default for one column.
			if err := tbl.CreateOrderedIndexNamed(s.Name, s.Cols[0]); err != nil {
				return nil, err
			}
		default:
			if err := tbl.CreateIndexNamed(s.Name, s.Cols...); err != nil {
				return nil, err
			}
		}
		// Index presence feeds plan selection; cached plans must notice.
		e.Catalog().BumpDDL()
		return &Result{}, nil

	case *sql.Explain:
		d, err := e.ExplainStmt(s.Stmt, params)
		if err != nil {
			return nil, err
		}
		return ExplainResult(d), nil

	case *sql.DropTable:
		if err := e.Catalog().Drop(s.Name); err != nil {
			return nil, err
		}
		e.Catalog().BumpDDL()
		return &Result{}, nil

	case *sql.Insert:
		return e.execInsert(tx, s, base)

	case *sql.Delete:
		return e.execDelete(tx, s, base)

	case *sql.Update:
		return e.execUpdate(tx, s, base)

	case *sql.Select:
		return e.evalSelect(tx, s, base)

	case *sql.EntangledSelect:
		return nil, fmt.Errorf("engine: entangled query must be submitted to the coordination component, not the plain engine")

	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (e *Engine) execInsert(tx *txn.Txn, s *sql.Insert, base *Env) (*Result, error) {
	env := base
	if env == nil {
		env = NewEnv()
	}
	if s.From != nil {
		res, err := e.evalSelect(tx, s.From, base)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			if _, err := tx.Insert(s.Table, row); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(res.Rows)}, nil
	}
	n := 0
	for _, row := range s.Rows {
		tup := make(value.Tuple, len(row))
		for i, ex := range row {
			v, err := e.EvalExpr(tx, ex, env)
			if err != nil {
				return nil, err
			}
			tup[i] = v
		}
		if _, err := tx.Insert(s.Table, tup); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) execDelete(tx *txn.Txn, s *sql.Delete, base *Env) (*Result, error) {
	tbl, err := e.Catalog().Get(s.Table)
	if err != nil {
		return nil, err
	}
	// Exclusive lock up front: read-then-write under one lock.
	if err := tx.Lock(s.Table); err != nil {
		return nil, err
	}
	var ids []storage.RowID
	var evalErr error
	rowEnv := base
	if rowEnv == nil {
		rowEnv = NewEnv()
	}
	// Snapshot taken after the exclusive lock: sees every prior commit plus
	// the transaction's own writes.
	tbl.ScanAt(tx.Snapshot(), func(id storage.RowID, row value.Tuple) bool {
		if s.Where != nil {
			env := rowEnv
			env.Bind(s.Table, tbl.Schema(), row)
			v, err := e.EvalExpr(tx, s.Where, env)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	for _, id := range ids {
		if err := tx.Delete(s.Table, id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (e *Engine) execUpdate(tx *txn.Txn, s *sql.Update, base *Env) (*Result, error) {
	tbl, err := e.Catalog().Get(s.Table)
	if err != nil {
		return nil, err
	}
	if err := tx.Lock(s.Table); err != nil {
		return nil, err
	}
	offsets := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		o := tbl.Schema().Ordinal(a.Col)
		if o < 0 {
			return nil, fmt.Errorf("engine: no column %q in %q", a.Col, s.Table)
		}
		offsets[i] = o
	}
	type change struct {
		id  storage.RowID
		tup value.Tuple
	}
	var changes []change
	var evalErr error
	rowEnv := base
	if rowEnv == nil {
		rowEnv = NewEnv()
	}
	tbl.ScanAt(tx.Snapshot(), func(id storage.RowID, row value.Tuple) bool {
		env := rowEnv
		env.Bind(s.Table, tbl.Schema(), row)
		if s.Where != nil {
			v, err := e.EvalExpr(tx, s.Where, env)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		newRow := row.Clone()
		for i, a := range s.Sets {
			v, err := e.EvalExpr(tx, a.Val, env)
			if err != nil {
				evalErr = err
				return false
			}
			newRow[offsets[i]] = v
		}
		changes = append(changes, change{id, newRow})
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	for _, c := range changes {
		if err := tx.Update(s.Table, c.id, c.tup); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(changes)}, nil
}

// EvalSelect evaluates a SELECT with an optional outer environment (for
// correlated subqueries and coordinator-bound variables).
func (e *Engine) EvalSelect(tx *txn.Txn, s *sql.Select, outer *Env) (*Result, error) {
	return e.evalSelect(tx, s, outer)
}

type fromTable struct {
	ref     sql.TableRef
	tbl     *storage.Table
	binding string          // canonical (lower-case) binding name
	eqCols  []int           // pushed-down equality columns
	eqVals  value.Tuple     // corresponding literal values
	ids     []storage.RowID // reusable id buffer for the equality probe
	// Pushed-down range predicate over an ordered-indexed column
	// (rangeCol < 0 when absent).
	rangeCol int
	lo, hi   storage.Bound
	// Conjunct indices absorbed by the range pushdown, un-skipped again if
	// an equality probe supersedes the range. Fixed-size so the text path
	// allocates nothing; overflow conjuncts simply stay evaluated.
	rconj  [4]int
	nrconj int
}

func (e *Engine) evalSelect(tx *txn.Txn, s *sql.Select, outer *Env) (*Result, error) {
	if hasAggregates(s) || len(s.GroupBy) > 0 {
		return e.evalAggregate(tx, s, outer)
	}
	if len(s.From) == 0 {
		return e.evalSelectNoFrom(tx, s, outer)
	}
	fts := make([]fromTable, len(s.From))
	froms := make([]*fromTable, len(s.From))
	for i, ref := range s.From {
		tbl, err := e.Catalog().Get(ref.Name)
		if err != nil {
			return nil, err
		}
		fts[i] = fromTable{ref: ref, tbl: tbl, rangeCol: -1, binding: strings.ToLower(ref.Binding())}
		froms[i] = &fts[i]
	}
	var params value.Tuple
	if outer != nil {
		params = outer.Params()
	}
	conds, skip := pushDownPredicates(s.Where, froms, len(s.From) == 1, params)

	env := NewEnv()
	if outer != nil {
		env = outer.Child()
	}
	iter := orderFroms(froms) // join iteration order; projection keeps FROM order
	return e.runSelect(tx, s, froms, iter, env, projectionCols(s, froms), conds, skip)
}

// runSelect is the shared execution half of a planned SELECT: the nested-loop
// join over already-analyzed fromTables (locks taken, pushdowns attached),
// followed by ORDER BY / DISTINCT / LIMIT. evalSelect analyzes per execution;
// Prepared replays a cached analysis and calls this directly. conds are the
// WHERE conjuncts; per joined row only those whose bit is NOT set in skip
// are evaluated — the caller's pushdown analysis marks the ones its index
// probes cover exactly, so a pure point query skips expression evaluation
// entirely. (The prepared path precomputes its residual list at plan time
// and passes skip == 0.) Evaluating conjuncts in order short-circuits on
// the first false one, exactly like the AND chain they came from.
func (e *Engine) runSelect(tx *txn.Txn, s *sql.Select, froms, iter []*fromTable, env *Env, cols []string, conds []sql.Expr, skip uint64) (*Result, error) {
	// One snapshot for the whole statement: every probe and scan below reads
	// the same consistent view, lock-free with respect to writers. Within a
	// multi-statement transaction the snapshot is the transaction's pinned
	// one, so reads are repeatable across statements too.
	snap := tx.Snapshot()

	var out struct {
		rows []value.Tuple
		data []value.Value // shared backing slab for rows
		keys []value.Tuple // ORDER BY keys, parallel to rows
		kdat []value.Value // shared backing slab for keys
	}
	// Pre-size for a small result: one allocation per slab instead of a
	// doubling chain from nil — the dominant allocation cost of a point
	// query. Large results grow past the estimate exactly as before. A
	// single-table equality plan — the point-probe shape — runs its index
	// lookup up front so the slabs are sized to the exact candidate count:
	// the common one-row probe allocates one-row slabs, and a miss allocates
	// none at all.
	est := 16
	probed := false
	if len(iter) == 1 && len(iter[0].eqCols) > 0 {
		f := iter[0]
		f.ids = f.tbl.LookupEqAppendAt(snap, f.ids[:0], f.eqCols, f.eqVals)
		probed = true
		if len(f.ids) < est {
			est = len(f.ids)
		}
	}
	out.rows = make([]value.Tuple, 0, est)
	out.data = make([]value.Value, 0, est*max(len(cols), 1))
	if len(s.OrderBy) > 0 {
		out.keys = make([]value.Tuple, 0, est)
		out.kdat = make([]value.Value, 0, est*len(s.OrderBy))
	}

	var rec func(i int) error
	rec = func(i int) error {
		if i == len(iter) {
			for ci, c := range conds {
				if ci < 64 && skip&(1<<uint(ci)) != 0 {
					continue
				}
				v, err := e.EvalExpr(tx, c, env)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			// Rows are carved out of one shared slab: the per-row slices
			// stay valid across slab growth (values are immutable and the
			// three-index cap stops later rows from aliasing earlier ones),
			// so N result rows cost amortized one allocation, not N.
			start := len(out.data)
			data, err := e.projectRowInto(out.data, tx, s, froms, env)
			if err != nil {
				return err
			}
			out.data = data
			out.rows = append(out.rows, out.data[start:len(out.data):len(out.data)])
			if len(s.OrderBy) > 0 {
				// Keys share one slab too (same discipline as the rows).
				kstart := len(out.kdat)
				for _, ob := range s.OrderBy {
					v, err := e.EvalExpr(tx, ob.Expr, env)
					if err != nil {
						return err
					}
					out.kdat = append(out.kdat, v)
				}
				out.keys = append(out.keys, out.kdat[kstart:len(out.kdat):len(out.kdat)])
			}
			return nil
		}
		f := iter[i]
		iterate := func(row value.Tuple) error {
			env.BindCanonical(f.binding, f.tbl.Schema(), row)
			return rec(i + 1)
		}
		if len(f.eqCols) > 0 {
			// GetRef hands back shared immutable rows, like Scan below —
			// projection copies the values it emits, so nothing aliases the
			// table after evalSelect returns.
			if !probed || i > 0 {
				f.ids = f.tbl.LookupEqAppendAt(snap, f.ids[:0], f.eqCols, f.eqVals)
			}
			for _, id := range f.ids {
				row, ok := f.tbl.GetRefAt(snap, id)
				if !ok {
					continue // row vanished between lookup and get
				}
				if err := iterate(row); err != nil {
					return err
				}
			}
			return nil
		}
		if f.rangeCol >= 0 {
			for _, id := range f.tbl.LookupRangeAt(snap, f.rangeCol, f.lo, f.hi) {
				row, ok := f.tbl.GetRefAt(snap, id)
				if !ok {
					continue
				}
				if err := iterate(row); err != nil {
					return err
				}
			}
			return nil
		}
		var iterErr error
		f.tbl.ScanAt(snap, func(_ storage.RowID, row value.Tuple) bool {
			iterErr = iterate(row)
			return iterErr == nil
		})
		return iterErr
	}
	if err := rec(0); err != nil {
		return nil, err
	}

	rows := out.rows
	if len(s.OrderBy) > 0 {
		// In-place stable sort permuting rows and keys together: no index
		// slice, no second row slice.
		sort.Stable(&rowSorter{rows: rows, keys: out.keys, by: s.OrderBy})
	}
	if s.Distinct {
		seen := make(map[string]struct{}, len(rows))
		dedup := rows[:0:0]
		for _, r := range rows {
			k := r.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

// rowSorter sorts result rows and their ORDER BY keys together, in place.
type rowSorter struct {
	rows []value.Tuple
	keys []value.Tuple
	by   []sql.OrderItem
}

func (s *rowSorter) Len() int { return len(s.rows) }

func (s *rowSorter) Less(a, b int) bool {
	ka, kb := s.keys[a], s.keys[b]
	for k, ob := range s.by {
		c := ka[k].Compare(kb[k])
		if c != 0 {
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

func (s *rowSorter) Swap(a, b int) {
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}

// evalSelectNoFrom handles constant selects like SELECT 1, 'x'.
func (e *Engine) evalSelectNoFrom(tx *txn.Txn, s *sql.Select, outer *Env) (*Result, error) {
	env := NewEnv()
	if outer != nil {
		env = outer.Child()
	}
	if s.Where != nil {
		v, err := e.EvalExpr(tx, s.Where, env)
		if err != nil {
			return nil, err
		}
		if !truthy(v) {
			return &Result{Cols: projectionCols(s, nil)}, nil
		}
	}
	row := make(value.Tuple, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("engine: SELECT * requires FROM")
		}
		v, err := e.EvalExpr(tx, it.Expr, env)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return &Result{Cols: projectionCols(s, nil), Rows: []value.Tuple{row}}, nil
}

func (e *Engine) projectRow(tx *txn.Txn, s *sql.Select, froms []*fromTable, env *Env) (value.Tuple, error) {
	row, err := e.projectRowInto(make(value.Tuple, 0, len(s.Items)), tx, s, froms, env)
	return value.Tuple(row), err
}

// projectRowInto appends the projected values of the current join row to dst.
func (e *Engine) projectRowInto(dst []value.Value, tx *txn.Txn, s *sql.Select, froms []*fromTable, env *Env) ([]value.Value, error) {
	for _, it := range s.Items {
		if it.Star {
			for _, f := range froms {
				v, _, err := bindingRow(env, f.ref.Binding(), f.tbl.Schema())
				if err != nil {
					return nil, err
				}
				dst = append(dst, v...)
			}
			continue
		}
		v, err := e.EvalExpr(tx, it.Expr, env)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// bindingRow fetches the currently bound row for a binding.
func bindingRow(env *Env, name string, schema *value.Schema) (value.Tuple, *value.Schema, error) {
	key := strings.ToLower(name)
	for e := env; e != nil; e = e.parent {
		for _, b := range e.bindings {
			if b.name == key {
				return b.row, b.schema, nil
			}
		}
	}
	return nil, schema, fmt.Errorf("engine: no binding %q", name)
}

func projectionCols(s *sql.Select, froms []*fromTable) []string {
	var cols []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			for _, f := range froms {
				for _, c := range f.tbl.Schema().Columns {
					cols = append(cols, c.Name)
				}
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				cols = append(cols, cr.Name)
			} else {
				cols = append(cols, it.Expr.String())
			}
		}
	}
	return cols
}

// orderFroms returns a cost-ranked iteration order for the nested-loop join:
// each table's candidate cardinality is estimated from the storage statistics
// (row counts, index distinct counts, ordered-index min/max) and tables are
// visited in ascending estimated order — the optimal order for this
// executor's work shape (see package plan). Only iteration order changes: the
// join is a cross product, and projection always follows the original FROM
// list. The estimate is re-costed per execution on this text path, so
// entangled templates grounding generators through EvalSelect pick up bound
// parameter values and fresh statistics every arrival.
func orderFroms(froms []*fromTable) []*fromTable {
	if len(froms) == 1 || planNaiveOrder {
		return froms // nothing to order — the common generator shape
	}
	ests := make([]float64, len(froms))
	for i, f := range froms {
		ests[i] = estimateFrom(f).Rows
	}
	out := make([]*fromTable, len(froms))
	for i, idx := range plan.Order(ests) {
		out[i] = froms[idx]
	}
	return out
}

// pushDownPredicates inspects top-level AND-ed conjuncts and attaches
// index-servable ones to the corresponding fromTable:
//
//   - binding.col = literal → hash-index equality lookup;
//   - binding.col </<=/>/>= literal and col BETWEEN a AND b → range lookup,
//     when the column carries an ordered index.
//
// A bound statement parameter counts as a literal: `dest = ?` executed
// through a prepared statement probes the index exactly like `dest = 'X'`
// in text SQL — without this, the parse-once/bind-many pipeline would trade
// the parser's allocations for full table scans.
//
// Unqualified columns are pushed only in single-table queries.
//
// The returned conds are the top-level conjuncts; skip is a bitmask of the
// ones execution need not evaluate per joined row. A conjunct is skipped
// only when its pushdown is an exact stand-in: equality values are coerced
// to the column's declared type (index probes compare with Identical, and
// stored values are always the declared type) and must be non-NULL; range
// bounds share value.Compare with evalBinary and the ordered index skips
// NULL entries, so any non-NULL bound is exact. NULL or uncoercible operands
// leave the conjunct evaluated — for equality the probe is also withheld,
// since a raw mistyped key would under-select rather than over-select.
// Conjuncts beyond the mask's 64 bits are pushed but never skipped (safe:
// re-evaluating a covered conjunct only re-confirms it).
// tighterLo/tighterHi report whether bound b narrows the scan more than the
// current bound. At equal values the exclusive bound wins: `a > 10` is
// strictly tighter than `a >= 10`.
func tighterLo(b, cur storage.Bound) bool {
	c := b.Value.Compare(cur.Value)
	return c > 0 || (c == 0 && !b.Inclusive && cur.Inclusive)
}

func tighterHi(b, cur storage.Bound) bool {
	c := b.Value.Compare(cur.Value)
	return c < 0 || (c == 0 && !b.Inclusive && cur.Inclusive)
}

func pushDownPredicates(where sql.Expr, froms []*fromTable, single bool, params value.Tuple) (conds []sql.Expr, skip uint64) {
	locate := func(cr *sql.ColumnRef) (*fromTable, int) {
		for _, f := range froms {
			if cr.Table != "" && !strings.EqualFold(cr.Table, f.ref.Binding()) {
				continue
			}
			if cr.Table == "" && !single {
				continue
			}
			if o := f.tbl.Schema().Ordinal(cr.Name); o >= 0 {
				return f, o
			}
		}
		return nil, -1
	}
	tightenLo := func(f *fromTable, o int, b storage.Bound) bool {
		if f.rangeCol >= 0 && f.rangeCol != o {
			return false // one range column per table
		}
		if !f.tbl.HasOrderedIndex(o) {
			return false
		}
		f.rangeCol = o
		if !f.lo.Set || tighterLo(b, f.lo) {
			f.lo = b
		}
		return true
	}
	tightenHi := func(f *fromTable, o int, b storage.Bound) bool {
		if f.rangeCol >= 0 && f.rangeCol != o {
			return false
		}
		if !f.tbl.HasOrderedIndex(o) {
			return false
		}
		f.rangeCol = o
		if !f.hi.Set || tighterHi(b, f.hi) {
			f.hi = b
		}
		return true
	}

	// One shape recognizer serves both the text path (resolved against
	// params right here) and the prepared planner (symbolic sources): see
	// normalizeCmpSym/srcOf in prepare.go.
	conjuncts := sql.Conjuncts(where)
	consume := func(ci int) {
		if ci < 64 {
			skip |= 1 << uint(ci)
		}
	}
	consumeRange := func(f *fromTable, ci int) {
		if ci < 64 && f.nrconj < len(f.rconj) {
			f.rconj[f.nrconj] = ci
			f.nrconj++
			skip |= 1 << uint(ci)
		}
	}
	for ci, c := range conjuncts {
		switch b := c.(type) {
		case *sql.Binary:
			cr, src, op, ok := normalizeCmpSym(b)
			if !ok {
				continue
			}
			lit, ok := src.resolve(params)
			if !ok {
				continue // unbound parameter: leave the conjunct to eval
			}
			f, o := locate(cr)
			if f == nil {
				continue
			}
			switch op {
			case sql.OpEq:
				cv, err := lit.Coerce(f.tbl.Schema().Columns[o].Type)
				if err != nil || cv.IsNull() {
					continue // probe would under-select; evaluate instead
				}
				f.eqCols = append(f.eqCols, o)
				f.eqVals = append(f.eqVals, cv)
				consume(ci)
			case sql.OpGt, sql.OpGe, sql.OpLt, sql.OpLe:
				if lit.IsNull() {
					continue // never truthy; the conjunct filters everything
				}
				var pushed bool
				switch op {
				case sql.OpGt:
					pushed = tightenLo(f, o, storage.BoundAt(lit, false))
				case sql.OpGe:
					pushed = tightenLo(f, o, storage.BoundAt(lit, true))
				case sql.OpLt:
					pushed = tightenHi(f, o, storage.BoundAt(lit, false))
				default:
					pushed = tightenHi(f, o, storage.BoundAt(lit, true))
				}
				if pushed {
					consumeRange(f, ci)
				}
			}
		case *sql.Between:
			cr, ok := b.X.(*sql.ColumnRef)
			if !ok {
				continue
			}
			loSrc, okLo := srcOf(b.Lo)
			hiSrc, okHi := srcOf(b.Hi)
			if !okLo || !okHi {
				continue
			}
			lo, okLo := loSrc.resolve(params)
			hi, okHi := hiSrc.resolve(params)
			if !okLo || !okHi {
				continue
			}
			f, o := locate(cr)
			if f == nil {
				continue
			}
			if lo.IsNull() || hi.IsNull() {
				continue
			}
			pushedLo := tightenLo(f, o, storage.BoundAt(lo, true))
			pushedHi := tightenHi(f, o, storage.BoundAt(hi, true))
			if pushedLo && pushedHi {
				consumeRange(f, ci)
			}
		}
	}
	// Post-pass per table. An index-backed equality probe wins over a range
	// scan (the discarded range conjuncts go back to being evaluated). An
	// equality WITHOUT a backing hash/PK index on a single ordered-indexed
	// column instead becomes a degenerate [v, v] range over the ordered index
	// — semantically exact for every probe value, coercion included: the scan
	// admits exactly {Compare == 0}, which agrees with SQL equality for
	// non-NULL probes across numeric types (an INT probe finds FLOAT-keyed
	// rows), and NULL probes match nothing because the index skips NULL
	// entries. The eq conjunct therefore stays masked.
	for _, f := range froms {
		if len(f.eqCols) == 0 {
			continue
		}
		if len(f.eqCols) == 1 && !f.tbl.HasEqIndex(f.eqCols) {
			if o := f.eqCols[0]; f.tbl.HasOrderedIndex(o) && (f.rangeCol < 0 || f.rangeCol == o) {
				b := storage.BoundAt(f.eqVals[0], true)
				f.rangeCol = o
				if !f.lo.Set || tighterLo(b, f.lo) {
					f.lo = b
				}
				if !f.hi.Set || tighterHi(b, f.hi) {
					f.hi = b
				}
				f.eqCols, f.eqVals = nil, f.eqVals[:0]
				continue
			}
		}
		if f.rangeCol >= 0 {
			f.rangeCol = -1
			for _, ci := range f.rconj[:f.nrconj] {
				skip &^= 1 << uint(ci)
			}
		}
	}
	return conjuncts, skip
}
