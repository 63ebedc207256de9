package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/workload"
)

// pairTimeout bounds the wait for a pair's outcomes; an unanswered pair
// counts as a failed operation.
const pairTimeout = 5 * time.Second

// tctx carries one operation's trace context: the tracer (nil when
// untraced), the operation id and the root span its calls hang under.
type tctx struct {
	tr   *tracer
	op   uint64
	root int32
}

func (t tctx) child(name string) int32 { return t.tr.begin(name, t.op, t.root) }
func (t tctx) end(i int32)             { t.tr.end(i) }

// pairTiming splits a pair's latency at the second submit's return:
// submit is the time inside that call (route, search, ground, install,
// commit), notify the time from its return until both outcomes arrived.
type pairTiming struct{ submit, notify time.Duration }

// stmtSet names one workload's plain statements, as ?-templates.
type stmtSet struct {
	read, scan, write string
	// writeParams binds a write's key and payload.
	writeParams func(key, val int) value.Tuple
	// checkRead verifies a point read's single row.
	checkRead func(id int, row value.Tuple) error
}

// executor runs and checks one operation of each class for client c.
type executor interface {
	pair(c int, gen *workload.Generator, i int, tc tctx) (pairTiming, error)
	read(c, key int, tc tctx) error
	scan(c, key int, tc tctx) error
	write(c, key, val int, tc tctx) error
}

// samePair checks that both queries of a pair were answered with the same
// flight.
func samePair(a, b []coord.Answer) error {
	if len(a) == 0 || len(b) == 0 || len(a[0].Tuples) == 0 || len(b[0].Tuples) == 0 {
		return errors.New("pair answered without answer tuples")
	}
	fa, fb := a[0].Tuples[0], b[0].Tuples[0]
	if len(fa) < 2 || len(fb) < 2 || !fa[1].Equal(fb[1]) {
		return fmt.Errorf("pair answered with different flights: %v vs %v", fa, fb)
	}
	return nil
}

func checkScan(key, n int) error {
	if n != scanRows {
		return fmt.Errorf("scan from id %d returned %d rows, want %d", key, n, scanRows)
	}
	return nil
}

func checkAffected(key, n int) error {
	if n != 1 {
		return fmt.Errorf("update of key %d affected %d rows, want 1", key, n)
	}
	return nil
}

func scanParams(key int) value.Tuple { return value.NewTuple(key, key+scanRows-1) }

// localExec runs operations in-process against a core.System. In text
// mode every statement and arrival is rendered to SQL text and sent through
// System.Submit / System.Query, the way ad-hoc users send them (sql.Parse
// and eq compile run per call); otherwise they go through prepared
// statements.
type localExec struct {
	sys   *core.System
	text  bool
	stmts stmtSet
	// prepared caches per client; each client goroutine owns its map.
	prepared []map[string]*core.PreparedStmt
	// timers bound each client's pair waits; reused across pairs (Go 1.23
	// timers drop a stale expiry on Reset).
	timers []*time.Timer
}

func newLocalExec(sys *core.System, text bool, stmts stmtSet, clients int) *localExec {
	d := &localExec{sys: sys, text: text, stmts: stmts}
	for c := 0; c < clients; c++ {
		d.prepared = append(d.prepared, map[string]*core.PreparedStmt{})
		t := time.NewTimer(time.Hour)
		t.Stop()
		d.timers = append(d.timers, t)
	}
	return d
}

func (d *localExec) stmt(c int, tmpl string, tc tctx) (*core.PreparedStmt, error) {
	if ps := d.prepared[c][tmpl]; ps != nil {
		return ps, nil
	}
	sp := tc.child("core.prepare")
	ps, err := d.sys.Prepare(tmpl)
	tc.end(sp)
	if err != nil {
		return nil, fmt.Errorf("prepare %q: %w", tmpl, err)
	}
	d.prepared[c][tmpl] = ps
	return ps, nil
}

func (d *localExec) submit(c int, q workload.Req, owner string, tc tctx, name string) (*coord.Handle, error) {
	if d.text {
		sp := tc.child(name)
		h, err := d.sys.Submit(q.SQL, owner)
		tc.end(sp)
		return h, err
	}
	ps, err := d.stmt(c, q.SQL, tc)
	if err != nil {
		return nil, err
	}
	sp := tc.child(name)
	h, err := ps.SubmitBound(q.Params, owner)
	tc.end(sp)
	return h, err
}

func (d *localExec) pair(c int, gen *workload.Generator, i int, tc tctx) (pairTiming, error) {
	var a, b workload.Req
	if d.text {
		qa, qb := gen.PairQueries(i)
		a, b = workload.Req{SQL: qa}, workload.Req{SQL: qb}
	} else {
		a, b = gen.PairReqs(i)
	}
	ha, err := d.submit(c, a, "bench", tc, "core.submit_a")
	if err != nil {
		return pairTiming{}, fmt.Errorf("submit pair %d a: %w", i, err)
	}
	t1 := time.Now()
	hb, err := d.submit(c, b, "bench", tc, "core.submit_b")
	t2 := time.Now()
	if err != nil {
		d.sys.Cancel(ha.ID)
		return pairTiming{}, fmt.Errorf("submit pair %d b: %w", i, err)
	}
	sp := tc.child("core.wait")
	timer := d.timers[c]
	timer.Reset(pairTimeout)
	oa, okA := waitHandle(ha, timer.C)
	ob, okB := waitHandle(hb, timer.C)
	timer.Stop()
	tc.end(sp)
	t3 := time.Now()
	if !okA || !okB || oa.Canceled || ob.Canceled {
		d.sys.Cancel(ha.ID)
		d.sys.Cancel(hb.ID)
		return pairTiming{}, fmt.Errorf("pair %d not answered within %s", i, pairTimeout)
	}
	if err := samePair(oa.Answers, ob.Answers); err != nil {
		return pairTiming{}, fmt.Errorf("pair %d: %w", i, err)
	}
	return pairTiming{submit: t2.Sub(t1), notify: t3.Sub(t2)}, nil
}

func waitHandle(h *coord.Handle, timeout <-chan time.Time) (coord.Outcome, bool) {
	select {
	case o := <-h.Done():
		return o, true
	case <-timeout:
		return coord.Outcome{}, false
	}
}

// exec runs one plain statement and returns its result.
func (d *localExec) exec(c int, tmpl string, params value.Tuple, tc tctx) (*core.Response, error) {
	var resp *core.Response
	var err error
	if d.text {
		src := renderSQL(tmpl, params)
		sp := tc.child("core.execute")
		resp, err = d.sys.Execute(src, "")
		tc.end(sp)
	} else {
		var ps *core.PreparedStmt
		if ps, err = d.stmt(c, tmpl, tc); err != nil {
			return nil, err
		}
		sp := tc.child("core.execute")
		resp, err = ps.ExecuteBound(params, "")
		tc.end(sp)
	}
	if err == nil && resp.Result == nil {
		err = errors.New("statement returned no result")
	}
	return resp, err
}

func (d *localExec) read(c, key int, tc tctx) error {
	resp, err := d.exec(c, d.stmts.read, value.NewTuple(key), tc)
	if err != nil {
		return fmt.Errorf("read %d: %w", key, err)
	}
	if n := len(resp.Result.Rows); n != 1 {
		return fmt.Errorf("read %d returned %d rows, want 1", key, n)
	}
	return d.stmts.checkRead(key, resp.Result.Rows[0])
}

func (d *localExec) scan(c, key int, tc tctx) error {
	resp, err := d.exec(c, d.stmts.scan, scanParams(key), tc)
	if err != nil {
		return fmt.Errorf("scan %d: %w", key, err)
	}
	return checkScan(key, len(resp.Result.Rows))
}

func (d *localExec) write(c, key, val int, tc tctx) error {
	resp, err := d.exec(c, d.stmts.write, d.stmts.writeParams(key, val), tc)
	if err != nil {
		return fmt.Errorf("write %d: %w", key, err)
	}
	return checkAffected(key, resp.Result.Affected)
}

// wireExec runs operations over wire protocol v2, one server.Client per
// benchmark client, every statement prepared once per connection.
type wireExec struct {
	conns    []*server.Client
	stmts    stmtSet
	prepared []map[string]*server.Stmt
	timers   []*time.Timer
}

func newWireExec(conns []*server.Client, stmts stmtSet) *wireExec {
	d := &wireExec{conns: conns, stmts: stmts}
	for range conns {
		d.prepared = append(d.prepared, map[string]*server.Stmt{})
		t := time.NewTimer(time.Hour)
		t.Stop()
		d.timers = append(d.timers, t)
	}
	return d
}

func (d *wireExec) stmt(c int, tmpl string, tc tctx) (*server.Stmt, error) {
	if st := d.prepared[c][tmpl]; st != nil {
		return st, nil
	}
	sp := tc.child("client.prepare")
	st, err := d.conns[c].Prepare(tmpl)
	tc.end(sp)
	if err != nil {
		return nil, fmt.Errorf("prepare %q: %w", tmpl, err)
	}
	d.prepared[c][tmpl] = st
	return st, nil
}

func (d *wireExec) pair(c int, gen *workload.Generator, i int, tc tctx) (pairTiming, error) {
	a, b := gen.PairReqs(i)
	st, err := d.stmt(c, a.SQL, tc)
	if err != nil {
		return pairTiming{}, err
	}
	ctx := context.Background()
	sp := tc.child("client.submit_a")
	_, evA, err := st.SubmitContext(ctx, "bench", a.Params)
	tc.end(sp)
	if err != nil {
		return pairTiming{}, fmt.Errorf("submit pair %d a: %w", i, err)
	}
	t1 := time.Now()
	sp = tc.child("client.submit_b")
	_, evB, err := st.SubmitContext(ctx, "bench", b.Params)
	tc.end(sp)
	t2 := time.Now()
	if err != nil {
		return pairTiming{}, fmt.Errorf("submit pair %d b: %w", i, err)
	}
	sp = tc.child("client.wait")
	timer := d.timers[c]
	timer.Reset(pairTimeout)
	ea, okA := waitEvent(evA, timer.C)
	eb, okB := waitEvent(evB, timer.C)
	timer.Stop()
	tc.end(sp)
	t3 := time.Now()
	if !okA || !okB || ea.Canceled || eb.Canceled {
		return pairTiming{}, fmt.Errorf("pair %d not answered within %s", i, pairTimeout)
	}
	if err := samePair(clientAnswers(ea), clientAnswers(eb)); err != nil {
		return pairTiming{}, fmt.Errorf("pair %d: %w", i, err)
	}
	return pairTiming{submit: t2.Sub(t1), notify: t3.Sub(t2)}, nil
}

func waitEvent(ev <-chan server.Event, timeout <-chan time.Time) (server.Event, bool) {
	select {
	case e := <-ev:
		return e, true
	case <-timeout:
		return server.Event{}, false
	}
}

func clientAnswers(e server.Event) []coord.Answer {
	out := make([]coord.Answer, len(e.Answers))
	for i, a := range e.Answers {
		out[i] = coord.Answer{Relation: a.Relation, Tuples: a.Tuples}
	}
	return out
}

func (d *wireExec) query(c int, tmpl string, params value.Tuple, tc tctx) (*server.QueryResult, error) {
	st, err := d.stmt(c, tmpl, tc)
	if err != nil {
		return nil, err
	}
	sp := tc.child("client.query")
	res, err := st.QueryContext(context.Background(), params)
	tc.end(sp)
	return res, err
}

func (d *wireExec) read(c, key int, tc tctx) error {
	res, err := d.query(c, d.stmts.read, value.NewTuple(key), tc)
	if err != nil {
		return fmt.Errorf("read %d: %w", key, err)
	}
	if n := len(res.Rows); n != 1 {
		return fmt.Errorf("read %d returned %d rows, want 1", key, n)
	}
	return d.stmts.checkRead(key, res.Rows[0])
}

func (d *wireExec) scan(c, key int, tc tctx) error {
	res, err := d.query(c, d.stmts.scan, scanParams(key), tc)
	if err != nil {
		return fmt.Errorf("scan %d: %w", key, err)
	}
	return checkScan(key, len(res.Rows))
}

func (d *wireExec) write(c, key, val int, tc tctx) error {
	res, err := d.query(c, d.stmts.write, d.stmts.writeParams(key, val), tc)
	if err != nil {
		return fmt.Errorf("write %d: %w", key, err)
	}
	return checkAffected(key, res.Affected)
}
