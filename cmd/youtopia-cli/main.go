// Command youtopia-cli is the demo's second application (§2.2): "an SQL
// command line interface which allows SQL and entangled queries to be input
// directly to the system by the user."
//
// Statements end with ';'. Entangled queries are registered and answered
// asynchronously; the CLI prints the answer when the coordination component
// delivers it. Meta commands:
//
//	\seed      load the demo travel catalog (Flights/Hotels/SeatPairs)
//	\fig1      load exactly the Figure 1(a) database
//	\state     dump the coordination component's internal state
//	\stats     coordination counters (typed; JSON under -json)
//	\wal       durability-layer snapshot (segments, group-commit counters)
//	\pool      buffer-pool snapshot (hit ratio, evictions, heap footprint)
//	\pending   list pending entangled queries
//	\why <id>  diagnose why a query is still pending
//	\dot       entanglement graph in Graphviz DOT
//	\prepare <name> <sql>   compile a statement with ? / $n placeholders once
//	\exec <name> [args...]  bind arguments and run it (parse-once/bind-many);
//	           \prepare alone lists the prepared statements
//	\help      this text
//	\quit      exit
//
// Prefix a statement with EXPLAIN to print an entangled query's compiled
// form (heads, constraints, generators, safety) without executing it.
// BEGIN/COMMIT/ROLLBACK open interactive transactions.
//
// The -json flag switches the introspection meta commands (\stats,
// \shards, \pending, \wal, \txn, \repl, \pool) to machine-readable JSON —
// the same typed snapshots the wire protocol v2 admin surface serves.
//
// Usage:
//
//	youtopia-cli [-seed] [-owner NAME] [-json]
//	echo "SELECT ...;" | youtopia-cli -seed
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/sql"
	"repro/internal/travel"
	"repro/internal/value"
)

func main() {
	seed := flag.Bool("seed", false, "preload the demo travel catalog")
	owner := flag.String("owner", "cli", "owner label for entangled queries")
	walPath := flag.String("wal", "", "write-ahead log directory (enables durability)")
	walSync := flag.Bool("walsync", false, "fsync each statement's records (group-committed)")
	poolPages := flag.Int("pool-pages", 0, "buffer-pool frames of 8 KiB; >0 pages cold tables to disk")
	poolShards := flag.Int("pool-shards", 0, "buffer-pool shards; 0 auto-sizes")
	pin := flag.String("pin", "", "comma-separated relations kept fully in memory with -pool-pages")
	jsonOut := flag.Bool("json", false, "render \\stats/\\shards/\\pending/\\wal/\\txn/\\repl/\\pool as JSON")
	flag.Parse()
	metaJSON = *jsonOut

	cfg := core.Config{WALPath: *walPath, WALSync: *walSync, BufferPoolPages: *poolPages, BufferPoolShards: *poolShards}
	if *pin != "" {
		for _, name := range strings.Split(*pin, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.PinnedRelations = append(cfg.PinnedRelations, name)
			}
		}
	}
	sys := core.NewSystem(cfg)
	if err := sys.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sys.Close()
	cli := &session{sys: sys, sess: core.NewSession(sys), owner: *owner}
	defer cli.sess.Close()
	if *seed {
		if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
			fmt.Fprintln(os.Stderr, "seed:", err)
			os.Exit(1)
		}
		fmt.Println("-- demo travel catalog loaded")
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf strings.Builder
	interactive := isTerminalLike()
	if interactive {
		fmt.Println("Youtopia SQL interface. Statements end with ';'.  \\help for help.")
		fmt.Print("youtopia> ")
	}
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, `\`) {
			if !meta(cli, sys, trimmed) {
				cli.drain()
				return
			}
			cli.poll()
			if interactive {
				fmt.Print("youtopia> ")
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			cli.run(buf.String())
			buf.Reset()
		}
		cli.poll()
		if interactive {
			fmt.Print("youtopia> ")
		}
	}
	if strings.TrimSpace(buf.String()) != "" {
		cli.run(buf.String())
	}
	cli.drain()
}

// session tracks entangled queries awaiting answers so their outcomes print
// deterministically (no goroutine races with process exit).
type session struct {
	sys         *core.System
	sess        *core.Session
	owner       string
	outstanding []*coord.Handle
	// prepared holds the \prepare'd statements by name for \exec.
	prepared map[string]*core.PreparedStmt
}

// poll prints outcomes that have arrived since the last statement.
func (c *session) poll() {
	kept := c.outstanding[:0]
	for _, h := range c.outstanding {
		if out, ok := h.TryOutcome(); ok {
			printOutcome(out)
		} else {
			kept = append(kept, h)
		}
	}
	c.outstanding = kept
}

// drain waits briefly at exit for any still-outstanding answers.
func (c *session) drain() {
	done := make(chan struct{})
	timer := time.AfterFunc(200*time.Millisecond, func() { close(done) })
	defer timer.Stop()
	for _, h := range c.outstanding {
		if out, ok := h.Wait(done); ok {
			printOutcome(out)
		} else {
			fmt.Printf("-- q%d still pending at exit\n", h.ID)
		}
	}
	c.outstanding = nil
}

func isTerminalLike() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && (fi.Mode()&os.ModeCharDevice) != 0
}

// metaJSON switches the introspection meta commands to JSON output.
var metaJSON bool

// printJSON renders any typed admin snapshot machine-readably.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Println("error:", err)
	}
}

func meta(cli *session, sys *core.System, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case `\quit`, `\q`:
		return false
	case `\explain`:
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, `\explain`))
		if rest == "" {
			fmt.Println("usage: \\explain <sql>")
			break
		}
		cli.explain(strings.TrimSuffix(rest, ";"))
	case `\prepare`:
		cli.metaPrepare(cmd)
	case `\exec`:
		cli.metaExec(cmd)
	case `\seed`:
		if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("-- demo travel catalog loaded")
		}
	case `\fig1`:
		if err := travel.SeedFigure1(sys); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("-- Figure 1(a) database loaded")
		}
	case `\state`:
		fmt.Print(sys.Coordinator().DumpState())
	case `\stats`:
		if metaJSON {
			printJSON(sys.Coordinator().Stats())
			break
		}
		fmt.Printf("%+v\n", sys.Coordinator().Stats())
	case `\shards`:
		if metaJSON {
			printJSON(sys.Coordinator().Shards())
			break
		}
		for _, si := range sys.Coordinator().Shards() {
			fmt.Printf("shard %d: pending=%d relations=%v matches=%d answered=%d escalations=%d\n",
				si.ID, si.Pending, si.Relations, si.Stats.Matches, si.Stats.Answered, si.Stats.Escalations)
		}
	case `\txn`:
		st := sys.TxnStats()
		if metaJSON {
			printJSON(st)
			break
		}
		fmt.Print(st)
	case `\wal`:
		st, ok := sys.WALStatsSnapshot()
		if !ok {
			fmt.Println("not durable (run with -wal DIR)")
			break
		}
		if metaJSON {
			printJSON(st)
			break
		}
		fmt.Print(st)
	case `\repl`:
		st := sys.ReplStatus()
		if metaJSON {
			printJSON(st)
			break
		}
		fmt.Print(st.String())
	case `\pool`:
		st, ok := sys.PoolStats()
		if !ok {
			fmt.Println("no buffer pool (run with -pool-pages N)")
			break
		}
		if metaJSON {
			printJSON(st)
			break
		}
		fmt.Print(st)
	case `\dot`:
		fmt.Print(sys.Coordinator().DOT())
	case `\why`:
		fields := strings.Fields(cmd)
		if len(fields) != 2 {
			fmt.Println("usage: \\why <query-id>")
			break
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "q"), 10, 64)
		if err != nil {
			fmt.Println("bad query id:", fields[1])
			break
		}
		d, ok := sys.Coordinator().Diagnose(id)
		if !ok {
			fmt.Printf("q%d is not pending\n", id)
			break
		}
		fmt.Printf("q%d: %s\n  %s\n", d.ID, d.Summary, d.Logic)
		for _, cd := range d.PerConstraint {
			fmt.Printf("  %s — %d pending head(s), %d installed answer(s)\n",
				cd.Constraint, cd.PendingHeads, cd.InstalledHits)
		}
	case `\pending`:
		if metaJSON {
			printJSON(sys.Coordinator().Pending())
			break
		}
		for _, p := range sys.Coordinator().Pending() {
			fmt.Printf("q%d [%s] waiting %s: %s\n", p.ID, p.Owner, p.Waiting.Round(1e6), p.Logic)
		}
	case `\help`:
		fmt.Println(`\seed \fig1 \state \stats \shards \wal \txn \repl \pool \pending \why <id> \dot \explain <sql> \prepare <name> <sql> \exec <name> [args...] \quit — SQL statements end with ';'. Prefix EXPLAIN (or use \explain) to see a statement's access plan; entangled queries also show their compiled form. -json renders \stats/\shards/\pending/\wal/\txn/\repl/\pool machine-readably.
\prepare compiles a statement with ? / $n placeholders once; \exec binds arguments (numbers, 'strings', NULL) and runs it — parse-once/bind-many from the shell.`)
	default:
		fmt.Println("unknown meta command; \\help for help")
	}
	return true
}

// metaPrepare handles `\prepare <name> <sql with ? placeholders>`.
func (c *session) metaPrepare(cmd string) {
	rest := strings.TrimSpace(strings.TrimPrefix(cmd, `\prepare`))
	name, src, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		if len(c.prepared) == 0 {
			fmt.Println("usage: \\prepare <name> <sql>   (no statements prepared yet)")
			return
		}
		for n, ps := range c.prepared {
			kind := "plain"
			if ps.Entangled() {
				kind = "entangled"
			}
			fmt.Printf("%s: %s, %d parameter(s)\n", n, kind, ps.NumParams())
		}
		return
	}
	src = strings.TrimSuffix(strings.TrimSpace(src), ";")
	ps, err := c.sess.Prepare(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if c.prepared == nil {
		c.prepared = make(map[string]*core.PreparedStmt)
	}
	c.prepared[name] = ps
	fmt.Printf("-- prepared %q: %d parameter(s), entangled=%v\n", name, ps.NumParams(), ps.Entangled())
}

// metaExec handles `\exec <name> [arg ...]`; arguments parse as numbers,
// 'quoted strings' (or bare words), TRUE/FALSE, and NULL.
func (c *session) metaExec(cmd string) {
	fields := splitArgs(strings.TrimSpace(strings.TrimPrefix(cmd, `\exec`)))
	if len(fields) == 0 {
		fmt.Println("usage: \\exec <name> [args...]")
		return
	}
	ps := c.prepared[fields[0]]
	if ps == nil {
		fmt.Printf("no prepared statement %q (use \\prepare)\n", fields[0])
		return
	}
	params := make(value.Tuple, 0, len(fields)-1)
	for _, a := range fields[1:] {
		params = append(params, parseArg(a))
	}
	resp, err := c.sess.ExecutePrepared(ps, params, c.owner)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c.printResponse(resp)
}

// splitArgs splits on spaces outside single quotes.
func splitArgs(s string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch == '\'':
			inStr = !inStr
			b.WriteByte(ch)
		case ch == ' ' && !inStr:
			flush()
		default:
			b.WriteByte(ch)
		}
	}
	flush()
	return out
}

// parseArg converts one \exec argument to a typed value.
func parseArg(a string) value.Value {
	if len(a) >= 2 && a[0] == '\'' && a[len(a)-1] == '\'' {
		return value.NewString(strings.ReplaceAll(a[1:len(a)-1], "''", "'"))
	}
	switch strings.ToUpper(a) {
	case "NULL":
		return value.Null
	case "TRUE":
		return value.NewBool(true)
	case "FALSE":
		return value.NewBool(false)
	}
	if n, err := strconv.ParseInt(a, 10, 64); err == nil {
		return value.NewInt(n)
	}
	if f, err := strconv.ParseFloat(a, 64); err == nil {
		return value.NewFloat(f)
	}
	return value.NewString(a)
}

func (c *session) run(script string) {
	for _, stmt := range splitStatements(script) {
		if rest, ok := stripExplain(stmt); ok {
			c.explain(rest)
			continue
		}
		resp, err := c.sess.Execute(stmt, c.owner)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		c.printResponse(resp)
	}
}

// printResponse renders one execution outcome (shared by SQL input and
// \exec of prepared statements).
func (c *session) printResponse(resp *core.Response) {
	if resp.Entangled {
		h := resp.Handle
		if out, ok := h.TryOutcome(); ok {
			printOutcome(out)
			return
		}
		fmt.Printf("-- entangled query registered as q%d; waiting for coordination\n", h.ID)
		c.outstanding = append(c.outstanding, h)
		return
	}
	res := resp.Result
	if res == nil { // transaction control (BEGIN/COMMIT/ROLLBACK)
		fmt.Println("OK")
		return
	}
	if len(res.Cols) > 0 {
		fmt.Println(strings.Join(res.Cols, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
	} else {
		fmt.Printf("OK (%d affected)\n", res.Affected)
	}
}

// stripExplain detects a leading EXPLAIN keyword (CLI extension).
func stripExplain(stmt string) (string, bool) {
	trimmed := strings.TrimSpace(stmt)
	if len(trimmed) >= 8 && strings.EqualFold(trimmed[:7], "EXPLAIN") &&
		(trimmed[7] == ' ' || trimmed[7] == '\t' || trimmed[7] == '\n') {
		return trimmed[8:], true
	}
	return "", false
}

// explain prints the access plan without executing. Plain statements show
// the cost-based planner's choices (access paths, join order, estimates);
// entangled queries additionally show the compiler's coordination analysis.
func (c *session) explain(src string) {
	stmt, err := sql.Parse(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if es, ok := stmt.(*sql.EntangledSelect); ok {
		q, err := eq.Compile(es)
		if err != nil {
			fmt.Println("compile error:", err)
			return
		}
		fmt.Print(eq.Explain(q))
	}
	d, err := c.sys.Explain(src, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(d.String())
}

func printOutcome(out coord.Outcome) {
	if out.Canceled {
		fmt.Printf("-- q%d canceled\n", out.QueryID)
		return
	}
	fmt.Printf("-- q%d answered (match of %d):\n", out.QueryID, out.MatchSize)
	for _, a := range out.Answers {
		for _, tup := range a.Tuples {
			fmt.Printf("--   %s%s\n", a.Relation, tup)
		}
	}
}

// splitStatements splits a script on top-level semicolons (string literals
// respected).
func splitStatements(script string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		ch := script[i]
		if ch == '\'' {
			inStr = !inStr
		}
		if ch == ';' && !inStr {
			if s := strings.TrimSpace(b.String()); s != "" {
				out = append(out, s)
			}
			b.Reset()
			continue
		}
		b.WriteByte(ch)
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}
