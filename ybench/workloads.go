package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// footprints spreads pairs and loners over Reservation0..7, so arrivals
// route to independent coordination lanes.
const footprints = 8

// flightKeys is the number of seeded flights (fno 100..147) plain UPDATEs
// pick from.
const flightKeys = 48

// scale sizes every workload; tests shrink it.
type scale struct {
	bookings   int // pairs-wire Bookings rows recovered from the WAL
	lcBookings int // loaded-coord Bookings rows
	loners     int // loaded-coord standing pending set
	history    int // spill-mixed History rows
	poolPages  int // spill-mixed buffer pool frames
	warmOps    int // warm-up operations per client
	setups     int // set-ups per run (setup_s is their median)
	writeEvery time.Duration
}

var fullScale = scale{
	bookings:   200_000,
	lcBookings: 20_000,
	loners:     2_000,
	history:    40_000,
	poolPages:  128,
	warmOps:    2_000,
	setups:     5,
	writeEvery: 100 * time.Millisecond,
}

// env is one benchmark process's shared state.
type env struct {
	seed int64
	dir  string // work directory for WALs and heap files
	sc   scale
	// attrib builds systems for the attribution phase: background MVCC GC
	// off, so counts repeat exactly.
	attrib bool

	tr     atomic.Pointer[tracer] // tracer the server and WAL seams record into
	netCtr ioCounters             // server-side conn reads/writes
	walCtr ioCounters             // WAL segment writes/fsyncs

	pristine string // pairs-wire: the WAL every set-up recovers a copy of
	nextDir  int
	opID     atomic.Uint64
}

// instance is one set-up system under load.
type instance struct {
	sys     *core.System
	exe     executor
	local   *localExec    // in-process view, for engine.* timings
	rows    int           // key space of reads and scans
	wkeys   int           // key space of writes
	loners  int           // standing pending queries
	recover time.Duration // time inside core.NewSystem (WAL recovery)
	setup   time.Duration
	closers []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

// spec is one workload.
type spec struct {
	name string
	// mix is the closed-loop clients' operation mix; with paced set, only
	// client 0 runs it and client 1 is the paced writer.
	mix   mixFunc
	paced bool
	// bypass lists what the workload must not touch, asserted after set-up.
	wire, walOn, pool bool
	build             func(e *env, sp *spec, warmClients int) (*instance, error)
}

const clients = 2

var specs = []*spec{
	{
		name: "pairs-wire", mix: mixPairsWire, wire: true, walOn: true,
		build: buildPairsWire,
	},
	{
		name: "loaded-coord", mix: mixLoadedCoord,
		build: buildLoadedCoord,
	},
	{
		name: "spill-mixed", mix: mixSpill, paced: true, pool: true,
		build: buildSpillMixed,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// mixPairsWire alternates pair arrivals and point reads; every 8th
// operation is a range scan and every 40th a plain UPDATE.
func mixPairsWire(n int, _ *rand.Rand) opClass {
	switch {
	case n%40 == 39:
		return opWrite
	case n%8 == 7:
		return opScan
	case n%2 == 1:
		return opRead
	}
	return opPair
}

// mixLoadedCoord is mostly pair arrivals: per 40 operations, 23 pairs,
// 8 point reads, 8 scans and one UPDATE of a flight's price, which
// triggers the auto-retry pass over the whole pending set. Reads and scans
// take under a tenth of the time.
func mixLoadedCoord(n int, _ *rand.Rand) opClass {
	switch {
	case n%40 == 39:
		return opWrite
	case n%5 == 1:
		return opRead
	case n%5 == 3:
		return opScan
	}
	return opPair
}

// mixSpill is the spill-mixed reader: 70% point reads, 20% scans, 10% pairs.
func mixSpill(_ int, r *rand.Rand) opClass {
	switch x := r.Intn(10); {
	case x < 7:
		return opRead
	case x < 9:
		return opScan
	}
	return opPair
}

func coordOpts(seed int64) coord.Options {
	return coord.Options{UseIndex: true, GroundSmallestFirst: true, Seed: seed}
}

func (e *env) gcInterval() time.Duration {
	if e.attrib {
		return -1
	}
	return 0
}

func (e *env) freshDir(kind string) string {
	e.nextDir++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", kind, e.nextDir))
}

// flightWriteParams binds the plain UPDATE of pairs-wire and loaded-coord:
// a new price for one flight. Pair queries filter on dest only, so prices never
// change which flights a pair may book.
func flightWriteParams(key, val int) value.Tuple {
	return value.NewTuple(150+float64(val%45000)/100, 100+key)
}

const flightWrite = "UPDATE Flights SET price = ? WHERE fno = ?"

func bookingStmts(seed int64) stmtSet {
	return stmtSet{
		read:        "SELECT owner FROM Bookings WHERE id = ?",
		scan:        "SELECT id FROM Bookings WHERE id BETWEEN ? AND ?",
		write:       flightWrite,
		writeParams: flightWriteParams,
		checkRead: func(id int, row value.Tuple) error {
			if want := ownerOf(seed, id); len(row) != 1 || row[0].Str() != want {
				return fmt.Errorf("read %d returned %v, want owner %s", id, row, want)
			}
			return nil
		},
	}
}

// createBookings creates Bookings(id, owner, fno, note) with an ordered
// index on id and loads n rows derived from seed. The index exists before
// the rows arrive: ids come in ascending order, so each insert appends to
// the index, where building it over a loaded table inserts into the middle
// of a sorted slice for every row (quadratic in the row count).
func createBookings(sys *core.System, seed int64, n int) error {
	if err := sys.Exec("CREATE TABLE Bookings (id INT, owner STRING, fno INT, note STRING, PRIMARY KEY (id));" +
		"CREATE ORDERED INDEX ON Bookings (id)"); err != nil {
		return err
	}
	const batch = 1000
	var b strings.Builder
	for lo := 0; lo < n; lo += batch {
		b.Reset()
		b.WriteString("INSERT INTO Bookings VALUES ")
		for id := lo; id < min(lo+batch, n); id++ {
			if id > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s', %d, 'seat %d row %d')", id, ownerOf(seed, id), 100+id%flightKeys, id%6, id%30)
		}
		if err := sys.Exec(b.String()); err != nil {
			return fmt.Errorf("load Bookings: %w", err)
		}
	}
	return nil
}

// writePristineWAL builds the pairs-wire history once per process, untimed:
// the travel catalog plus the Bookings table, logged to a WAL directory.
func (e *env) writePristineWAL() error {
	dir := filepath.Join(e.dir, "pristine")
	sys, err := workload.NewSystemConfig(e.seed, core.Config{WALPath: dir, WALCompactAfter: -1})
	if err != nil {
		return fmt.Errorf("pristine WAL: %w", err)
	}
	if err := createBookings(sys, e.seed, e.sc.bookings); err != nil {
		sys.Close()
		return err
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("pristine WAL: %w", err)
	}
	e.pristine = dir
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue // heap files; recovery rebuilds them
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func buildPairsWire(e *env, sp *spec, warmClients int) (*instance, error) {
	if e.pristine == "" {
		if err := e.writePristineWAL(); err != nil {
			return nil, err
		}
	}
	dir := e.freshDir("wal")
	if err := copyDir(e.pristine, dir); err != nil {
		return nil, fmt.Errorf("copy WAL: %w", err)
	}
	in := &instance{rows: e.sc.bookings, wkeys: flightKeys}
	in.closers = append(in.closers, func() { os.RemoveAll(dir) })

	t0 := time.Now()
	ts := e.tr.Load().begin("setup.recover", 0, -1)
	sys := core.NewSystem(core.Config{
		Coord:      coordOpts(e.seed),
		WALPath:    dir,
		WALFS:      timingFS{FS: wal.OSFS(), ctr: &e.walCtr, tr: &e.tr},
		GCInterval: e.gcInterval(),
	})
	e.tr.Load().end(ts)
	in.recover = time.Since(t0)
	if err := sys.Err(); err != nil {
		in.close()
		return nil, err
	}
	in.sys = sys
	in.closers = append(in.closers, func() { sys.Close() })

	ts = e.tr.Load().begin("setup.serve", 0, -1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	srv := server.Serve(sys, countingListener{Listener: ln, ctr: &e.netCtr, tr: &e.tr})
	in.closers = append(in.closers, func() { srv.Close() })
	var conns []*server.Client
	for c := 0; c < clients; c++ {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			in.close()
			return nil, err
		}
		conns = append(conns, cl)
		in.closers = append(in.closers, func() { cl.Close() })
	}
	e.tr.Load().end(ts)
	stmts := bookingStmts(e.seed)
	in.exe = newWireExec(conns, stmts)
	in.local = newLocalExec(sys, false, stmts, 1)
	return in, in.warm(e, sp, warmClients, t0)
}

func buildLoadedCoord(e *env, sp *spec, warmClients int) (*instance, error) {
	in := &instance{rows: e.sc.lcBookings, wkeys: flightKeys, loners: e.sc.loners}
	t0 := time.Now()
	ts := e.tr.Load().begin("setup.load", 0, -1)
	sys, err := workload.NewSystemConfig(e.seed, core.Config{GCInterval: e.gcInterval()})
	if err != nil {
		return nil, err
	}
	in.sys = sys
	in.closers = append(in.closers, func() { sys.Close() })
	if err := createBookings(sys, e.seed, in.rows); err != nil {
		in.close()
		return nil, err
	}
	e.tr.Load().end(ts)
	ts = e.tr.Load().begin("setup.preload", 0, -1)
	gen := workload.NewGenerator(workload.Config{Seed: e.seed, Footprints: footprints})
	for i := 0; i < in.loners; i++ {
		if _, err := sys.Submit(gen.LonerQuery(i), "loner"); err != nil {
			in.close()
			return nil, fmt.Errorf("preload loner %d: %w", i, err)
		}
	}
	e.tr.Load().end(ts)
	stmts := bookingStmts(e.seed)
	in.local = newLocalExec(sys, true, stmts, clients)
	in.exe = in.local
	return in, in.warm(e, sp, warmClients, t0)
}

func buildSpillMixed(e *env, sp *spec, warmClients int) (*instance, error) {
	in := &instance{rows: e.sc.history, wkeys: e.sc.history}
	t0 := time.Now()
	ts := e.tr.Load().begin("setup.load", 0, -1)
	sys, err := workload.NewSystemConfig(e.seed, core.Config{
		BufferPoolPages: e.sc.poolPages,
		PinnedRelations: []string{"Flights", "Hotels"},
		GCInterval:      e.gcInterval(),
	})
	if err != nil {
		return nil, err
	}
	in.sys = sys
	in.closers = append(in.closers, func() { sys.Close() })
	if err := sys.Exec("CREATE TABLE History (id INT, body STRING, PRIMARY KEY (id));" +
		"CREATE ORDERED INDEX ON History (id)"); err != nil {
		in.close()
		return nil, err
	}
	const batch = 250
	var b strings.Builder
	for lo := 0; lo < in.rows; lo += batch {
		b.Reset()
		b.WriteString("INSERT INTO History VALUES ")
		for id := lo; id < min(lo+batch, in.rows); id++ {
			if id > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", id, historyBody(id, 0))
		}
		if err := sys.Exec(b.String()); err != nil {
			in.close()
			return nil, fmt.Errorf("load History: %w", err)
		}
	}
	e.tr.Load().end(ts)
	if st, ok := sys.PoolStats(); !ok || st.HeapPages < 4*st.Capacity {
		in.close()
		return nil, fmt.Errorf("spill-mixed: History (%d heap pages) does not outgrow the %d-frame pool", st.HeapPages, st.Capacity)
	}
	in.local = newLocalExec(sys, false, stmtSet{
		read:  "SELECT body FROM History WHERE id = ?",
		scan:  "SELECT id FROM History WHERE id BETWEEN ? AND ?",
		write: "UPDATE History SET body = ? WHERE id = ?",
		writeParams: func(key, val int) value.Tuple {
			return value.NewTuple(historyBody(key, val), key)
		},
		checkRead: func(id int, row value.Tuple) error {
			if len(row) != 1 || !strings.HasPrefix(row[0].Str(), historyPrefix(id)) {
				return fmt.Errorf("read %d returned a row of another id: %.20v", id, row)
			}
			return nil
		},
	}, clients)
	in.exe = in.local
	return in, in.warm(e, sp, warmClients, t0)
}

// warm runs the warm-up pass, asserts the workload's bypassed layers, and
// records the set-up time from t0.
func (in *instance) warm(e *env, sp *spec, warmClients int, t0 time.Time) error {
	s := e.tr.Load().begin("setup.warmup", 0, -1)
	res := runPhase(e, in, sp, phaseCfg{phase: 1, clients: warmClients, count: e.sc.warmOps})
	e.tr.Load().end(s)
	if res.failed > 0 {
		in.close()
		return fmt.Errorf("warm-up: %d of %d operations failed: %s", res.failed, res.attempted, res.firstErr)
	}
	in.setup = time.Since(t0)
	_, poolOn := in.sys.PoolStats()
	_, walOn := in.sys.WALStatsSnapshot()
	if poolOn != sp.pool || walOn != sp.walOn {
		in.close()
		return fmt.Errorf("%s: buffer pool on=%v (want %v), WAL on=%v (want %v)", sp.name, poolOn, sp.pool, walOn, sp.walOn)
	}
	return nil
}

// liveRows counts live rows across every table, answer relations included.
func liveRows(sys *core.System) int {
	cat := sys.Catalog()
	n := 0
	for _, name := range cat.Names() {
		if t, err := cat.Get(name); err == nil {
			n += t.Len()
		}
	}
	return n
}

// answerRows counts rows in the answer relations.
func answerRows(sys *core.System) int {
	n := 0
	for _, rel := range sys.Answers().Relations() {
		n += len(sys.Answers().Tuples(rel))
	}
	return n
}
