package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// snap is a snapshot of every counter the benchmark reads through public
// APIs, plus the counters on its own seams.
type snap struct {
	coord    coord.StatsSnapshot
	pool     storage.PoolStats
	txn      txn.Stats
	wal      wal.CommitStats
	walBytes int64
	netCalls int64
	netBytes int64
	rt       rtSample
}

func takeSnap(e *env, sys *core.System) snap {
	s := snap{
		coord:    sys.Coordinator().Stats(),
		txn:      sys.TxnStats(),
		walBytes: e.walCtr.wrBytes.Load(),
		netCalls: e.netCtr.calls(),
		netBytes: e.netCtr.bytes(),
	}
	s.pool, _ = sys.PoolStats()
	if w, ok := sys.WALStatsSnapshot(); ok {
		s.wal = w.Commits
	}
	s.rt = readRuntime()
	return s
}

func (s snap) poolFetches() uint64 { return s.pool.Hits + s.pool.Misses + s.pool.LoadWaits }

// attribCounters are the per-operation counter deltas the attribution phase
// takes, keyed "<class>.<counter>". Every counter but allocs repeats exactly
// for the same seed.
var attribCounters = []string{
	"pool_fetches", "pool_misses", "wal_records", "wal_bytes",
	"coord_nodes", "coord_retries", "coord_escalations", "txn_commits", "allocs",
}

// attribOps is how many operations of each class the attribution phase runs.
var attribOps = [numClasses]int{opPair: 200, opRead: 400, opScan: 200, opWrite: 20}

// attribution is the result of the single-client attribution phase.
type attribution struct {
	counts map[string]float64 // per operation, by "<class>.<counter>"
	// engineUS is the median in-process latency per class (single client,
	// no contention), through prepared statements or SQL text as the
	// workload sends them.
	engineUS [numClasses]float64
	parseUS  float64 // median sql.Parse over the workload's arrival texts
	compile  float64 // median eq.CompileSQL over the same texts
}

func classOnly(c opClass) mixFunc { return func(int, *rand.Rand) opClass { return c } }

// attribute builds a fresh instance of the workload with one warm-up client
// and no background MVCC GC, then runs each operation class alone through
// the workload's own path and takes the counter deltas per operation.
func attribute(e *env, sp *spec) (*attribution, error) {
	ae := &env{seed: e.seed, dir: e.freshDir("attrib"), sc: e.sc, attrib: true, pristine: e.pristine}
	if err := os.MkdirAll(ae.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ae.dir)
	in, err := sp.build(ae, sp, 1)
	if err != nil {
		return nil, fmt.Errorf("attribution set-up: %w", err)
	}
	defer in.close()
	a := &attribution{counts: map[string]float64{}}
	const phase = 4
	cfg := phaseCfg{phase: phase}
	gen := newGen(ae, phase, 0)
	for c := opClass(0); c < numClasses; c++ {
		n := attribOps[c]
		stream := newOpStream(ae.seed, 0, phase, classOnly(c), in.rows, in.wkeys)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = stream.next()
		}
		before := takeSnap(ae, in.sys)
		lat := make([]time.Duration, 0, n)
		for _, o := range ops {
			t0 := time.Now()
			if _, err := in.exec(ae, cfg, 0, gen, o); err != nil {
				return nil, fmt.Errorf("attribution %s: %w", className[c], err)
			}
			lat = append(lat, time.Since(t0))
		}
		after := takeSnap(ae, in.sys)
		per := func(d uint64) float64 { return float64(d) / float64(n) }
		k := className[c] + "."
		a.counts[k+"pool_fetches"] = per(after.poolFetches() - before.poolFetches())
		a.counts[k+"pool_misses"] = per(after.pool.Misses - before.pool.Misses)
		a.counts[k+"wal_records"] = per(after.wal.Records - before.wal.Records)
		a.counts[k+"wal_bytes"] = per(uint64(after.walBytes - before.walBytes))
		a.counts[k+"coord_nodes"] = per(after.coord.NodesExplored - before.coord.NodesExplored)
		a.counts[k+"coord_retries"] = per(after.coord.Retries - before.coord.Retries)
		a.counts[k+"coord_escalations"] = per(after.coord.Escalations - before.coord.Escalations)
		a.counts[k+"txn_commits"] = per(after.txn.Committed - before.txn.Committed)
		a.counts[k+"allocs"] = per(after.rt.allocObjs - before.rt.allocObjs)
		a.engineUS[c] = median(lat)
	}
	// On the wire workload the loop above timed wire round trips; the
	// engine figures come from the same statements run in-process.
	if in.local != in.exe {
		for c := opRead; c < numClasses; c++ {
			stream := newOpStream(ae.seed, 0, phase+1, classOnly(c), in.rows, in.wkeys)
			lat := make([]time.Duration, 0, attribOps[c])
			for i := 0; i < attribOps[c]; i++ {
				o := stream.next()
				t0 := time.Now()
				var err error
				switch c {
				case opRead:
					err = in.local.read(0, o.key, tctx{root: -1})
				case opScan:
					err = in.local.scan(0, o.key, tctx{root: -1})
				default:
					err = in.local.write(0, o.key, o.val, tctx{root: -1})
				}
				if err != nil {
					return nil, fmt.Errorf("attribution in-process %s: %w", className[c], err)
				}
				lat = append(lat, time.Since(t0))
			}
			a.engineUS[c] = median(lat)
		}
	}
	a.parseUS, a.compile, err = parseCompileUS(ae, phase)
	return a, err
}

// parseCompileUS times sql.Parse and eq.CompileSQL over the workload's own
// pair-arrival texts.
func parseCompileUS(e *env, phase int) (float64, float64, error) {
	gen := newGen(e, phase, 1)
	var parse, compile []time.Duration
	for i := 0; i < 400; i++ {
		q, _ := gen.PairQueries(i)
		t0 := time.Now()
		if _, err := sql.Parse(q); err != nil {
			return 0, 0, fmt.Errorf("parse arrival text: %w", err)
		}
		t1 := time.Now()
		if _, err := eq.CompileSQL(q); err != nil {
			return 0, 0, fmt.Errorf("compile arrival text: %w", err)
		}
		parse = append(parse, t1.Sub(t0))
		compile = append(compile, time.Since(t1))
	}
	return median(parse), median(compile), nil
}

// exactCounts returns the counts that must repeat exactly for a seed.
func (a *attribution) exactCounts() map[string]float64 {
	out := map[string]float64{}
	for k, v := range a.counts {
		if !strings.HasSuffix(k, ".allocs") {
			out[k] = v
		}
	}
	return out
}

func (a *attribution) String() string {
	keys := make([]string, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "attribution (1 client, per operation):\n"
	for _, k := range keys {
		s += fmt.Sprintf("  %-28s %12.3f\n", k, a.counts[k])
	}
	return s
}
