// Command ybench is the repository's benchmark: one load-generating process
// that drives the Youtopia system through its public APIs under three
// workloads, checks every output, and prints end-to-end metrics (untraced)
// or per-layer metrics (traced) as a JSON line.
//
// Usage, from the repository root:
//
//	bash ybench/run.sh --workload pairs-wire --seed 1 --seconds 24 --trace 0
//	bash ybench/run.sh --workload all --seed 1 --seconds 24
//	bash ybench/run.sh --selftime .bench_build/traces/pairs-wire.tsv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: pairs-wire, loaded-coord, spill-mixed or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 24, "measured seconds per run (a traced run splits them between an untraced and a traced phase)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	selftime := flag.String("selftime", "", "summarize the self time of a span dump and exit")
	flag.Parse()

	if *selftime != "" {
		if err := summarize(*selftime); err != nil {
			fmt.Fprintln(os.Stderr, "ybench:", err)
			os.Exit(1)
		}
		return
	}
	var todo []*spec
	if *workloadName == "all" {
		todo = specs
	} else if sp := specByName(*workloadName); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "ybench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "ybench: --seconds must be at least 1")
		os.Exit(2)
	}

	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range todo {
		dir, err := workDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ybench:", err)
			os.Exit(1)
		}
		r, err := runWorkload(sp, runOpts{
			seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			sc: fullScale, dir: dir, traceDir: filepath.Join(".bench_build", "traces"),
		})
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ybench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		prefix := ""
		if len(todo) > 1 {
			prefix = sp.name + "/"
		}
		fmt.Printf("== %s (seed %d, %d clients): attempted=%d failed=%d correct=%v\n",
			sp.name, *seed, clients, r.Attempted, r.Failed, r.Correct)
		ms := r.e2e
		if *trace == 1 {
			ms = r.layer
		}
		for _, name := range ms.names {
			m := ms.vals[name]
			fmt.Printf("  %-36s %14.3f %s\n", name, m.Value, m.Unit)
			out.Metrics[prefix+name] = m
		}
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// e2e holds the end-to-end metrics of the untraced phase; layer, on a
	// traced run, the per-layer metrics.
	e2e, layer *metricSet
}

// runOpts configures one workload run.
type runOpts struct {
	seed     int64
	dur      time.Duration // measured time, split in two on a traced run
	traced   bool
	sc       scale
	dir      string // work directory, removed by the caller
	traceDir string // where the span dump goes; "" = no dump
}

// workDir is where a run keeps its WALs and heap files: under the
// build directory of the checkout it runs in.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// runWorkload sets the workload up sc.setups times (setup_s is the median),
// runs the measured phase on the last instance and, when traced, a traced
// phase and the attribution phase after it.
func runWorkload(sp *spec, o runOpts) (*result, error) {
	seed, dur, sc := o.seed, o.dur, o.sc
	e := &env{seed: seed, dir: o.dir, sc: sc}
	var err error

	var in *instance
	var setups, recovers []float64
	for k := 0; k < sc.setups; k++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		if in, err = sp.build(e, sp, clients); err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
		recovers = append(recovers, in.recover.Seconds())
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	setup := medianF(setups)

	res := &result{Correct: true, layer: newMetricSet()}
	check := func(r *phaseResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failed > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "ybench: %s: %d of %d operations failed; first: %s\n", sp.name, r.failed, r.attempted, r.firstErr)
		}
	}
	checkPending := func() {
		if got := in.sys.Coordinator().PendingCount(); got != in.loners {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "ybench: %s: %d queries pending after the run, want the %d loners\n", sp.name, got, in.loners)
		}
	}

	// A traced run splits its measured time evenly between the untraced and
	// the traced phase, so every run takes about as long.
	if o.traced {
		dur /= 2
	}
	plain := runPhase(e, in, sp, phaseCfg{phase: 2, clients: clients, dur: dur, record: true})
	check(plain)
	checkPending()
	var p99s [numClasses]float64
	if o.traced {
		for c := opPair; c <= opScan; c++ {
			p99s[c] = tailP99(sp, c, plain)
		}
	}
	e2e, err := endToEnd(plain, setup, in.sys)
	if err != nil {
		return nil, err
	}
	res.e2e = e2e
	if !o.traced {
		return res, nil
	}

	tr := newTracer(spanCap, spanCap)
	e.tr.Store(tr)
	before := takeSnap(e, in.sys)
	tphase := runPhase(e, in, sp, phaseCfg{phase: 3, clients: clients, dur: dur, record: true, tr: tr})
	after := takeSnap(e, in.sys)
	check(tphase)
	checkPending()
	ops := float64(tphase.completed())
	readP50, _ := percentile(append([]time.Duration(nil), tphase.lat[opRead]...), 50)
	submitUS, notifyUS := median(tphase.submit), median(tphase.notify)
	lateP90, _ := percentile(tphase.late, 90)

	// Read everything the measured instance still has to give, then close
	// it: the traced set-up and the attribution phase run without it, as
	// the measured set-ups did, and the process never holds three systems.
	te2e, err := endToEnd(tphase, 0, in.sys)
	if err != nil {
		return nil, err
	}
	pending, answers := in.sys.Coordinator().PendingCount(), answerRows(in.sys)
	recovered := 0
	if w, ok := in.sys.WALStatsSnapshot(); ok {
		recovered = w.Recovery.Records
	}
	diskB, err := diskBytesPerRow(in)
	if err != nil {
		return nil, err
	}
	in.close()
	in = nil
	runtime.GC()

	// A traced set-up, identical to the measured ones, for setup_s overhead.
	in2, err := sp.build(e, sp, clients)
	if err != nil {
		return nil, err
	}
	te2e.set("setup_s", "s", in2.setup.Seconds())
	in2.close()
	e.tr.Store(nil)
	att, err := attribute(e, sp)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, att)

	m := res.layer
	d := deltas{before, after, tphase.elapsed.Seconds()}
	m.set("server.bytes_per_op", "B", ratio(float64(d.b.netBytes-d.a.netBytes), ops))
	m.set("server.io_calls_per_op", "count", ratio(float64(d.b.netCalls-d.a.netCalls), ops))
	if sp.wire {
		m.set("server.read_overhead_us", "us", readP50-att.engineUS[opRead])
	} else {
		m.set("server.read_overhead_us", "us", 0)
	}
	m.set("sql.parse_us", "us", att.parseUS)
	m.set("eq.compile_us", "us", att.compile)
	m.set("core.submit_us", "us", submitUS)
	m.set("core.notify_us", "us", notifyUS)
	m.set("coord.nodes_per_arrival", "count", att.counts["arrival.coord_nodes"])
	m.set("coord.retries_per_arrival", "count", att.counts["arrival.coord_retries"])
	m.set("coord.escalations_per_arrival", "count", att.counts["arrival.coord_escalations"])
	m.set("coord.retries_per_write", "count", att.counts["write.coord_retries"])
	m.set("coord.ground_fail_ratio", "ratio", ratio(float64(d.b.coord.GroundingFailures-d.a.coord.GroundingFailures),
		float64(d.b.coord.GroundingAttempts-d.a.coord.GroundingAttempts)))
	m.set("coord.pending", "count", float64(pending))
	m.set("answers.rows", "count", float64(answers))
	m.set("engine.read_us", "us", att.engineUS[opRead])
	m.set("engine.scan_us", "us", att.engineUS[opScan])
	m.set("engine.write_us", "us", att.engineUS[opWrite])
	commits := float64(d.b.txn.Committed - d.a.txn.Committed)
	m.set("txn.commits_per_op", "count", ratio(commits, ops))
	m.set("txn.conflicts_per_commit", "ratio", ratio(float64(d.b.txn.WriteConflicts-d.a.txn.WriteConflicts), commits))
	m.set("txn.lock_timeouts_per_op", "count", ratio(float64(d.b.txn.Timeouts-d.a.txn.Timeouts), ops))
	m.set("txn.aborts_per_op", "count", ratio(float64(d.b.txn.Aborted-d.a.txn.Aborted), ops))
	hits, misses := float64(d.b.pool.Hits-d.a.pool.Hits), float64(d.b.pool.Misses-d.a.pool.Misses)
	m.set("storage.pool_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("storage.pool_misses_per_read", "count", att.counts["read.pool_misses"])
	m.set("storage.pool_misses_per_scan", "count", att.counts["scan.pool_misses"])
	m.set("storage.pool_fetches_per_write", "count", att.counts["write.pool_fetches"])
	m.set("storage.pool_misses_per_arrival", "count", att.counts["arrival.pool_misses"])
	m.set("storage.pool_evictions_per_s", "1/s", d.rate(d.b.pool.Evictions-d.a.pool.Evictions))
	m.set("storage.pool_load_waits_per_s", "1/s", d.rate(d.b.pool.LoadWaits-d.a.pool.LoadWaits))
	m.set("storage.pool_writebacks_per_s", "1/s", d.rate(d.b.pool.Writebacks-d.a.pool.Writebacks))
	m.set("storage.gc_reclaimed_per_s", "1/s", d.rate(d.b.txn.GCReclaimed-d.a.txn.GCReclaimed))
	m.set("storage.heap_pages", "count", float64(d.b.pool.HeapPages))
	m.set("storage.dead_slots", "count", float64(d.b.pool.DeadSlots))
	m.set("storage.reclaimed_pages", "count", float64(d.b.pool.ReclaimedPages))
	records := float64(d.b.wal.Records - d.a.wal.Records)
	m.set("wal.records_per_op", "count", ratio(records, ops))
	m.set("wal.bytes_per_op", "B", ratio(float64(d.b.walBytes-d.a.walBytes), ops))
	m.set("wal.records_per_batch", "count", ratio(records, float64(d.b.wal.Batches-d.a.wal.Batches)))
	m.set("wal.write_us", "us", median(tr.durations("wal.write")))
	m.set("wal.compactions", "count", float64(d.b.wal.Compacts-d.a.wal.Compacts))
	if sp.walOn {
		m.set("wal.recover_s", "s", medianF(recovers))
	} else {
		m.set("wal.recover_s", "s", 0)
	}
	m.set("wal.recovered_records", "count", float64(recovered))
	rt0, rt1 := d.a.rt, d.b.rt
	m.set("runtime.gc_cpu_pct", "%", 100*ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	m.set("runtime.allocs_per_op", "count", ratio(float64(rt1.allocObjs-rt0.allocObjs), ops))
	m.set("runtime.alloc_B_per_op", "B", ratio(float64(rt1.allocBytes-rt0.allocBytes), ops))
	m.set("runtime.gc_pause_p99_us", "us", histDeltaP(rt0.gcPauses, rt1.gcPauses, 99))
	m.set("runtime.sched_latency_p99_us", "us", histDeltaP(rt0.schedLat, rt1.schedLat, 99))
	m.set("bench.writer_late_p90_us", "us", lateP90)
	for c := opPair; c <= opScan; c++ {
		m.set("tail."+className[c]+"_p99_us", "us", p99s[c])
	}
	m.set("bench.dropped_spans", "count", float64(tr.ops.dropped.Load()+tr.io.dropped.Load()))
	for _, name := range e2e.names {
		m.set("trace_overhead."+name, e2e.vals[name].Unit, te2e.vals[name].Value-e2e.vals[name].Value)
	}
	m.set("storage.disk_B_per_row", "B", diskB)

	if o.traceDir != "" {
		if err := dumpTrace(tr, o.traceDir, sp.name); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "self time of the traced phase (%s):\n", sp.name)
	writeSelfTimes(os.Stderr, selfTimes(append(append([]span(nil), tr.ops.recorded()...), tr.io.recorded()...)))
	return res, nil
}

// spanCap bounds each span buffer (32 B a span); spans past it are counted
// in bench.dropped_spans, not recorded.
const spanCap = 1 << 20

// deltas is a pair of snapshots around a phase.
type deltas struct {
	a, b snap
	secs float64
}

func (d deltas) rate(n uint64) float64 { return ratio(float64(n), d.secs) }

// endToEnd computes the end-to-end metrics of a phase: throughput and
// medians as the median over the phase's windows (a burst of noise on the
// shared machine spoils one window, not the figure), tails over all the
// phase's samples. Tails are p95 (p90 for the sparse writes): p99 sits on
// the edge of a ~4 ms scheduler-tick mode that about 1% of operations hit,
// and swings with it from run to run; p99s are per-layer metrics. It drops
// the
// phase's samples before measuring the live heap, so the benchmark's own
// buffers do not count as the system's bytes.
func endToEnd(r *phaseResult, setup float64, sys *core.System) (*metricSet, error) {
	m := newMetricSet()
	m.set("setup_s", "s", setup)
	m.set("ops_per_s", "1/s", r.windowRate())
	for _, q := range []struct {
		class opClass
		p     float64
	}{{opPair, 50}, {opPair, 95}, {opRead, 50}, {opRead, 95}, {opScan, 50}, {opScan, 95}, {opWrite, 50}, {opWrite, 90}} {
		name := fmt.Sprintf("%s_p%g_us", className[q.class], q.p)
		var v float64
		var err error
		if q.p == 50 {
			v, err = r.windowP50(q.class)
		} else {
			v, err = percentile(append([]time.Duration(nil), r.lat[q.class]...), q.p)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w (run longer)", name, err)
		}
		m.set(name, "us", v)
	}
	r.lat = [numClasses][]time.Duration{}
	r.submit, r.notify, r.late = nil, nil, nil
	// A background WAL compaction still in flight holds a scratch replay of
	// the whole catalog; Compact waits for it (and folds in the tail), so
	// the live heap is the system's own. Without a WAL it does nothing.
	if err := sys.Compact(); err != nil {
		return nil, fmt.Errorf("compact before measuring the live heap: %w", err)
	}
	m.set("live_B_per_row", "B", ratio(float64(liveHeapBytes()), float64(liveRows(sys))))
	return m, nil
}

// tailP99 is a class's p99 over the untraced phase, or 0 (with a note)
// when the phase holds too few samples for one.
func tailP99(sp *spec, c opClass, r *phaseResult) float64 {
	v, err := percentile(append([]time.Duration(nil), r.lat[c]...), 99)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ybench: %s: tail.%s_p99_us: %v\n", sp.name, className[c], err)
	}
	return v
}

// diskBytesPerRow forces a quiescent point (checkpoint: pool flush and WAL
// compaction; then an explicit GC sweep) and divides WAL segment bytes plus
// heap pages by live rows.
func diskBytesPerRow(in *instance) (float64, error) {
	if err := in.sys.Checkpoint(); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	in.sys.Catalog().GC()
	var bytes int64
	if w, ok := in.sys.WALStatsSnapshot(); ok {
		for _, s := range w.Segments {
			bytes += s.Bytes
		}
	}
	if st, ok := in.sys.PoolStats(); ok {
		bytes += int64(st.HeapPages) * pageBytes
	}
	return ratio(float64(bytes), float64(liveRows(in.sys))), nil
}

// pageBytes is the heap page size.
const pageBytes = 8 << 10

// dumpTrace writes the traced phase's spans to dir/<workload>.tsv,
// replacing the previous traced run's dump.
func dumpTrace(tr *tracer, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return err
	}
	if err := tr.dump(f); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// summarize prints the self-time summary of a span dump.
func summarize(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		return err
	}
	writeSelfTimes(os.Stdout, selfTimes(spans))
	return nil
}
