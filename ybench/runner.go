package main

import (
	"sync"
	"time"

	"repro/internal/workload"
)

// phaseCfg describes one pass of load over an instance.
type phaseCfg struct {
	phase   int // distinct per pass: seeds the op streams and participant names
	clients int
	count   int           // operations per closed-loop client when dur is 0
	dur     time.Duration // measured duration; 0 = count-limited
	tr      *tracer       // nil = untraced
	record  bool          // keep per-operation latencies
}

// phaseResult is what a pass observed.
type phaseResult struct {
	lat                  [numClasses][]time.Duration
	at                   [numClasses][]time.Duration // completion offsets from the phase start, parallel to lat
	submit, notify, late []time.Duration
	attempted, failed    int
	firstErr             string
	elapsed              time.Duration
	span                 time.Duration // planned length of a timed phase
}

// windows is the number of equal slices a timed phase is cut into for
// windowed medians.
const windows = 8

// byWindow splits one class's latencies by completion time. Operations in
// flight at the deadline complete after it and count in the last window.
func (r *phaseResult) byWindow(c opClass) [windows][]time.Duration {
	var out [windows][]time.Duration
	for i, t := range r.at[c] {
		w := min(int(t*windows/r.span), windows-1)
		out[w] = append(out[w], r.lat[c][i])
	}
	return out
}

// windowP50 is the median over windows of each window's p50. A class too
// sparse for a p50 in every window (the paced writes of a half-length
// traced phase) falls back to the p50 of all its samples.
func (r *phaseResult) windowP50(c opClass) (float64, error) {
	var meds []float64
	for _, xs := range r.byWindow(c) {
		v, err := percentile(xs, 50)
		if err != nil {
			return percentile(append([]time.Duration(nil), r.lat[c]...), 50)
		}
		meds = append(meds, v)
	}
	return medianF(meds), nil
}

// windowRate is the median over windows of completed operations per second.
func (r *phaseResult) windowRate() float64 {
	var n [windows]int
	for c := range r.at {
		for _, t := range r.at[c] {
			n[min(int(t*windows/r.span), windows-1)]++
		}
	}
	rates := make([]float64, windows)
	for w := range n {
		rates[w] = float64(n[w]) / (r.span.Seconds() / windows)
	}
	return medianF(rates)
}

func (r *phaseResult) merge(o *phaseResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.at[c] = append(r.at[c], o.at[c]...)
	}
	r.submit = append(r.submit, o.submit...)
	r.notify = append(r.notify, o.notify...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

func (r *phaseResult) completed() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// runPhase drives cfg.clients clients against in and waits for them. The
// closed-loop clients send their next operation when the previous one
// completed; on a paced workload the second client is instead a writer
// issuing one UPDATE per scale.writeEvery, timed from its due time.
func runPhase(e *env, in *instance, sp *spec, cfg phaseCfg) *phaseResult {
	start := time.Now()
	var deadline time.Time
	if cfg.dur > 0 {
		deadline = start.Add(cfg.dur)
	}
	results := make([]*phaseResult, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		results[c] = &phaseResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sp.paced && c == 1 {
				runPaced(e, in, cfg, c, start, deadline, results[c])
			} else {
				runClosed(e, in, sp, cfg, c, start, deadline, results[c])
			}
		}()
	}
	wg.Wait()
	out := &phaseResult{}
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Since(start)
	out.span = cfg.dur
	return out
}

func newGen(e *env, phase, c int) *workload.Generator {
	return workload.NewGenerator(workload.Config{
		Seed: e.seed, Footprints: footprints, Prepared: true,
		NameOffset: phase*100_000_000 + c*10_000_000,
	})
}

func runClosed(e *env, in *instance, sp *spec, cfg phaseCfg, c int, start, deadline time.Time, res *phaseResult) {
	gen := newGen(e, cfg.phase, c)
	stream := newOpStream(e.seed, c, cfg.phase, sp.mix, in.rows, in.wkeys)
	for n := 0; ; n++ {
		if cfg.dur > 0 {
			if !time.Now().Before(deadline) {
				return
			}
		} else if n >= cfg.count {
			return
		}
		o := stream.next()
		t0 := time.Now()
		pt, err := in.exec(e, cfg, c, gen, o)
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		if cfg.record {
			res.lat[o.class] = append(res.lat[o.class], d)
			res.at[o.class] = append(res.at[o.class], time.Since(start))
			if o.class == opPair {
				res.submit = append(res.submit, pt.submit)
				res.notify = append(res.notify, pt.notify)
			}
		}
	}
}

// runPaced is the paced writer. Count-limited passes (warm-up) send a few
// writes back to back instead.
func runPaced(e *env, in *instance, cfg phaseCfg, c int, start, deadline time.Time, res *phaseResult) {
	stream := newOpStream(e.seed, c, cfg.phase, classOnly(opWrite), in.rows, in.wkeys)
	every := e.sc.writeEvery
	for i := 1; ; i++ {
		due := time.Now()
		if cfg.dur > 0 {
			due = start.Add(time.Duration(i) * every)
			if due.After(deadline) {
				return
			}
			time.Sleep(time.Until(due))
		} else if i > max(1, cfg.count/200) {
			return
		}
		late := time.Since(due)
		o := stream.next()
		_, err := in.exec(e, cfg, c, nil, o)
		d := time.Since(due)
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		if cfg.record {
			res.lat[opWrite] = append(res.lat[opWrite], d)
			res.at[opWrite] = append(res.at[opWrite], time.Since(start))
			res.late = append(res.late, late)
		}
	}
}

var rootSpan = [numClasses]string{"op.arrival", "op.read", "op.scan", "op.write"}

// exec runs one operation under a root span.
func (in *instance) exec(e *env, cfg phaseCfg, c int, gen *workload.Generator, o op) (pairTiming, error) {
	tc := tctx{tr: cfg.tr, op: e.opID.Add(1), root: -1}
	tc.root = cfg.tr.begin(rootSpan[o.class], tc.op, -1)
	defer cfg.tr.end(tc.root)
	switch o.class {
	case opPair:
		return in.exe.pair(c, gen, o.pair, tc)
	case opRead:
		return pairTiming{}, in.exe.read(c, o.key, tc)
	case opScan:
		return pairTiming{}, in.exe.scan(c, o.key, tc)
	default:
		return pairTiming{}, in.exe.write(c, o.key, o.val, tc)
	}
}
