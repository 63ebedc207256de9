package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// A span records one call the benchmark made into a layer. Spans live in a
// fixed, preallocated buffer (no locks, no growth while measuring) and are
// written out when the run ends. Operation spans form one tree per
// operation: a root per operation, children for each call it made. Conn and
// wal.FS spans have no parent — group commit and the server's writer
// goroutine break the link to a single request — and are attributed by
// count.
type span struct {
	name   uint8  // index into spanNames
	parent int32  // index of the parent span, -1 for roots and unparented
	op     uint64 // operation id; 0 for unparented spans
	start  int64  // ns since the tracer started
	end    int64
}

// spanNames lists every span the benchmark records.
var spanNames = []string{
	"op.arrival", "op.read", "op.scan", "op.write",
	"core.prepare", "core.submit_a", "core.submit_b", "core.wait", "core.execute",
	"client.prepare", "client.submit_a", "client.submit_b", "client.wait", "client.query",
	"conn.read", "conn.write", "wal.write", "wal.sync",
	"setup.recover", "setup.serve", "setup.load", "setup.preload", "setup.warmup",
}

var spanIndex = func() map[string]uint8 {
	m := make(map[string]uint8, len(spanNames))
	for i, n := range spanNames {
		m[n] = uint8(i)
	}
	return m
}()

// spanID returns the index of a span name; recording an unlisted name is a
// bug in the benchmark.
func spanID(name string) uint8 {
	id, ok := spanIndex[name]
	if !ok {
		panic("ybench: unlisted span name " + name)
	}
	return id
}

// tracer is a bounded in-memory span store. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site.
type tracer struct {
	t0      time.Time
	ops, io spanBuf
}

type spanBuf struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(opCap, ioCap int) *tracer {
	t := &tracer{t0: time.Now()}
	t.ops.spans = make([]span, opCap)
	t.io.spans = make([]span, ioCap)
	return t
}

func (b *spanBuf) begin(t0 time.Time, name string, op uint64, parent int32) int32 {
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	b.spans[i] = span{name: spanID(name), op: op, parent: parent, start: int64(time.Since(t0))}
	return int32(i)
}

func (b *spanBuf) end(t0 time.Time, i int32) {
	if i >= 0 {
		b.spans[i].end = int64(time.Since(t0))
	}
}

func (b *spanBuf) recorded() []span {
	n := b.next.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// begin opens an operation span; parent -1 makes it a root.
func (t *tracer) begin(name string, op uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.ops.begin(t.t0, name, op, parent)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.ops.end(t.t0, i)
	}
}

// ioBegin opens an unparented I/O span (conn read/write, wal write/sync).
func (t *tracer) ioBegin(name string) int32 {
	if t == nil {
		return -1
	}
	return t.io.begin(t.t0, name, 0, -1)
}

func (t *tracer) ioEnd(i int32) {
	if t != nil {
		t.io.end(t.t0, i)
	}
}

// durations returns the durations of every recorded span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, buf := range []*spanBuf{&t.ops, &t.io} {
		for _, s := range buf.recorded() {
			if spanNames[s.name] == name && s.end >= s.start {
				out = append(out, time.Duration(s.end-s.start))
			}
		}
	}
	return out
}

// dump writes every recorded span as tab-separated text:
// name, op, parent, start_ns, end_ns. Operation spans come first, so parent
// indexes (which only operation spans carry) index the dump's rows.
func (t *tracer) dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "name\top\tparent\tstart_ns\tend_ns")
	for _, buf := range []*spanBuf{&t.ops, &t.io} {
		for _, s := range buf.recorded() {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.op, s.parent, s.start, s.end)
		}
	}
	return bw.Flush()
}

// readSpans parses a dump written by tracer.dump.
func readSpans(r io.Reader) ([]span, error) {
	sc := bufio.NewScanner(r)
	var out []span
	for line := 0; sc.Scan(); line++ {
		if line == 0 {
			continue // header
		}
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("span dump line %d: %d fields", line+1, len(f))
		}
		var s span
		id, ok := spanIndex[f[0]]
		if !ok {
			return nil, fmt.Errorf("span dump line %d: unknown span %q", line+1, f[0])
		}
		s.name = id
		op, err1 := strconv.ParseUint(f[1], 10, 64)
		parent, err2 := strconv.ParseInt(f[2], 10, 32)
		start, err3 := strconv.ParseInt(f[3], 10, 64)
		end, err4 := strconv.ParseInt(f[4], 10, 64)
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil {
				return nil, fmt.Errorf("span dump line %d: %w", line+1, err)
			}
		}
		s.op, s.parent, s.start, s.end = op, int32(parent), start, end
		out = append(out, s)
	}
	return out, sc.Err()
}

// selfRow is one line of the self-time summary.
type selfRow struct {
	Name      string
	Count     int
	TotalUS   float64 // summed span durations
	SelfUS    float64 // summed durations minus the time children cover
	MedSelfUS float64
}

// selfTimes summarizes spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; spans without
// children (and unparented I/O spans) are all self time.
func selfTimes(spans []span) []selfRow {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	rows := map[string]*selfRow{}
	selfs := map[string][]time.Duration{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed (run ended inside it)
		}
		dur := s.end - s.start
		self := dur - covered(children[int32(i)], s.start, s.end)
		name := spanNames[s.name]
		r := rows[name]
		if r == nil {
			r = &selfRow{Name: name}
			rows[name] = r
		}
		r.Count++
		r.TotalUS += float64(dur) / 1e3
		r.SelfUS += float64(self) / 1e3
		selfs[name] = append(selfs[name], time.Duration(self))
	}
	out := make([]selfRow, 0, len(rows))
	for name, r := range rows {
		r.MedSelfUS = median(selfs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// covered returns how much of [lo, hi] the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

func writeSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-22s %9s %12s %12s %10s\n", "span", "count", "total_us", "self_us", "med_self_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %9d %12.0f %12.0f %10.1f\n", r.Name, r.Count, r.TotalUS, r.SelfUS, r.MedSelfUS)
	}
}

// ioCounters counts calls and bytes through a wrapped seam.
type ioCounters struct {
	reads, writes      atomic.Int64
	readBytes, wrBytes atomic.Int64
}

func (c *ioCounters) calls() int64 { return c.reads.Load() + c.writes.Load() }
func (c *ioCounters) bytes() int64 { return c.readBytes.Load() + c.wrBytes.Load() }

// countingListener wraps the listener handed to server.Serve so every
// server-side connection counts its reads, writes and bytes.
type countingListener struct {
	net.Listener
	ctr *ioCounters
	tr  *atomic.Pointer[tracer]
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, ctr: l.ctr, tr: l.tr}, nil
}

type countingConn struct {
	net.Conn
	ctr *ioCounters
	tr  *atomic.Pointer[tracer]
}

func (c *countingConn) Read(p []byte) (int, error) {
	tr := c.tr.Load()
	sp := tr.ioBegin("conn.read")
	n, err := c.Conn.Read(p)
	tr.ioEnd(sp)
	c.ctr.reads.Add(1)
	c.ctr.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	tr := c.tr.Load()
	sp := tr.ioBegin("conn.write")
	n, err := c.Conn.Write(p)
	tr.ioEnd(sp)
	c.ctr.writes.Add(1)
	c.ctr.wrBytes.Add(int64(n))
	return n, err
}

// timingFS wraps the WAL's filesystem (core.Config.WALFS) so segment writes
// are counted and, when tracing, segment writes and fsyncs are recorded as
// spans.
type timingFS struct {
	wal.FS
	ctr *ioCounters
	tr  *atomic.Pointer[tracer]
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: fl, fs: f}, nil
}

type timingFile struct {
	wal.File
	fs timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	tr := f.fs.tr.Load()
	sp := tr.ioBegin("wal.write")
	n, err := f.File.Write(p)
	tr.ioEnd(sp)
	f.fs.ctr.writes.Add(1)
	f.fs.ctr.wrBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	tr := f.fs.tr.Load()
	sp := tr.ioBegin("wal.sync")
	err := f.File.Sync()
	tr.ioEnd(sp)
	return err
}
