package main

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/value"
)

// opClass is an operation class with its own latency metrics.
type opClass int

const (
	opPair  opClass = iota // an entangled pair: two submits, two outcomes
	opRead                 // point read by primary key
	opScan                 // 64-row ordered range scan
	opWrite                // plain UPDATE by key
	numClasses
)

var className = [numClasses]string{"arrival", "read", "scan", "write"}

// scanRows is the width of every range scan.
const scanRows = 64

// op is one generated operation. Everything the program receives is derived
// from the workload seed, so the same seed replays the same sequence.
type op struct {
	class opClass
	pair  int // pair index (unique per client and phase) for opPair
	key   int // row key for reads, scans (lowest id) and writes
	val   int // payload seed for writes
}

// mixFunc picks the class of a client's n-th operation.
type mixFunc func(n int, r *rand.Rand) opClass

// opStream is one client's deterministic operation sequence.
type opStream struct {
	rng       *rand.Rand
	mix       mixFunc
	rows      int // key space of reads and scans
	writeKeys int // key space of writes
	n, pairs  int
}

func newOpStream(seed int64, client, phase int, mix mixFunc, rows, writeKeys int) *opStream {
	src := seed*1_000_003 + int64(client)*7919 + int64(phase)*104_729
	return &opStream{rng: rand.New(rand.NewSource(src)), mix: mix, rows: rows, writeKeys: writeKeys}
}

func (s *opStream) next() op {
	o := op{class: s.mix(s.n, s.rng)}
	s.n++
	switch o.class {
	case opPair:
		o.pair = s.pairs
		s.pairs++
	case opRead:
		o.key = s.rng.Intn(s.rows)
	case opScan:
		o.key = s.rng.Intn(s.rows - scanRows + 1)
	case opWrite:
		o.key = s.rng.Intn(s.writeKeys)
		o.val = s.rng.Intn(1_000_000)
	}
	return o
}

// renderSQL substitutes params for the ? placeholders of tmpl, producing the
// SQL text an ad-hoc client would send.
func renderSQL(tmpl string, params value.Tuple) string {
	var b strings.Builder
	i := 0
	for _, r := range tmpl {
		if r != '?' || i >= len(params) {
			b.WriteRune(r)
			continue
		}
		v := params[i]
		i++
		switch v.Type() {
		case value.TypeString:
			b.WriteString("'" + strings.ReplaceAll(v.Str(), "'", "''") + "'")
		case value.TypeFloat:
			b.WriteString(strconv.FormatFloat(v.Float(), 'f', 2, 64))
		default:
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// mix64 is a fixed integer hash (splitmix64's finalizer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// ownerOf is the owner stored in Bookings row id for a seed; point reads
// check it.
func ownerOf(seed int64, id int) string {
	return "o" + strconv.FormatUint(mix64(uint64(seed)<<32^uint64(id))%1_000_000, 10)
}

// historyBody is the body of History row id after version ver; reads check
// the id prefix, which every version keeps.
func historyBody(id, ver int) string {
	return historyPrefix(id) + strconv.Itoa(ver) + "-" + historyPad
}

func historyPrefix(id int) string {
	s := strconv.Itoa(id)
	return "h" + strings.Repeat("0", max(0, 6-len(s))) + s + "-"
}

var historyPad = strings.Repeat("x", 112)
