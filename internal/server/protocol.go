// Package server exposes a Youtopia system over TCP so the middle tier can
// run in a separate process, as in the paper's three-tier deployment
// (browser → middle tier → Youtopia).
//
// # Wire protocol v2
//
// Length-prefixed binary frames (see frame.go for the exact layout). The
// client opens with the 4-byte preamble "YTP2", then both sides exchange
// frames of `uint32 LE length | kind | correlation id (uvarint) | body`. A
// connection that opens with anything else gets one kindError frame
// (errBadFrame, "unrecognized protocol preamble") and is closed.
// Frames are typed by kind — request, result header, row batch, entangled
// ack, async event, typed admin response, error — so asynchronous
// coordination events are structurally distinct from replies. Many requests
// may be in flight on one connection (pipelining/multiplexing); replies are
// correlated by id. Values round-trip exactly: int64 is a varint on the
// wire, never a float64. Result sets stream as a header frame plus row
// batches. Admin responses are structured (coord.StatsSnapshot,
// []coord.ShardInfo, []coord.PendingInfo, core.WALStats, txn.Stats,
// storage.PoolStats) and rendered client-side.
//
// Prepared statements (Client.Prepare → server.Stmt): kindPrepare ships a
// statement's SQL text once and returns a per-connection statement id plus
// its parameter count and entangled flag; kindExecPrepared then carries
// only the id, owner, TTL and a binary-encoded parameter vector (typed
// values — float64 and int64 parameters are bit-exact, with no text
// formatting anywhere), and kindClosePrepared drops the entry. Repeated
// statements stop shipping SQL text at all; the server executes them
// through core's parse-once/bind-many pipeline. Statement ids are scoped
// to their connection and the table dies with it — a disconnect can never
// leak server-side statements.
//
// Entangled answers arrive asynchronously as kindEvent frames, exactly like
// the demo's Facebook notifications: the client submits, keeps working, and
// is told later which flight it got.
package server

import (
	"fmt"
	"strings"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/storage"
)

// renderShards formats per-lane diagnostics one line per shard.
func renderShards(shards []coord.ShardInfo) string {
	var b strings.Builder
	for _, si := range shards {
		fmt.Fprintf(&b, "shard %d: pending=%d relations=%v stats=%+v\n",
			si.ID, si.Pending, si.Relations, si.Stats)
	}
	return b.String()
}

// renderWAL formats the durability snapshot (or its absence).
func renderWAL(st core.WALStats, durable bool) string {
	if !durable {
		return "not durable (no WAL configured)\n"
	}
	return st.String()
}

// renderPool formats the buffer-pool snapshot (or its absence).
func renderPool(st storage.PoolStats, enabled bool) string {
	if !enabled {
		return "no buffer pool (fully in-memory storage)\n"
	}
	return st.String()
}
