// Command youtopia-admin is the demo's third application (§2.2, §3.2): "an
// administrative interface which allows us to show the internal state of the
// system and to visualize the state created by the matching algorithms."
//
// Because the reproduction runs in-process, the admin tool drives the §3.1
// demonstration scenarios itself and dumps the coordination component's
// internal state between steps — exactly what the live demo showed its
// audience: pending-query tables filling up, the entanglement graph gaining
// edges, and matches collapsing it.
//
// With -connect the tool instead inspects a *running* youtopia-server over
// TCP: the wire protocol v2 admin surface returns structured snapshots
// (coord.StatsSnapshot, []coord.ShardInfo, []coord.PendingInfo,
// core.WALStats) and the tool renders them client-side — as text, or as
// machine-readable JSON with -json.
//
// Usage:
//
//	youtopia-admin                 # run every scenario
//	youtopia-admin -scenario pair  # pair | trip | group | adhoc
//	youtopia-admin -connect 127.0.0.1:7717 [-json]   # inspect a live server
//	youtopia-admin -connect ADDR -pool     # buffer pool and heap footprint
//	youtopia-admin -connect ADDR -repl     # replication lag and health
//	youtopia-admin -connect ADDR -health   # role + readiness, one line
//	youtopia-admin -connect ADDR -promote  # promote a follower to primary
//	youtopia-admin -connect ADDR -explain 'SELECT ...'  # access plan, no execution
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/travel"
)

func main() {
	scenario := flag.String("scenario", "all", "pair | trip | group | adhoc | all")
	shards := flag.Int("shards", 0, "coordination lanes (0 = GOMAXPROCS, 1 = the paper's single serialized round)")
	connect := flag.String("connect", "", "inspect a running youtopia-server at this address instead of running scenarios")
	asJSON := flag.Bool("json", false, "with -connect: emit the admin snapshot as JSON")
	txnOnly := flag.Bool("txn", false, "with -connect: show only the transaction/MVCC counters")
	poolOnly := flag.Bool("pool", false, "with -connect: show the buffer pool and heap footprint")
	replOnly := flag.Bool("repl", false, "with -connect: show replication status (role, epoch, follower lag)")
	health := flag.Bool("health", false, "with -connect: one-line role + readiness; exit 1 when not ready")
	promote := flag.Bool("promote", false, "with -connect: promote the follower to primary")
	explain := flag.String("explain", "", "with -connect: show the server's access plan for this statement without executing it")
	flag.Parse()

	if *connect != "" {
		var err error
		switch {
		case *explain != "":
			err = explainStmt(*connect, *explain, *asJSON)
		case *promote:
			err = promoteServer(*connect, *asJSON)
		case *health:
			err = healthCheck(*connect)
		case *replOnly:
			err = inspectRepl(*connect, *asJSON)
		case *txnOnly:
			err = inspectTxn(*connect, *asJSON)
		case *poolOnly:
			err = inspectPool(*connect, *asJSON)
		default:
			err = inspect(*connect, *asJSON)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func(*travel.Service) error) {
		if *scenario != "all" && *scenario != name {
			return
		}
		fmt.Printf("\n================ scenario: %s ================\n", name)
		sys := core.NewSystem(core.Config{CoordShards: *shards})
		if err := travel.SeedFigure1(sys); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		svc := travel.NewService(sys)
		if err := f(svc); err != nil {
			fmt.Fprintln(os.Stderr, name, "failed:", err)
			os.Exit(1)
		}
	}

	run("pair", pairScenario)
	run("trip", tripScenario)
	run("group", groupScenario)
	run("adhoc", adhocScenario)
}

// inspect fetches a live server's admin state through the typed v2 admin
// API and renders it client-side — no fmt-formatted text crosses the wire.
func inspect(addr string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()

	stats, err := c.AdminStats(ctx)
	if err != nil {
		return err
	}
	shards, err := c.AdminShardInfo(ctx)
	if err != nil {
		return err
	}
	pending, err := c.AdminPendingList(ctx)
	if err != nil {
		return err
	}
	walStats, durable, err := c.AdminWALStats(ctx)
	if err != nil {
		return err
	}
	txnStats, err := c.AdminTxnStats(ctx)
	if err != nil {
		return err
	}
	poolStats, poolOn, err := c.AdminPoolStats(ctx)
	if err != nil {
		return err
	}

	if asJSON {
		doc := map[string]any{
			"stats":   stats,
			"shards":  shards,
			"pending": pending,
			"durable": durable,
			"txn":     txnStats,
		}
		if durable {
			doc["wal"] = walStats
		}
		if poolOn {
			doc["pool"] = poolStats
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Printf("server %s\n\n=== Stats ===\n  submitted=%d answered=%d matches=%d parked=%d canceled=%d expired=%d retries=%d escalations=%d nodes=%d groundings=%d/%d ok\n",
		addr, stats.Submitted, stats.Answered, stats.Matches, stats.Parked, stats.Canceled,
		stats.Expired, stats.Retries, stats.Escalations, stats.NodesExplored,
		stats.GroundingAttempts-stats.GroundingFailures, stats.GroundingAttempts)
	fmt.Printf("\n=== Coordination lanes (%d) ===\n", len(shards))
	for _, si := range shards {
		fmt.Printf("  shard %d: pending=%d matches=%d answered=%d escalations=%d relations=%v\n",
			si.ID, si.Pending, si.Stats.Matches, si.Stats.Answered, si.Stats.Escalations, si.Relations)
	}
	fmt.Printf("\n=== Pending entangled queries (%d) ===\n", len(pending))
	for _, p := range pending {
		owner := p.Owner
		if owner == "" {
			owner = "-"
		}
		fmt.Printf("  [q%d] owner=%s waiting=%s\n        %s\n", p.ID, owner, p.Waiting.Round(time.Millisecond), p.Logic)
	}
	fmt.Printf("\n=== Transactions ===\n  committed=%d aborted=%d timeouts=%d writeConflicts=%d gcReclaimed=%d\n",
		txnStats.Committed, txnStats.Aborted, txnStats.Timeouts, txnStats.WriteConflicts, txnStats.GCReclaimed)
	if poolOn {
		fmt.Printf("\n=== Buffer pool ===\n  frames=%d shards=%d resident=%d dirty=%d hit-ratio=%.1f%% load-waits=%d evictions=%d writebacks=%d\n  spilled-tables=%d pinned-relations=%d heap-pages=%d free-pages=%d reclaimed=%d\n",
			poolStats.Capacity, len(poolStats.Shards), poolStats.Resident, poolStats.Dirty, 100*poolStats.HitRatio(),
			poolStats.LoadWaits, poolStats.Evictions, poolStats.Writebacks,
			poolStats.SpilledTables, poolStats.PinnedTables, poolStats.HeapPages,
			poolStats.FreePages, poolStats.ReclaimedPages)
	}
	fmt.Printf("\n=== Durability ===\n")
	if durable {
		fmt.Print(walStats)
	} else {
		fmt.Println("  not durable (server runs without a WAL)")
	}
	return nil
}

// inspectTxn fetches and prints only the transaction/MVCC counters — the
// natural thing to watch in a loop while a workload runs.
func inspectTxn(addr string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.AdminTxnStats(context.Background())
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Print(st)
	return nil
}

// inspectPool fetches and renders the buffer-pool snapshot: frame occupancy,
// hit ratio, eviction/writeback counters, and each spilled table's heap
// footprint — the thing to watch while a larger-than-RAM workload runs.
func inspectPool(addr string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, enabled, err := c.AdminPoolStats(context.Background())
	if err != nil {
		return err
	}
	if asJSON {
		doc := map[string]any{"enabled": enabled}
		if enabled {
			doc["pool"] = st
			doc["hitRatio"] = st.HitRatio()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	if !enabled {
		fmt.Println("no buffer pool (server runs fully in memory)")
		return nil
	}
	fmt.Print(st)
	return nil
}

// explainStmt asks the server for the typed plan description of one
// statement — the wire form of the CLI's \explain — and renders it (or, with
// -json, emits the structured description).
func explainStmt(addr, sqlText string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	d, err := c.Explain(sqlText)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	fmt.Print(d.String())
	return nil
}

// inspectRepl fetches and renders the replication status: role, fencing
// epoch, chain position, and per-follower ship/ack lag on a primary.
func inspectRepl(addr string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.AdminRepl(context.Background())
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Print(st.String())
	return nil
}

// healthCheck prints one parseable line of role and readiness, exiting
// non-zero when the server should not take traffic (follower mid-resync).
func healthCheck(addr string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.AdminRepl(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("role=%s ready=%t epoch=%d seq=%d off=%d\n", st.Role, st.Ready, st.Epoch, st.Seq, st.Off)
	if !st.Ready {
		os.Exit(1)
	}
	return nil
}

// promoteServer asks a follower to promote itself and prints the resulting
// status, so the operator sees the new role and epoch in one round trip.
func promoteServer(addr string, asJSON bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.AdminPromote(context.Background())
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("promoted: now %s at epoch %d\n", st.Role, st.Epoch)
	fmt.Print(st.String())
	return nil
}

func dump(svc *travel.Service, caption string) {
	fmt.Printf("\n--- %s ---\n%s", caption, svc.System().Coordinator().DumpState())
}

func await(b *travel.Booking) error {
	_, err := b.Await(2 * time.Second)
	return err
}

// pairScenario is §3.1 "Book a flight with a friend" seen from the inside.
func pairScenario(svc *travel.Service) error {
	svc.Befriend("Jerry", "Kramer")
	fmt.Printf("Jerry's friends (Figure 3): %v\n", svc.Friends("Jerry"))

	bJ, err := svc.BookFlight("Jerry", []string{"Kramer"}, travel.FlightFilter{Dest: "Paris"})
	if err != nil {
		return err
	}
	dump(svc, "after Jerry's request: one pending query, no partner yet")

	bK, err := svc.BookFlight("Kramer", []string{"Jerry"}, travel.FlightFilter{Dest: "Paris"})
	if err != nil {
		return err
	}
	if err := await(bJ); err != nil {
		return err
	}
	if err := await(bK); err != nil {
		return err
	}
	dump(svc, "after Kramer's request: matched, answers installed")
	fJ, _, _ := bJ.Details()
	fmt.Printf("\ncoordinated flight: %d\nJerry's inbox: %v\n", fJ, svc.Inbox("Jerry"))
	return nil
}

// tripScenario is §3.1 "Book a flight and a hotel with a friend".
func tripScenario(svc *travel.Service) error {
	f := travel.FlightFilter{Dest: "Paris"}
	h := travel.HotelFilter{City: "Paris"}
	bJ, err := svc.BookTrip("Jerry", []string{"Kramer"}, f, h)
	if err != nil {
		return err
	}
	dump(svc, "Jerry's two-atom query pending (flight AND hotel)")
	bK, err := svc.BookTrip("Kramer", []string{"Jerry"}, f, h)
	if err != nil {
		return err
	}
	if err := await(bJ); err != nil {
		return err
	}
	if err := await(bK); err != nil {
		return err
	}
	fl, ho, _ := bJ.Details()
	fmt.Printf("\ncoordinated flight %d and hotel %d\n", fl, ho)
	dump(svc, "after the joint match")
	return nil
}

// groupScenario is §3.1 "Group flight booking" with four friends.
func groupScenario(svc *travel.Service) error {
	group := []string{"Jerry", "Kramer", "Elaine", "George"}
	var bookings []*travel.Booking
	for i, self := range group {
		var friends []string
		for j, o := range group {
			if i != j {
				friends = append(friends, o)
			}
		}
		b, err := svc.BookFlight(self, friends, travel.FlightFilter{Dest: "Paris"})
		if err != nil {
			return err
		}
		bookings = append(bookings, b)
		if i == 2 {
			dump(svc, "three of four submitted: entanglement graph grows, no match yet")
		}
	}
	for _, b := range bookings {
		if err := await(b); err != nil {
			return err
		}
	}
	f, _, _ := bookings[0].Details()
	fmt.Printf("\nall four on flight %d\n", f)
	dump(svc, "after the 4-way match")
	return nil
}

// adhocScenario is §3.1 "Ad-hoc examples": Jerry–Kramer on flights,
// Kramer–Elaine on flights and hotels.
func adhocScenario(svc *travel.Service) error {
	sys := svc.System()
	jerry := travel.BuildFlightQuery("Jerry", []string{"Kramer"}, travel.FlightFilter{Dest: "Paris"})
	kramer := `SELECT ('Kramer', fno) INTO ANSWER Reservation, ('Kramer', hno) INTO ANSWER HotelReservation
WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')
AND hno IN (SELECT hno FROM Hotels WHERE city = 'Paris')
AND ('Jerry', fno) IN ANSWER Reservation
AND ('Elaine', hno) IN ANSWER HotelReservation
CHOOSE 1`
	elaine := `SELECT 'Elaine', hno INTO ANSWER HotelReservation
WHERE hno IN (SELECT hno FROM Hotels WHERE city = 'Paris')
AND ('Kramer', hno) IN ANSWER HotelReservation
CHOOSE 1`

	hJ, err := sys.Submit(jerry, "jerry")
	if err != nil {
		return err
	}
	hK, err := sys.Submit(kramer, "kramer")
	if err != nil {
		return err
	}
	dump(svc, "Jerry and Kramer pending; Kramer needs Elaine too")
	hE, err := sys.Submit(elaine, "elaine")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	timer := time.AfterFunc(2*time.Second, func() { close(done) })
	defer timer.Stop()
	outJ, ok := hJ.Wait(done)
	if !ok {
		return fmt.Errorf("jerry timed out")
	}
	outK, _ := hK.Wait(done)
	outE, _ := hE.Wait(done)
	fmt.Printf("\nJerry:  %v\nKramer: %v\nElaine: %v\n", outJ.Answers, outK.Answers, outE.Answers)
	dump(svc, "after the 3-way ad-hoc match")
	return nil
}
