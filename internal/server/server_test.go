package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/travel"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	sys := core.NewSystem(core.Config{})
	if err := travel.SeedFigure1(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRemotePlainSQL(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	res, err := c.Query("SELECT fno, dest FROM Flights WHERE dest = 'Paris' ORDER BY fno")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 122 || res.Rows[0][1].Str() != "Paris" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "fno" {
		t.Errorf("cols = %v", res.Cols)
	}
	ins, err := c.Query("INSERT INTO Flights VALUES (200, 'NYC', 'Oslo', 3, 100.0, 'KLM')")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Affected != 1 {
		t.Errorf("affected = %d", ins.Affected)
	}
}

func TestRemoteErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Query("SELECT nosuch FROM Flights"); err == nil {
		t.Error("remote error not surfaced")
	}
	if _, err := c.Query("SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights)"); err == nil {
		t.Error("Query accepted entangled statement")
	}
	if _, _, err := c.Submit("SELECT fno FROM Flights", "x"); err == nil {
		t.Error("Submit accepted plain statement")
	}
	if err := c.Cancel(9999); err == nil {
		t.Error("cancel of unknown query succeeded")
	}
}

// TestRemoteCoordination runs Figure 1 across two separate client
// connections — the full three-tier path.
func TestRemoteCoordination(t *testing.T) {
	_, addr := startServer(t)
	kramer := dial(t, addr)
	jerry := dial(t, addr)

	qK := travel.BuildFlightQuery("Kramer", []string{"Jerry"}, travel.FlightFilter{Dest: "Paris"})
	qJ := travel.BuildFlightQuery("Jerry", []string{"Kramer"}, travel.FlightFilter{Dest: "Paris"})

	idK, evK, err := kramer.Submit(qK, "kramer")
	if err != nil {
		t.Fatal(err)
	}
	if idK == 0 {
		t.Fatal("no query id")
	}
	select {
	case ev := <-evK:
		t.Fatalf("Kramer answered early: %+v", ev)
	case <-time.After(30 * time.Millisecond):
	}

	_, evJ, err := jerry.Submit(qJ, "jerry")
	if err != nil {
		t.Fatal(err)
	}
	var outK, outJ Event
	select {
	case outK = <-evK:
	case <-time.After(2 * time.Second):
		t.Fatal("Kramer timed out")
	}
	select {
	case outJ = <-evJ:
	case <-time.After(2 * time.Second):
		t.Fatal("Jerry timed out")
	}
	if outK.Canceled || outJ.Canceled {
		t.Fatal("unexpected cancel")
	}
	if outK.MatchSize != 2 {
		t.Errorf("match size = %d", outK.MatchSize)
	}
	fK := outK.Answers[0].Tuples[0][1].Int()
	fJ := outJ.Answers[0].Tuples[0][1].Int()
	if fK != fJ {
		t.Errorf("flights differ: %d vs %d", fK, fJ)
	}
}

func TestRemoteCancel(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	id, ev, err := c.Submit(travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ev:
		if !out.Canceled {
			t.Errorf("event = %+v, want canceled", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no cancel event")
	}
}

// TestDisconnectWithdrawsPending: closing a client cancels its parked
// queries server-side.
func TestDisconnectWithdrawsPending(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	if _, _, err := c.Submit(travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k"); err != nil {
		t.Fatal(err)
	}
	if srv.sys.Coordinator().PendingCount() != 1 {
		t.Fatalf("pending = %d", srv.sys.Coordinator().PendingCount())
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.sys.Coordinator().PendingCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending query not withdrawn after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdminEndpoints(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.Submit(travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k") //nolint:errcheck
	state, err := c.AdminState()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(state, "Pending entangled queries (1)") {
		t.Errorf("state = %q", state)
	}
	ctx := context.Background()
	if pend, err := c.AdminPendingList(ctx); err != nil || len(pend) != 1 {
		t.Errorf("pending = %+v, %v", pend, err)
	}
	if st, err := c.AdminStats(ctx); err != nil || st.Submitted == 0 {
		t.Errorf("stats = %+v, %v", st, err)
	}
	for name, get := range map[string]func() (string, error){
		"shards": c.AdminShards, "wal": c.AdminWAL, "txn": c.AdminTxn, "pool": c.AdminPool,
	} {
		if text, err := get(); err != nil || text == "" {
			t.Errorf("%s: %q, %v", name, text, err)
		}
	}
	if _, err := c.admin(ctx, 0xFF); err == nil || !strings.Contains(err.Error(), "unknown admin command") {
		t.Errorf("unknown admin command: %v", err)
	}
	if _, err := c.Query(""); err == nil || !strings.Contains(err.Error(), "empty request") {
		t.Errorf("empty request: %v", err)
	}
}

// readRawReplies reads server frames from conn until the server closes it —
// EOF, or a reset when the server closed with our bytes still unread — and
// decodes them.
func readRawReplies(conn net.Conn) ([]reply, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	var out []reply
	for {
		payload, err := readFrame(br, nil)
		if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("after %d frame(s): %w", len(out), err)
		}
		rp, err := decodeReply(payload)
		if err != nil {
			return out, err
		}
		out = append(out, rp)
	}
}

// TestRawProtocolBadJSON: a line-delimited JSON request — the retired
// codec — is not a v2 preamble; the server answers with one errBadFrame
// frame naming the problem and closes the connection.
func TestRawProtocolBadJSON(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(`{"id":1,"sql":"SELECT fno FROM Flights"}` + "\n")) //nolint:errcheck
	got, err := readRawReplies(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].kind != kindError || got[0].errCode != errBadFrame ||
		!strings.Contains(got[0].text, "unrecognized protocol preamble") {
		t.Fatalf("replies = %+v, want one errBadFrame", got)
	}
}

// TestWrongPreambleRejected: connections that open with anything but the
// v2 preamble — a JSON request line, a single garbage byte left hanging,
// two bytes and EOF — each get at most one errBadFrame frame before the
// server closes them, and Server.Close still returns promptly, so no
// handler goroutine is left behind.
func TestWrongPreambleRejected(t *testing.T) {
	srv, addr := startServer(t)
	for _, tc := range []struct {
		name     string
		send     string
		halfShut bool // close our write side after sending
		hangs    bool // the server still waits for the rest of the preamble
	}{
		{name: "json-line", send: `{"id":1,"sql":"SELECT 1"}` + "\n"},
		{name: "garbage-byte", send: "x", hangs: true},
		{name: "short-then-eof", send: "YT", halfShut: true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(tc.send)); err != nil {
			t.Fatal(err)
		}
		if tc.halfShut {
			conn.(*net.TCPConn).CloseWrite() //nolint:errcheck
		}
		done := make(chan struct{})
		var got []reply
		var rerr error
		go func() {
			defer close(done)
			got, rerr = readRawReplies(conn)
		}()
		check := func() {
			<-done
			if rerr != nil {
				t.Errorf("%s: %v", tc.name, rerr)
			}
			if len(got) > 1 {
				t.Errorf("%s: %d frames, want at most one", tc.name, len(got))
			}
			for _, rp := range got {
				if rp.kind != kindError || rp.errCode != errBadFrame {
					t.Errorf("%s: reply %+v, want kindError/errBadFrame", tc.name, rp)
				}
			}
		}
		if tc.hangs {
			// Only Server.Close below ends this connection.
			defer check()
			continue
		}
		check()
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked: a connection handler did not exit")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const pairs = 8
	var wg sync.WaitGroup
	errs := make(chan error, pairs*2)
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		a := "ca" + string(rune('0'+p))
		b := "cb" + string(rune('0'+p))
		submit := func(self, friend string) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, ev, err := c.Submit(travel.BuildFlightQuery(self, []string{friend}, travel.FlightFilter{Dest: "Paris"}), self)
			if err != nil {
				errs <- err
				return
			}
			select {
			case out := <-ev:
				if out.Canceled {
					errs <- ErrClosed
				}
			case <-time.After(5 * time.Second):
				errs <- ErrClosed
			}
		}
		go submit(a, b)
		go submit(b, a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRemoteTransactions: BEGIN/COMMIT/ROLLBACK are per-connection, and a
// dropped connection rolls its open transaction back.
func TestRemoteTransactions(t *testing.T) {
	_, addr := startServer(t)
	c1 := dial(t, addr)

	mustQ := func(c *Client, src string) {
		t.Helper()
		if _, err := c.Query(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	mustQ(c1, "BEGIN")
	mustQ(c1, "INSERT INTO Flights VALUES (800, 'X', 'Bonn', 1, 9.0, 'Z')")
	mustQ(c1, "ROLLBACK")
	res, err := c1.Query("SELECT fno FROM Flights WHERE fno = 800")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("rollback leaked: %v %v", res, err)
	}
	mustQ(c1, "BEGIN")
	mustQ(c1, "INSERT INTO Flights VALUES (801, 'X', 'Bonn', 1, 9.0, 'Z')")
	mustQ(c1, "COMMIT")
	res, _ = c1.Query("SELECT fno FROM Flights WHERE fno = 801")
	if len(res.Rows) != 1 {
		t.Fatal("commit lost")
	}

	// An abandoned transaction must not wedge the server: dropping the
	// connection rolls back and releases locks.
	c2 := dial(t, addr)
	mustQ(c2, "BEGIN")
	mustQ(c2, "INSERT INTO Flights VALUES (802, 'X', 'Bonn', 1, 9.0, 'Z')")
	c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := c1.Query("SELECT fno FROM Flights WHERE fno = 802")
		if err == nil && len(res.Rows) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned txn not rolled back / locks not released")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestValueRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := func() error {
		_, err := c.Query("CREATE TABLE T (i INT, f FLOAT, s STRING, b BOOL, n INT)")
		return err
	}(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO T VALUES (7, 2.5, 'x', TRUE, NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT * FROM T")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Int() != 7 || row[1].Float() != 2.5 || row[2].Str() != "x" || !row[3].Bool() || !row[4].IsNull() {
		t.Errorf("round trip = %v", row)
	}
}
