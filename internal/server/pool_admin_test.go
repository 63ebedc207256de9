package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAdminPoolRoundTrip: the pool admin frame carries the server's
// storage.PoolStats faithfully over both codecs, and degrades to an explicit
// "disabled" answer on an in-memory server.
func TestAdminPoolRoundTrip(t *testing.T) {
	sys := core.NewSystem(core.Config{BufferPoolPages: 2})
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Exec("CREATE TABLE History (id INT, body STRING, PRIMARY KEY (id));"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		stmt := fmt.Sprintf("INSERT INTO History VALUES (%d, '%s');", i, strings.Repeat("h", 100))
		if err := sys.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Listen(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, srv.Addr().String())

	st, enabled, err := c.AdminPoolStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !enabled {
		t.Fatal("pool reported disabled")
	}
	want, _ := sys.PoolStats()
	if st.Capacity != want.Capacity || st.HeapPages != want.HeapPages ||
		st.SpilledTables != want.SpilledTables || len(st.Tables) != len(want.Tables) {
		t.Errorf("pool stats = %+v, want %+v", st, want)
	}
	if st.HeapPages <= st.Capacity {
		t.Errorf("workload did not outgrow the pool: %+v", st)
	}
	if len(st.Tables) != 1 || st.Tables[0].Name != "history" || st.Tables[0].Pages != want.Tables[0].Pages {
		t.Errorf("table footprint = %+v", st.Tables)
	}
	text, err := c.AdminPool()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "pool: frames=2") || !strings.Contains(text, "history") {
		t.Errorf("rendered pool dump: %q", text)
	}
	// The coordinator's full state dump carries the pool section too.
	state, err := c.AdminState()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(state, "=== Buffer pool ===") {
		t.Errorf("DumpState missing pool section:\n%s", state)
	}
}

func TestAdminPoolDisabled(t *testing.T) {
	_, addr := startServer(t) // in-memory system
	c := dial(t, addr)
	st, enabled, err := c.AdminPoolStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if enabled || st.Capacity != 0 {
		t.Errorf("in-memory server reported a pool: %+v", st)
	}
	text, err := c.AdminPool()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "no buffer pool") {
		t.Errorf("rendered: %q", text)
	}
}
