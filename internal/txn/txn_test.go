package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

func setup(t *testing.T) (*Manager, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	schema := value.NewSchema(value.Col("fno", value.TypeInt), value.Col("dest", value.TypeString))
	tbl, err := cat.Create("Flights", schema, "fno")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]any{{122, "Paris"}, {123, "Paris"}, {136, "Rome"}} {
		if _, err := tbl.Insert(value.NewTuple(r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	return NewManager(cat), tbl
}

func TestCommitKeepsChanges(t *testing.T) {
	m, tbl := setup(t)
	tx := m.Begin()
	id, err := tx.Insert("Flights", value.NewTuple(200, "Oslo"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(id); err != nil {
		t.Errorf("committed row missing: %v", err)
	}
	st := m.Stats()
	if st.Committed != 1 || st.Aborted != 0 {
		t.Errorf("stats = %d committed, %d aborted", st.Committed, st.Aborted)
	}
}

func TestRollbackUndoesEverything(t *testing.T) {
	m, tbl := setup(t)
	before := tbl.All()
	ids := tbl.LookupEq([]int{0}, value.NewTuple(136))

	tx := m.Begin()
	if _, err := tx.Insert("Flights", value.NewTuple(300, "Lima")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("Flights", ids[0], value.NewTuple(136, "Berlin")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("Flights", ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	after := tbl.All()
	if len(after) != len(before) {
		t.Fatalf("row count: before %d after %d", len(before), len(after))
	}
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Errorf("row %d: %v != %v", i, before[i], after[i])
		}
	}
	// PK restored.
	if _, _, ok := tbl.LookupPK(value.NewTuple(136)); !ok {
		t.Error("PK entry for 136 lost after rollback")
	}
}

func TestUseAfterFinish(t *testing.T) {
	m, _ := setup(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Errorf("rollback after commit must be a no-op, got %v", err)
	}
	if _, err := tx.Insert("Flights", value.NewTuple(1, "x")); !errors.Is(err, ErrTxnDone) {
		t.Errorf("insert after commit: %v", err)
	}
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m, _ := setup(t)
	tx1 := m.Begin()
	if err := tx1.Lock("Flights"); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		tx2 := m.Begin()
		defer tx2.Rollback()
		acquired <- tx2.Lock("Flights")
	}()
	select {
	case <-acquired:
		t.Fatal("second writer acquired lock while the first held it")
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	if err := <-acquired; err != nil {
		t.Fatalf("second writer failed after release: %v", err)
	}
}

func TestLockTimeoutResolvesConflict(t *testing.T) {
	m, _ := setup(t)
	m.LockTimeout = 50 * time.Millisecond
	tx1 := m.Begin()
	defer tx1.Rollback()
	if err := tx1.Lock("Flights"); err != nil {
		t.Fatal(err)
	}
	tx2 := m.Begin()
	defer tx2.Rollback()
	if err := tx2.Lock("Flights"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("expected ErrLockTimeout, got %v", err)
	}
	if m.Stats().Timeouts == 0 {
		t.Error("timeout not counted")
	}
}

func TestReentrantLock(t *testing.T) {
	m, _ := setup(t)
	m.LockTimeout = 50 * time.Millisecond
	tx := m.Begin()
	defer tx.Rollback()
	if err := tx.Lock("Flights"); err != nil {
		t.Fatal(err)
	}
	// Re-acquisition by the holder, under any spelling of the name, succeeds
	// at once.
	for _, name := range []string{"Flights", "FLIGHTS", "flights"} {
		if err := tx.Lock(name); err != nil {
			t.Fatalf("reentrant Lock(%q): %v", name, err)
		}
	}
	if err := tx.LockAll("flights", "Flights"); err != nil {
		t.Fatalf("reentrant LockAll: %v", err)
	}
	// The lock is still held exclusively: another transaction times out.
	other := m.Begin()
	defer other.Rollback()
	if err := other.Lock("Flights"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("second transaction: %v, want ErrLockTimeout", err)
	}
	// One release frees every reentrant hold.
	tx.Commit()
	late := m.Begin()
	defer late.Rollback()
	if err := late.Lock("Flights"); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
}

func TestLockAllOrderedNoDeadlock(t *testing.T) {
	cat := storage.NewCatalog()
	schema := value.NewSchema(value.Col("x", value.TypeInt))
	for _, n := range []string{"A", "B", "C", "D"} {
		if _, err := cat.Create(n, schema); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(cat)
	m.LockTimeout = 2 * time.Second
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine locks the tables in a scrambled declaration
			// order; LockAll must still be deadlock-free.
			names := []string{"D", "B", "A", "C"}
			for i := 0; i < 20; i++ {
				tx := m.Begin()
				if err := tx.LockAll(names...); err != nil {
					errs <- err
					tx.Rollback()
					return
				}
				tx.Commit()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("LockAll deadlocked/timed out: %v", err)
	}
}

func TestConcurrentTransfersAtomic(t *testing.T) {
	// Classic isolation test: concurrent movers between two tables keep the
	// total row count invariant.
	cat := storage.NewCatalog()
	schema := value.NewSchema(value.Col("id", value.TypeInt))
	a, _ := cat.Create("A", schema)
	b, _ := cat.Create("B", schema)
	for i := 0; i < 50; i++ {
		a.Insert(value.NewTuple(i))
	}
	m := NewManager(cat)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				err := m.RunAtomic(func(tx *Txn) error {
					if err := tx.LockAll("A", "B"); err != nil {
						return err
					}
					// Move first row of A to B if any.
					var id storage.RowID
					var row value.Tuple
					found := false
					if err := tx.Scan("A", func(r storage.RowID, tup value.Tuple) bool {
						id, row, found = r, tup, true
						return false
					}); err != nil {
						return err
					}
					if !found {
						return nil
					}
					if err := tx.Delete("A", id); err != nil {
						return err
					}
					_, err := tx.Insert("B", row)
					return err
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				// Count both tables under ONE transaction snapshot: a commit
				// landing between two independent Latest() reads could
				// legitimately straddle them, but a single snapshot must
				// always observe the invariant.
				total := 0
				add := func(storage.RowID, value.Tuple) bool { total++; return true }
				rtx := m.Begin()
				rtx.Scan("A", add) //nolint:errcheck
				rtx.Scan("B", add) //nolint:errcheck
				rtx.Rollback()
				if total != 50 {
					t.Errorf("invariant broken: total = %d", total)
					return
				}
			}
		}()
	}
	wg.Wait()
	if a.Len()+b.Len() != 50 {
		t.Errorf("final total = %d", a.Len()+b.Len())
	}
	if a.Len() != 0 {
		t.Errorf("A should be drained (240 moves > 50 rows), has %d", a.Len())
	}
}

func TestRunAtomicRollsBackOnError(t *testing.T) {
	m, tbl := setup(t)
	wantErr := errors.New("boom")
	err := m.RunAtomic(func(tx *Txn) error {
		if _, err := tx.Insert("Flights", value.NewTuple(900, "X")); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if len(tbl.LookupEq([]int{0}, value.NewTuple(900))) != 0 {
		t.Error("insert survived rollback")
	}
}

func TestRunAtomicRollsBackOnPanic(t *testing.T) {
	m, tbl := setup(t)
	func() {
		defer func() { recover() }()
		m.RunAtomic(func(tx *Txn) error {
			tx.Insert("Flights", value.NewTuple(901, "X"))
			panic("boom")
		})
	}()
	if len(tbl.LookupEq([]int{0}, value.NewTuple(901))) != 0 {
		t.Error("insert survived panic rollback")
	}
}

func TestRunAtomicRetriesTimeouts(t *testing.T) {
	m, _ := setup(t)
	m.LockTimeout = 30 * time.Millisecond
	tx := m.Begin()
	if err := tx.Lock("Flights"); err != nil {
		t.Fatal(err)
	}
	// Release the blocker after one timeout period so a retry succeeds.
	go func() {
		time.Sleep(45 * time.Millisecond)
		tx.Commit()
	}()
	err := m.RunAtomic(func(tx2 *Txn) error {
		return tx2.Lock("Flights")
	})
	if err != nil {
		t.Fatalf("RunAtomic did not recover via retry: %v", err)
	}
}

func TestScanGetUnderTxn(t *testing.T) {
	m, _ := setup(t)
	tx := m.Begin()
	defer tx.Rollback()
	n := 0
	if err := tx.Scan("Flights", func(storage.RowID, value.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scanned %d rows", n)
	}
	if _, err := tx.Get("NoSuch", 1); err == nil {
		t.Error("Get on missing table succeeded")
	}
}

func TestManyTablesStress(t *testing.T) {
	cat := storage.NewCatalog()
	schema := value.NewSchema(value.Col("x", value.TypeInt))
	const nt = 10
	for i := 0; i < nt; i++ {
		cat.Create(fmt.Sprintf("T%d", i), schema)
	}
	m := NewManager(cat)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ti := (g + i) % nt
				tj := (g + i + 3) % nt
				err := m.RunAtomic(func(tx *Txn) error {
					if err := tx.LockAll(fmt.Sprintf("T%d", ti), fmt.Sprintf("T%d", tj)); err != nil {
						return err
					}
					_, err := tx.Insert(fmt.Sprintf("T%d", ti), value.NewTuple(i))
					return err
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for i := 0; i < nt; i++ {
		tbl, _ := cat.Get(fmt.Sprintf("T%d", i))
		total += tbl.Len()
	}
	if total != 8*25 {
		t.Errorf("total rows = %d, want 200", total)
	}
}
