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

// TestNoDirtyReads: a snapshot reader never observes uncommitted state — it
// scans concurrently with a writer holding an uncommitted insert (no
// blocking under MVCC) and must not see the in-flight row.
func TestNoDirtyReads(t *testing.T) {
	m, tbl := setup(t)
	writer := m.Begin()
	if _, err := writer.Insert("Flights", value.NewTuple(999, "Phantom")); err != nil {
		t.Fatal(err)
	}

	sawPhantomRow := make(chan bool, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reader := m.Begin()
		defer reader.Rollback()
		found := false
		reader.Scan("Flights", func(_ storage.RowID, row value.Tuple) bool { //nolint:errcheck
			if row[0].Int() == 999 {
				found = true
			}
			return true
		})
		sawPhantomRow <- found
	}()

	// Let the reader run concurrently with the uncommitted writer, then abort.
	time.Sleep(30 * time.Millisecond)
	writer.Rollback()
	wg.Wait()
	if <-sawPhantomRow {
		t.Error("reader observed uncommitted (rolled back) insert")
	}
	if got := tbl.LookupEq([]int{0}, value.NewTuple(999)); len(got) != 0 {
		t.Error("phantom row survived rollback")
	}
}

// TestNoLostUpdates: concurrent read-modify-write increments under 2PL never
// lose updates.
func TestNoLostUpdates(t *testing.T) {
	cat := storage.NewCatalog()
	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("n", value.TypeInt))
	tbl, _ := cat.Create("Counter", schema, "id")
	rowID, _ := tbl.Insert(value.NewTuple(1, 0))
	m := NewManager(cat)

	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := m.RunAtomic(func(tx *Txn) error {
					// Exclusive first: read-modify-write under one lock.
					if err := tx.Lock("Counter"); err != nil {
						return err
					}
					row, err := tx.Get("Counter", rowID)
					if err != nil {
						return err
					}
					return tx.Update("Counter", rowID, value.NewTuple(1, row[1].Int()+1))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	row, _ := tbl.Get(rowID)
	if got := row[1].Int(); got != workers*iters {
		t.Errorf("counter = %d, want %d (lost updates)", got, workers*iters)
	}
}

// TestRepeatableReadWithinTxn: two scans inside one transaction see the same
// rows even while another writer inserts and commits in between — the
// transaction's pinned snapshot makes the second scan repeatable.
func TestRepeatableReadWithinTxn(t *testing.T) {
	m, _ := setup(t)
	reader := m.Begin()
	defer reader.Rollback()

	count := func() int {
		n := 0
		reader.Scan("Flights", func(storage.RowID, value.Tuple) bool { n++; return true }) //nolint:errcheck
		return n
	}
	before := count()

	writerDone := make(chan error, 1)
	go func() {
		writerDone <- m.RunAtomic(func(tx *Txn) error {
			_, err := tx.Insert("Flights", value.NewTuple(777, "Sneaky"))
			return err
		})
	}()
	time.Sleep(20 * time.Millisecond) // writer has committed underneath us by now
	if after := count(); after != before {
		t.Errorf("non-repeatable read: %d then %d", before, after)
	}
	reader.Rollback()
	if err := <-writerDone; err != nil {
		t.Fatalf("writer failed after reader finished: %v", err)
	}
}

// rowID returns the RowID of the flight with the given number.
func rowID(t *testing.T, tbl *storage.Table, fno int) storage.RowID {
	t.Helper()
	ids := tbl.LookupEq([]int{0}, value.NewTuple(fno))
	if len(ids) != 1 {
		t.Fatalf("flight %d: found %d rows", fno, len(ids))
	}
	return ids[0]
}

// TestFirstCommitterWins: two transactions with overlapping snapshots update
// the same row; the one that commits first wins, the other aborts with
// ErrWriteConflict (no waiting) and the conflict shows in the stats.
func TestFirstCommitterWins(t *testing.T) {
	m, tbl := setup(t)
	id := rowID(t, tbl, 122)
	base := m.Stats().WriteConflicts

	t1, t2 := m.Begin(), m.Begin()
	// Reading pins t2's snapshot before t1 commits — the overlap that makes
	// the later write a conflict rather than a plain sequential update.
	if _, err := t2.Get("Flights", id); err != nil {
		t.Fatal(err)
	}
	if err := t1.Update("Flights", id, value.NewTuple(122, "Berlin")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := t2.Update("Flights", id, value.NewTuple(122, "Madrid")); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("second committer got %v, want ErrWriteConflict", err)
	}
	t2.Rollback() //nolint:errcheck
	if got := m.Stats().WriteConflicts; got != base+1 {
		t.Errorf("WriteConflicts = %d, want %d", got, base+1)
	}
	if row, _ := tbl.Get(id); row[1].Str() != "Berlin" {
		t.Errorf("row = %v, want the first committer's update", row)
	}
}

// TestWriteSkewAllowed pins snapshot isolation's known anomaly as ALLOWED:
// two transactions each read both rows of an invariant and write disjoint
// rows; both commit. Serializability would abort one — SI does not, and this
// reproduction deliberately stops at SI (first-committer-wins on overlapping
// write sets only).
func TestWriteSkewAllowed(t *testing.T) {
	m, tbl := setup(t)
	a, b := rowID(t, tbl, 122), rowID(t, tbl, 123)

	t1, t2 := m.Begin(), m.Begin()
	for _, tx := range []*Txn{t1, t2} {
		if _, err := tx.Get("Flights", a); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get("Flights", b); err != nil {
			t.Fatal(err)
		}
	}
	// Disjoint write sets: t1 → row a, t2 → row b. The per-table write lock
	// serializes the writes themselves, but neither sees a w-w conflict.
	if err := t1.Update("Flights", a, value.NewTuple(122, "SkewA")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("Flights", b, value.NewTuple(123, "SkewB")); err != nil {
		t.Fatalf("disjoint write aborted: %v (write skew must be allowed under SI)", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	ra, _ := tbl.Get(a)
	rb, _ := tbl.Get(b)
	if ra[1].Str() != "SkewA" || rb[1].Str() != "SkewB" {
		t.Errorf("rows = %v / %v, want both skewed writes committed", ra, rb)
	}
}

// TestSnapshotReadDuringUncommittedWrite is the acceptance pin of the MVCC
// change: while a writer holds an exclusive lock AND uncommitted updates on a
// table, a concurrent reader completes immediately against its snapshot and
// sees the pre-image. Under the old shared-lock protocol this read would
// block until the writer finished.
func TestSnapshotReadDuringUncommittedWrite(t *testing.T) {
	m, tbl := setup(t)
	id := rowID(t, tbl, 122)

	w := m.Begin()
	if err := w.Update("Flights", id, value.NewTuple(122, "Berlin")); err != nil {
		t.Fatal(err)
	}

	r := m.Begin()
	start := time.Now()
	row, err := r.Get("Flights", id)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("snapshot read under uncommitted writer: %v", err)
	}
	if row[1].Str() != "Paris" {
		t.Fatalf("read %q under uncommitted writer, want pre-image Paris", row[1].Str())
	}
	if elapsed > time.Second {
		t.Errorf("snapshot read took %s; it must not wait for the writer", elapsed)
	}
	n := 0
	if err := r.Scan("Flights", func(storage.RowID, value.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scan under uncommitted writer saw %d rows, want 3", n)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if row, _ := tbl.Get(id); row[1].Str() != "Berlin" {
		t.Errorf("post-commit row = %v", row)
	}
}

// TestReadOnlyTxnNeverAbortsOrWaits: read-only transactions running against
// continuous update churn never time out, never conflict, and always see a
// consistent full table.
func TestReadOnlyTxnNeverAbortsOrWaits(t *testing.T) {
	m, tbl := setup(t)
	id := rowID(t, tbl, 122)
	base := m.Stats()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := m.RunAtomic(func(tx *Txn) error {
				return tx.Update("Flights", id, value.NewTuple(122, fmt.Sprintf("city%d", i)))
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	readers := 0
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); readers++ {
		r := m.Begin()
		if _, err := r.Get("Flights", id); err != nil {
			t.Fatalf("read-only txn errored: %v", err)
		}
		n := 0
		if err := r.Scan("Flights", func(storage.RowID, value.Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("read-only scan saw %d rows, want 3", n)
		}
		if err := r.Commit(); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if readers == 0 {
		t.Fatal("no reader iterations completed")
	}
	st := m.Stats()
	if st.Timeouts != base.Timeouts {
		t.Errorf("lock timeouts rose %d → %d during a read-only run", base.Timeouts, st.Timeouts)
	}
	if _, err := tbl.Get(id); err != nil {
		t.Fatal(err)
	}
}
