package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal")
}

// loggedCatalog opens a fresh log at dir and wires every catalog mutation
// into it.
func loggedCatalog(t *testing.T, dir string) (*storage.Catalog, *Log) {
	t.Helper()
	l, cat := openLog(t, dir, Options{})
	attach(cat, l)
	return cat, l
}

// recoverLog reopens the log at dir into a fresh catalog and closes it.
func recoverLog(t *testing.T, dir string) (*storage.Catalog, RecoveryInfo, error) {
	t.Helper()
	cat := storage.NewCatalog()
	l, err := OpenLog(dir, cat, Options{})
	if err != nil {
		return cat, RecoveryInfo{}, err
	}
	info := l.Recovered()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return cat, info, nil
}

// appendFrame appends one framed payload, with a valid CRC, to the single
// segment of the log at dir.
func appendFrame(t *testing.T, dir string, payload []byte) {
	t.Helper()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

func flightsSchema() *value.Schema {
	return value.NewSchema(value.Col("fno", value.TypeInt), value.Col("dest", value.TypeString))
}

func TestRecoverMissingFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	cat, info, err := recoverLog(t, dir)
	if err != nil || info.Records != 0 || len(cat.Names()) != 0 {
		t.Fatalf("records=%d tables=%v err=%v", info.Records, cat.Names(), err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("log directory not created: %v", err)
	}
}

func TestLogAndRecoverRoundTrip(t *testing.T) {
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)

	tbl, err := cat.Create("Flights", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("dest"); err != nil {
		t.Fatal(err)
	}
	id1, _ := tbl.Insert(value.NewTuple(122, "Paris"))
	id2, _ := tbl.Insert(value.NewTuple(136, "Rome"))
	tbl.Update(id2, value.NewTuple(136, "Milan")) //nolint:errcheck
	id3, _ := tbl.Insert(value.NewTuple(140, "Oslo"))
	tbl.Delete(id3) //nolint:errcheck
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh catalog.
	cat2, info, err := recoverLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 7 { // create, index, ins, ins, upd, ins, del
		t.Errorf("applied %d records", info.Records)
	}
	tbl2, err := cat2.Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 2 {
		t.Fatalf("recovered %d rows", tbl2.Len())
	}
	row, err := tbl2.Get(id1)
	if err != nil || row[1].Str() != "Paris" {
		t.Errorf("row1 = %v, %v", row, err)
	}
	row, err = tbl2.Get(id2)
	if err != nil || row[1].Str() != "Milan" {
		t.Errorf("row2 = %v, %v", row, err)
	}
	// Index recovered.
	if !tbl2.HasIndex([]int{1}) {
		t.Error("index not recovered")
	}
	// PK recovered: duplicate insert must fail.
	if _, err := tbl2.Insert(value.NewTuple(122, "Dup")); err == nil {
		t.Error("PK not recovered")
	}
	// RowID continuity: fresh inserts must not reuse ids.
	newID, err := tbl2.Insert(value.NewTuple(150, "Lima"))
	if err != nil {
		t.Fatal(err)
	}
	if newID <= id3 {
		t.Errorf("rowid %d reused (last was %d)", newID, id3)
	}
}

func TestRecoverDrop(t *testing.T) {
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)
	cat.Create("Tmp", flightsSchema())  //nolint:errcheck
	cat.Drop("Tmp")                     //nolint:errcheck
	cat.Create("Keep", flightsSchema()) //nolint:errcheck
	w.Close()                           //nolint:errcheck
	cat2, _, err := recoverLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Has("Tmp") || !cat2.Has("Keep") {
		t.Errorf("names = %v", cat2.Names())
	}
}

func TestTornFinalRecordTolerated(t *testing.T) {
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)
	cat.Create("T", flightsSchema()) //nolint:errcheck
	tbl, _ := cat.Get("T")
	tbl.Insert(value.NewTuple(1, "a")) //nolint:errcheck
	w.Close()                          //nolint:errcheck

	// Simulate a crash mid-append: a frame header promising more payload
	// than ever reached the file.
	f, err := os.OpenFile(filepath.Join(path, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 5, 6}) //nolint:errcheck
	f.Close()

	cat2, info, err := recoverLog(t, path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if info.Records != 2 || !info.Torn || info.TornBytes != 10 {
		t.Errorf("recovery = %+v", info)
	}
	tbl2, _ := cat2.Get("T")
	if tbl2.Len() != 1 {
		t.Errorf("rows = %d", tbl2.Len())
	}
}

// TestMidFileCorruptionFailsRecovery: a checksum-valid frame whose payload
// does not decode is corruption, never a torn write — recovery refuses even
// with valid records after it.
func TestMidFileCorruptionFailsRecovery(t *testing.T) {
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)
	cat.Create("T", flightsSchema()) //nolint:errcheck
	w.Close()                        //nolint:errcheck

	appendFrame(t, path, []byte{5, 200}) // insert op, truncated table name
	valid, err := appendRecordPayload(nil, storage.LogRecord{Op: storage.OpDropTable, Table: "T"})
	if err != nil {
		t.Fatal(err)
	}
	appendFrame(t, path, valid)

	if _, err := OpenLog(path, storage.NewCatalog(), Options{}); err == nil {
		t.Error("mid-file corruption not detected")
	}
}

func TestValueTaggedRoundTrip(t *testing.T) {
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)
	schema := value.NewSchema(
		value.Col("i", value.TypeInt), value.Col("f", value.TypeFloat),
		value.Col("s", value.TypeString), value.Col("b", value.TypeBool),
		value.Col("n", value.TypeInt),
	)
	cat.Create("V", schema) //nolint:errcheck
	tbl, _ := cat.Get("V")
	orig := value.NewTuple(7, 2.5, "x", true, nil)
	id, err := tbl.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	w.Close() //nolint:errcheck

	cat2, _, err := recoverLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, _ := cat2.Get("V")
	row, err := tbl2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Equal(orig) {
		t.Errorf("round trip %v != %v", row, orig)
	}
}

func TestRolledBackTxnConvergesOnReplay(t *testing.T) {
	// The log records both the mutation and its compensation; replay must
	// converge to the committed state only.
	path := tmpWAL(t)
	cat, w := loggedCatalog(t, path)
	cat.Create("T", flightsSchema()) //nolint:errcheck
	tbl, _ := cat.Get("T")
	keep, _ := tbl.Insert(value.NewTuple(1, "keep"))

	// Simulate what txn.Rollback does: apply, then compensate.
	id, _ := tbl.Insert(value.NewTuple(2, "doomed"))
	tbl.Delete(id) //nolint:errcheck
	old, _ := tbl.Delete(keep)
	tbl.RestoreAt(keep, old) //nolint:errcheck
	w.Close()                //nolint:errcheck

	cat2, _, err := recoverLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, _ := cat2.Get("T")
	if tbl2.Len() != 1 {
		t.Fatalf("rows = %d", tbl2.Len())
	}
	row, _ := tbl2.Get(keep)
	if row[1].Str() != "keep" {
		t.Errorf("row = %v", row)
	}
}

// failingFS fails every segment write once armed.
type failingFS struct {
	FS
	armed *bool
}

func (f failingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failingFile{File: file, armed: f.armed}, nil
}

type failingFile struct {
	File
	armed *bool
}

var errDiskFull = errors.New("disk full")

func (f failingFile) Write(p []byte) (int, error) {
	if *f.armed {
		return 0, errDiskFull
	}
	return f.File.Write(p)
}

// TestAppendAfterCloseSticks: the first write error is sticky — every later
// Append returns it and Err reports it — and Close surfaces it too.
func TestAppendAfterCloseSticks(t *testing.T) {
	armed := false
	l, _ := openLog(t, tmpWAL(t), Options{FS: failingFS{FS: OSFS(), armed: &armed}})
	rec := storage.LogRecord{Op: storage.OpDropTable, Table: "x"}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := l.Append(rec); !errors.Is(err, errDiskFull) {
		t.Fatalf("append on failing disk: %v", err)
	}
	armed = false
	if err := l.Append(rec); !errors.Is(err, errDiskFull) {
		t.Errorf("error not sticky: %v", err)
	}
	if !errors.Is(l.Err(), errDiskFull) {
		t.Errorf("Err = %v", l.Err())
	}
	if err := l.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("Close = %v", err)
	}
}

func TestRecoverUnknownOp(t *testing.T) {
	path := tmpWAL(t)
	_, w := loggedCatalog(t, path)
	w.Close() //nolint:errcheck
	appendFrame(t, path, append([]byte{200}, storage.AppendString(nil, "T")...))
	if _, err := OpenLog(path, storage.NewCatalog(), Options{}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("err = %v", err)
	}
}

func TestTableIndexAccessors(t *testing.T) {
	tbl, err := storage.NewTable("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	tbl.CreateIndex("dest")        //nolint:errcheck
	tbl.CreateIndex("fno", "dest") //nolint:errcheck
	ixs := tbl.Indexes()
	if len(ixs) != 2 {
		t.Fatalf("indexes = %v", ixs)
	}
	if tbl2, _ := storage.NewTable("U", flightsSchema()); tbl2.PrimaryKey() != nil {
		t.Error("PK of keyless table should be nil")
	}
}
