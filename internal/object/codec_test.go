package object

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// atomicAttrs holds one value of every atomic kind (event.Atomic).
func atomicAttrs() map[string]any {
	return map[string]any{
		"nil": nil, "bool": true, "str": "hello", "empty": "",
		"int": int(-5), "i8": int8(-8), "i16": int16(-16), "i32": int32(-32), "i64": int64(-64),
		"uint": uint(5), "u8": uint8(8), "u16": uint16(16), "u32": uint32(32), "u64": uint64(1 << 63),
		"f32": float32(1.5), "f64": 2.5, "oid": event.OID(7),
	}
}

func openRegistry(t *testing.T, dir string) (*Registry, *txn.Manager, *storage.Store) {
	t.Helper()
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager(st, lockmgr.New())
	r := NewRegistry(nil, st)
	stockClass(t, r)
	tx, _ := tm.Begin()
	if err := r.InitCatalog(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return r, tm, st
}

// Every atomic attribute kind reloads after close/reopen as the same
// concrete Go type and value.
func TestAtomicAttrsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	r, tm, st := openRegistry(t, dir)
	tx, _ := tm.Begin()
	obj, err := r.New(tx, "STOCK", atomicAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r2, tm2, st2 := openRegistry(t, dir)
	defer st2.Close()
	tx2, _ := tm2.Begin()
	defer tx2.Commit()
	loaded, err := r2.Load(tx2, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range atomicAttrs() {
		got := loaded.Attr(k)
		if reflect.TypeOf(got) != reflect.TypeOf(want) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reloaded %#v (%T), want %#v (%T)", k, got, got, want, want)
		}
	}
}

// A non-atomic attribute cannot be persisted, by New or by Persist.
func TestNonAtomicAttrRejected(t *testing.T) {
	r, tm, _ := persistEnv(t)
	stockClass(t, r)
	tx, _ := tm.Begin()
	defer tx.Abort()
	if _, err := r.New(tx, "STOCK", map[string]any{"lots": []int{1, 2}}); err == nil {
		t.Fatal("New persisted a []int attribute")
	}
	obj, err := r.New(tx, "STOCK", map[string]any{"qty": 1})
	if err != nil {
		t.Fatal(err)
	}
	obj.Attrs()["lots"] = []int{1, 2}
	if err := r.Persist(tx, obj); err == nil {
		t.Fatal("Persist wrote a []int attribute")
	}
}

// A directory written by a v3 build (gob object records) is refused at
// open, before any record is decoded.
func TestV3DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	_, _, st := openRegistry(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sentinel.meta"), []byte("sentinel-format v3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(storage.Options{Dir: dir, PoolSize: 32}); !errors.Is(err, storage.ErrIncompatibleFormat) {
		t.Fatalf("open v3 directory: %v, want ErrIncompatibleFormat", err)
	}
}
