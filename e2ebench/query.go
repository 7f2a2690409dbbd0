package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	sentinel "repro"
	"repro/internal/query"
)

const (
	queryObjects = 30000 // about ten times the 64-page (256 KiB) default pool
	queryBuckets = queryObjects / 10
	querySpan    = 5 // buckets an ordered range covers: 50 rows
	queryRing    = 1 << 15
)

// newQuerySnapshot is the read-only, larger-than-cache workload: one
// client runs snapshot queries, 90% hash-probed equality on bucket (10
// rows) and 10% ordered ranges (50 rows), with no rules and no writes.
func newQuerySnapshot(seed uint64) workload { return &queryWorkload{seed: seed} }

type queryOp struct {
	q      sentinel.Q
	lo, hi int // bucket range the result must cover, inclusive
}

type queryWorkload struct {
	seed    uint64
	db      *sentinel.Database
	members [][]sentinel.OID // sorted OIDs the generator placed in each bucket
	ops     []queryOp
	next    int
	last    *queryOp
	rows    []sentinel.Row
	got     []sentinel.OID // scratch for check
	want    []sentinel.OID
}

func (w *queryWorkload) clients() int                 { return 1 }
func (w *queryWorkload) warmupOps() int64             { return 4000 }
func (w *queryWorkload) spansPerOp() int              { return 4 }
func (w *queryWorkload) database() *sentinel.Database { return w.db }

func (w *queryWorkload) setup(dir string) error {
	rng := rand.New(rand.NewPCG(w.seed, 0x9e7))
	db, err := sentinel.Open(sentinel.Options{Dir: dir})
	if err != nil {
		return err
	}
	w.db = db
	if _, err := db.DefineClass("STOCK", "", false); err != nil {
		return err
	}
	// A seeded permutation spreads each bucket's ten objects over the
	// heap, so a probe touches pages the pool mostly does not hold.
	perm := rng.Perm(queryObjects)
	w.members = make([][]sentinel.OID, queryBuckets)
	const batch = 2000
	for lo := 0; lo < queryObjects; lo += batch {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for i := lo; i < lo+batch; i++ {
			b := perm[i] / 10
			obj, err := db.New(tx, "STOCK", map[string]any{
				"bucket": float64(b), "qty": 100 + i%900, "price": float64(i%1000) / 4,
			})
			if err != nil {
				tx.Abort()
				return err
			}
			w.members[b] = append(w.members[b], obj.OID)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	for _, m := range w.members {
		slices.Sort(m)
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	for _, kind := range []sentinel.IndexKind{sentinel.HashIndex, sentinel.OrderedIndex} {
		if _, err := db.CreateIndex(tx, "STOCK", "bucket", kind); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for i := 0; i < queryRing; i++ {
		if rng.IntN(10) != 0 {
			b := rng.IntN(queryBuckets)
			w.ops = append(w.ops, queryOp{q: sentinel.Q{Class: "STOCK", Where: query.Eq("bucket", float64(b))}, lo: b, hi: b})
		} else {
			lo := rng.IntN(queryBuckets - querySpan + 1)
			hi := lo + querySpan - 1
			w.ops = append(w.ops, queryOp{q: sentinel.Q{Class: "STOCK", Where: query.Between("bucket", float64(lo), float64(hi))}, lo: lo, hi: hi})
		}
	}
	return nil
}

func (w *queryWorkload) op(_ int, _ int64, tr *trace) (int, error) {
	w.last = &w.ops[w.next%len(w.ops)]
	w.next++
	s := tr.begin(spanBegin)
	tx, err := w.db.BeginSnapshot()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin(spanQuery)
	w.rows, err = w.db.Query(tx, w.last.q)
	tr.end(s)
	s = tr.begin(spanCommit)
	cerr := tx.Commit()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	return len(w.rows), cerr
}

// check compares the OIDs the query returned with the ones the generator
// placed in the probed bucket range.
func (w *queryWorkload) check(int) error {
	w.got, w.want = w.got[:0], w.want[:0]
	for _, r := range w.rows {
		w.got = append(w.got, r.OID)
	}
	for b := w.last.lo; b <= w.last.hi; b++ {
		w.want = append(w.want, w.members[b]...)
	}
	slices.Sort(w.got)
	slices.Sort(w.want)
	if !slices.Equal(w.got, w.want) {
		return fmt.Errorf("buckets [%d,%d]: query returned OIDs %v, want %v", w.last.lo, w.last.hi, w.got, w.want)
	}
	return nil
}

// verify has nothing left to check: every query was checked as it ran and
// the workload writes nothing.
func (w *queryWorkload) verify() error { return nil }

func (w *queryWorkload) close() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}
