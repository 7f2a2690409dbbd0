package query

import (
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/txn"
)

// fuzzValues is the palette fuzz inputs draw attribute values and
// predicate literals from: every kind the key encoding orders (null <
// bool < number < string), numbers that compare equal across Go types,
// ±0, and strings that extend one another.
var fuzzValues = []any{
	nil, false, true,
	0, math.Copysign(0, -1), 0.0, -1, 1, int64(1), 1.0, 2.5, -2.5, uint8(7), 1e300, -1e300,
	"", "a", "ab", "abc", "b", "a\x00", "\xff",
}

// fuzzAttrs are the attributes objects carry: one under a hash index, one
// under an ordered index, one unindexed.
var fuzzAttrs = []string{"h", "o", "u"}

// fuzzInput decodes a fuzz byte string; reads past the end yield zero, so
// every input is valid.
type fuzzInput struct {
	data []byte
	pos  int
}

func (in *fuzzInput) next() byte {
	if in.pos >= len(in.data) {
		return 0
	}
	b := in.data[in.pos]
	in.pos++
	return b
}

func (in *fuzzInput) value() any { return fuzzValues[int(in.next())%len(fuzzValues)] }

func (in *fuzzInput) attr() string { return fuzzAttrs[int(in.next())%len(fuzzAttrs)] }

// attrs builds one object's attributes; a byte past the palette leaves the
// attribute absent, which predicates read as null.
func (in *fuzzInput) attrs() map[string]any {
	out := map[string]any{}
	for _, a := range fuzzAttrs {
		if b := int(in.next()); b%(len(fuzzValues)+1) < len(fuzzValues) {
			out[a] = fuzzValues[b%(len(fuzzValues)+1)]
		}
	}
	return out
}

// pred builds a predicate tree at most depth connectives deep.
func (in *fuzzInput) pred(depth int) Pred {
	op := in.next() % 8
	if op == 7 && depth > 0 {
		switch in.next() % 3 {
		case 0:
			return And(in.pred(depth-1), in.pred(depth-1))
		case 1:
			return Or(in.pred(depth-1), in.pred(depth-1))
		default:
			return Not(in.pred(depth - 1))
		}
	}
	attr, v := in.attr(), in.value()
	switch op {
	case 1:
		return Ne(attr, v)
	case 2:
		return Lt(attr, v)
	case 3:
		return Le(attr, v)
	case 4:
		return Gt(attr, v)
	case 5:
		return Ge(attr, v)
	case 6:
		return Between(attr, v, in.value())
	}
	return Eq(attr, v)
}

// FuzzPlanEqualsScan checks the planner against the extent-scan oracle:
// for random mixed-kind data and random predicate trees, the planned query
// (hash probe, ordered range or scan) and Exists must agree with a full
// scan evaluating the predicate — under locked reads with the writer's own
// uncommitted changes, under the snapshot a rule condition reads through,
// and under snapshot transactions from before and after a committed batch
// of updates and deletes.
func FuzzPlanEqualsScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 3, 3, 3, 4, 4, 4, 5, 5, 5, 17, 18, 19, 0, 2, 0, 1, 3, 5, 1, 0, 4})
	f.Add([]byte{1, 6, 1, 1, 1, 2, 2, 2, 19, 19, 19, 20, 20, 20, 15, 16, 17, 3, 1, 2, 0, 1, 4, 6, 1, 15, 18, 7, 0, 0, 1, 15, 0, 0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		e := newEnv(t)
		defer e.close()
		indexFirst := in.next()%2 == 0

		tx := e.begin()
		createIndexes := func() {
			if _, err := e.qm.CreateIndex(tx, "STOCK", "h", HashIndex); err != nil {
				t.Fatal(err)
			}
			if _, err := e.qm.CreateIndex(tx, "STOCK", "o", OrderedIndex); err != nil {
				t.Fatal(err)
			}
		}
		if indexFirst {
			createIndexes()
		}
		objs := make([]*objRef, int(in.next())%16)
		for i := range objs {
			inst, err := e.reg.New(tx, "STOCK", in.attrs())
			if err != nil {
				t.Fatal(err)
			}
			objs[i] = &objRef{oid: inst.OID}
		}
		if !indexFirst {
			createIndexes()
		}
		e.commit(tx)

		preds := make([]Pred, 1+int(in.next())%4)
		for i := range preds {
			preds[i] = in.pred(2)
		}
		before, err := e.tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}

		// One transaction updates or deletes some objects; it checks its own
		// view, locked and through a condition's snapshot, before committing.
		tx = e.begin()
		for n := int(in.next()) % 8; n > 0 && len(objs) > 0; n-- {
			ref := objs[int(in.next())%len(objs)]
			if ref.deleted {
				continue
			}
			if in.next()%4 == 0 {
				if err := e.reg.Delete(tx, ref.oid); err != nil {
					t.Fatal(err)
				}
				ref.deleted = true
				continue
			}
			inst, err := e.reg.Load(tx, ref.oid)
			if err != nil {
				t.Fatal(err)
			}
			inst.Attrs()[in.attr()] = in.value()
			if err := e.reg.Persist(tx, inst); err != nil {
				t.Fatal(err)
			}
		}
		e.checkAll(tx, preds)
		release, err := tx.UseSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		e.checkAll(tx, preds)
		release()
		e.commit(tx)

		after, err := e.tm.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		e.checkAll(before, preds)
		e.checkAll(after, preds)
		for _, sn := range []*txn.Txn{before, after} {
			if err := sn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// objRef tracks a fuzz object across the mutation phase.
type objRef struct {
	oid     event.OID
	deleted bool
}

// checkAll asserts plan ≡ scan and Exists ≡ non-empty scan for every
// predicate under tx.
func (e *env) checkAll(tx *txn.Txn, preds []Pred) {
	e.t.Helper()
	for _, p := range preds {
		e.checkOracle(tx, "STOCK", p)
		ok, err := e.qm.Exists(tx, "STOCK", false, p)
		if err != nil {
			e.t.Fatal(err)
		}
		if want := len(e.scanOracle(tx, "STOCK", false, p)) > 0; ok != want {
			e.t.Fatalf("Exists(%v) = %v, scan finds rows: %v (plan: %s)",
				p, ok, want, e.qm.Explain(Q{Class: "STOCK", Where: p}))
		}
	}
}
