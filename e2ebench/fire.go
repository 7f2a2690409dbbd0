package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	sentinel "repro"
	"repro/internal/query"
	"repro/internal/txn"
)

// fireConfig distinguishes the two firing workloads.
type fireConfig struct {
	syncWAL  bool
	clients  int
	invokes  int  // Invokes per transaction
	deferred bool // DEFERRED CUMULATIVE rule on a composite; else IMMEDIATE on end(sell_stock)
	zipf     bool // Zipf(1.1)-chosen stocks, all sell_stock; else uniform with a set_price mix
	reopen   bool // close, reopen and re-verify after the run
}

const (
	fireStocks  = 1000
	fireBuckets = 100 // ten STOCK objects per bucket value
	fireQty     = 1 << 30
	// fireRing is how many ops each client pre-generates; longer runs
	// cycle through them again.
	fireRing = 1 << 14
)

// newFireSync is the durable firing path: every commit is fsynced, two
// clients contend for Zipf-hot objects, and an IMMEDIATE rule with an
// indexed Where writes one AUDIT record per sale.
func newFireSync(seed uint64) workload {
	return &fireWorkload{seed: seed, cfg: fireConfig{syncWAL: true, clients: 2, invokes: 1, zipf: true, reopen: true}}
}

// newFireDeferred is composite detection with deferred coupling: sixteen
// invokes per transaction feed a CUMULATIVE DEFERRED rule on a Snoop
// disjunction, which fires once at pre-commit and writes one AUDIT record;
// the WAL is not fsynced.
func newFireDeferred(seed uint64) workload {
	return &fireWorkload{seed: seed, cfg: fireConfig{clients: 1, invokes: 16, deferred: true}}
}

// fireInvoke is one pre-generated Invoke: a sale of qty, or a price change.
type fireInvoke struct {
	stock int
	sell  bool
	qty   int
	price float64
}

// fireClient is one closed-loop client's state. The rule action finds it
// through rootID, the ID of the top-level transaction the client is in.
type fireClient struct {
	rootID atomic.Uint64
	ops    [][]fireInvoke // pre-generated, used round-robin
	next   int

	// The current op, which its action reads and updates. The action runs
	// while the client is blocked in Invoke or Commit, sometimes on
	// another client's goroutine.
	id        int64
	inv       []fireInvoke
	tr        *trace
	runs      int   // action runs
	actionErr error // the occurrence did not match the op's invokes

	sold      []int       // committed sale quantity per stock
	committed []auditWant // one per committed op
}

// auditWant is the AUDIT record a committed op must have left.
type auditWant struct{ op, qty int64 }

type fireWorkload struct {
	seed   uint64
	cfg    fireConfig
	dir    string
	db     *sentinel.Database
	stocks []*sentinel.Instance
	index  map[sentinel.OID]int
	cl     []*fireClient
}

func (w *fireWorkload) clients() int                 { return w.cfg.clients }
func (w *fireWorkload) warmupOps() int64             { return int64(2000 / w.cfg.clients) }
func (w *fireWorkload) spansPerOp() int              { return 5 + w.cfg.invokes }
func (w *fireWorkload) database() *sentinel.Database { return w.db }

const fireSchema = `
class STOCK reactive {
    event end(sold) sell_stock(qty);
    event end(priced) set_price(price);
}
event sold_or_priced = sold | priced;
`

// openFire opens dir and declares the schema. Rules are session objects,
// so a reopened database has the data but no rules.
func openFire(dir string, syncWAL bool) (*sentinel.Database, error) {
	db, err := sentinel.Open(sentinel.Options{Dir: dir, SyncWAL: syncWAL})
	if err != nil {
		return nil, err
	}
	if err := db.Exec(fireSchema); err != nil {
		db.Close()
		return nil, err
	}
	if _, err := db.DefineClass("AUDIT", "", false); err != nil {
		db.Close()
		return nil, err
	}
	stock, err := db.Class("STOCK")
	if err != nil {
		db.Close()
		return nil, err
	}
	stock.DefineMethod(sentinel.Method{
		Name: "sell_stock", Params: []string{"qty"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("qty", self.Get("qty").(int)-args[0].(int))
			return nil, nil
		},
	})
	stock.DefineMethod(sentinel.Method{
		Name: "set_price", Params: []string{"price"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("price", args[0])
			return nil, nil
		},
	})
	return db, nil
}

func (w *fireWorkload) setup(dir string) error {
	rng := rand.New(rand.NewPCG(w.seed, 0xf1e))
	db, err := openFire(dir, w.cfg.syncWAL)
	if err != nil {
		return err
	}
	w.dir, w.db = dir, db
	w.index = make(map[sentinel.OID]int, fireStocks)
	for lo := 0; lo < fireStocks; lo += 500 {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for i := lo; i < lo+500; i++ {
			obj, err := db.New(tx, "STOCK", map[string]any{
				"bucket": float64(i % fireBuckets), "qty": fireQty, "price": 10.0,
			})
			if err != nil {
				tx.Abort()
				return err
			}
			w.stocks = append(w.stocks, obj)
			w.index[obj.OID] = i
		}
		if err := tx.Commit(); err != nil {
			return err
		}
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
	spec := sentinel.RuleSpec{
		Name:   "audit",
		Event:  "sold",
		Where:  &sentinel.RuleWhere{Class: "STOCK", Pred: query.Eq("bucket", float64(rng.IntN(fireBuckets)))},
		Action: w.action,
	}
	if w.cfg.deferred {
		spec.Event, spec.Context, spec.Coupling = "sold_or_priced", sentinel.Cumulative, sentinel.Deferred
	}
	if _, err := db.DefineRule(spec); err != nil {
		return err
	}

	// Hot stocks are a seeded permutation of Zipf ranks, so hotness is not
	// tied to insertion order.
	perm := rng.Perm(fireStocks)
	zipf := rand.NewZipf(rng, 1.1, 1, fireStocks-1)
	for c := 0; c < w.cfg.clients; c++ {
		cl := &fireClient{sold: make([]int, fireStocks)}
		for k := 0; k < fireRing/w.cfg.invokes; k++ {
			op := make([]fireInvoke, w.cfg.invokes)
			for j := range op {
				if w.cfg.zipf {
					op[j] = fireInvoke{stock: perm[zipf.Uint64()], sell: true, qty: 1 + rng.IntN(5)}
				} else {
					op[j] = fireInvoke{stock: rng.IntN(fireStocks), sell: rng.IntN(4) != 0, qty: 1 + rng.IntN(5), price: float64(1 + rng.IntN(1000))}
				}
			}
			cl.ops = append(cl.ops, op)
		}
		w.cl = append(w.cl, cl)
	}
	return nil
}

// action is the rule's action. It checks the triggering occurrence
// against the invokes the client made, then writes one AUDIT record
// carrying the op ID and the quantity the occurrence reports sold.
func (w *fireWorkload) action(x *sentinel.Execution) error {
	root := x.Txn.Root().ID()
	var cl *fireClient
	for _, c := range w.cl {
		if c.rootID.Load() == root {
			cl = c
		}
	}
	if cl == nil {
		// A rule the scheduler ran after its triggering transaction had
		// finished runs in a fresh top-level transaction of its own.
		return fmt.Errorf("action in transaction %d, which is no client's op", root)
	}
	s := cl.tr.begin(spanAction)
	defer cl.tr.end(s)
	cl.runs++
	qty, n := 0, 0
	for _, leaf := range x.Occurrence.Leaves() {
		if leaf.Method == "" {
			continue // the transaction events bracketing a deferred firing
		}
		if n >= len(cl.inv) {
			n++
			continue
		}
		want := cl.inv[n]
		n++
		if leaf.Object != w.stocks[want.stock].OID || (leaf.Name == "sold") != want.sell {
			cl.actionErr = fmt.Errorf("constituent %d is %s on %v, want stock %v (sell %v)",
				n-1, leaf.Name, leaf.Object, w.stocks[want.stock].OID, want.sell)
		}
		if v, ok := leaf.Params.Get("qty"); ok {
			q, _ := v.(int) // another type leaves the AUDIT qty short, which verify reports
			qty += q
		}
	}
	if n != len(cl.inv) {
		cl.actionErr = fmt.Errorf("occurrence has %d method constituents, want %d", n, len(cl.inv))
	}
	ns := cl.tr.begin(spanNew)
	_, err := w.db.New(x.Txn, "AUDIT", map[string]any{"op": cl.id, "qty": qty})
	cl.tr.end(ns)
	return err
}

func (w *fireWorkload) op(c int, id int64, tr *trace) (int, error) {
	cl := w.cl[c]
	cl.id, cl.tr, cl.runs, cl.actionErr = id, tr, 0, nil
	cl.inv = cl.ops[cl.next%len(cl.ops)]
	cl.next++
	s := tr.begin(spanBegin)
	tx, err := w.db.Begin()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	cl.rootID.Store(tx.ID())
	defer cl.rootID.Store(0)
	for k, in := range cl.inv {
		s := tr.begin(spanInvoke)
		if in.sell {
			_, err = w.db.Invoke(tx, w.stocks[in.stock], "sell_stock", in.qty)
		} else {
			_, err = w.db.Invoke(tx, w.stocks[in.stock], "set_price", in.price)
		}
		tr.end(s)
		if err != nil {
			return 0, w.abort(tx, cl.inv[:k], err)
		}
	}
	s = tr.begin(spanCommit)
	err = tx.Commit()
	tr.end(s)
	if err != nil {
		return 0, w.abort(tx, cl.inv, err)
	}
	return 0, nil
}

// abort rolls back an op that failed with cause. The clients share one
// in-memory instance per stock, so the sales the op made are first taken
// back from those instances, while the transaction still holds their
// locks. Commit fails with ErrActiveChildren when the op's rule is still
// running on another client's goroutine (the scheduler's Drain is shared),
// and so does Abort until that rule finishes; abort waits for it.
func (w *fireWorkload) abort(tx *sentinel.Txn, done []fireInvoke, cause error) error {
	for _, in := range done {
		if in.sell {
			attrs := w.stocks[in.stock].Attrs()
			attrs["qty"] = attrs["qty"].(int) + in.qty
		}
	}
	for {
		err := tx.Abort()
		if !errors.Is(err, txn.ErrActiveChildren) {
			return errors.Join(cause, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// check records a committed op and requires its action to have run
// exactly once, on an occurrence matching the op's invokes.
func (w *fireWorkload) check(c int) error {
	cl := w.cl[c]
	qty := int64(0)
	for _, in := range cl.inv {
		if in.sell {
			cl.sold[in.stock] += in.qty
			qty += int64(in.qty)
		}
	}
	cl.committed = append(cl.committed, auditWant{cl.id, qty})
	if cl.runs != 1 {
		return fmt.Errorf("committed after %d action runs in its transaction, want 1", cl.runs)
	}
	return cl.actionErr
}

// verify checks that every committed op left exactly one AUDIT record
// with the quantity it sold, that no other AUDIT record exists, and that
// every STOCK's qty fell by exactly its committed sales. fire_sync then
// reopens the database and checks the same again from disk.
func (w *fireWorkload) verify() error {
	if err := w.verifyState(w.db); err != nil {
		return err
	}
	if !w.cfg.reopen {
		return nil
	}
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	w.db = nil
	db, err := openFire(w.dir, w.cfg.syncWAL)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.db = db
	if err := w.verifyState(db); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

func (w *fireWorkload) verifyState(db *sentinel.Database) error {
	want := map[int64]int64{}
	sold := make([]int, fireStocks)
	for _, cl := range w.cl {
		for _, a := range cl.committed {
			want[a.op] = a.qty
		}
		for i, q := range cl.sold {
			sold[i] += q
		}
	}
	tx, err := db.BeginSnapshot()
	if err != nil {
		return err
	}
	defer tx.Commit()
	var bad error
	audits := 0
	err = db.ForEach(tx, "AUDIT", false, func(in *sentinel.Instance) bool {
		id, _ := in.Attr("op").(int64)
		got, _ := in.Attr("qty").(int)
		q, ok := want[id]
		switch {
		case !ok:
			bad = fmt.Errorf("AUDIT record for op %d, which did not commit or was audited twice", id)
		case int64(got) != q:
			bad = fmt.Errorf("AUDIT record for op %d says qty %v, the op sold %d", id, in.Attr("qty"), q)
		}
		delete(want, id)
		audits++
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if len(want) > 0 {
		return fmt.Errorf("%d committed ops have no AUDIT record (%d found)", len(want), audits)
	}
	stocks := 0
	err = db.ForEach(tx, "STOCK", false, func(in *sentinel.Instance) bool {
		i, ok := w.index[in.OID]
		if !ok {
			bad = fmt.Errorf("unexpected STOCK %v", in.OID)
		} else if got, _ := in.Attr("qty").(int); got != fireQty-sold[i] {
			bad = fmt.Errorf("STOCK %v has qty %v, want %d after its committed sales", in.OID, in.Attr("qty"), fireQty-sold[i])
		}
		stocks++
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad == nil && stocks != fireStocks {
		bad = fmt.Errorf("%d STOCK objects, want %d", stocks, fireStocks)
	}
	return bad
}

func (w *fireWorkload) close() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}
