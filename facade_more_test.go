package sentinel_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/lockmgr"
	"repro/internal/query"
	"repro/internal/txn"
)

// TestConcurrentTransactionsSerialize: two transactions invoking a
// mutating method on the same object are serialized by the object lock;
// the final state reflects both. Load-then-Invoke is an S→X lock upgrade,
// so concurrent workers can deadlock; the lock manager aborts a victim,
// and the worker retries its transaction — the standard client response.
func TestConcurrentTransactionsSerialize(t *testing.T) {
	db := openStockDB(t, t.TempDir())
	setup, _ := db.Begin()
	obj, err := db.New(setup, "STOCK", map[string]any{"qty": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers, per = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	sellOne := func() error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		loaded, err := db.Load(tx, obj.OID)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		if _, err := db.Invoke(tx, loaded, "sell_stock", 1); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					err := sellOne()
					if err == nil {
						break
					}
					if errors.Is(err, lockmgr.ErrDeadlock) {
						continue // aborted as a deadlock victim: retry
					}
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	check, _ := db.Begin()
	final, err := db.Load(check, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Attr("qty").(int); got != 1000-workers*per {
		t.Fatalf("qty=%d want %d (lost updates)", got, 1000-workers*per)
	}
	_ = check.Commit()
}

// TestSchedulingPointRunsOwnFamilysRules: one client loops Begin →
// Invoke → Commit with an IMMEDIATE rule (hash-probed Where, writing
// action) on the method, while a second client only loops Begin/Abort.
// The second client's scheduling points must neither run nor hide the
// first client's rule: every Invoke returns after exactly one action run
// in its own transaction, and no Commit finds a rule subtransaction still
// active.
func TestSchedulingPointRunsOwnFamilysRules(t *testing.T) {
	db := openStockDB(t, t.TempDir())
	if _, err := db.DefineClass("AUDIT", "", false); err != nil {
		t.Fatal(err)
	}
	setup, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(setup, "STOCK", "sym", sentinel.HashIndex); err != nil {
		t.Fatal(err)
	}
	obj, err := db.New(setup, "STOCK", map[string]any{"sym": "HOT", "qty": 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	var (
		current atomic.Uint64 // root id of client A's open transaction
		runs    atomic.Int64  // action runs inside that transaction
	)
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name:  "audit",
		Event: "e1", // end sell_stock(qty)
		Where: &sentinel.RuleWhere{Class: "STOCK", Pred: query.Eq("sym", "HOT")},
		Action: func(x *sentinel.Execution) error {
			if x.Txn.Root().ID() == current.Load() {
				runs.Add(1)
			}
			_, err := db.New(x.Txn, "AUDIT", map[string]any{"at": int64(x.Txn.ID())})
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}

	const ops = 1500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // client B: scheduling points of its own, no rules
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Abort(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var missed, activeChildren int
	for i := 0; i < ops; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		current.Store(tx.ID())
		runs.Store(0)
		if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 1 {
			missed++
		}
		err = tx.Commit()
		if errors.Is(err, txn.ErrActiveChildren) {
			activeChildren++
			// The stray rule subtransaction finishes on client B's
			// goroutine; abort once it has, so no locks are left behind.
			for errors.Is(err, txn.ErrActiveChildren) {
				time.Sleep(time.Millisecond)
				err = tx.Abort()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if missed != 0 || activeChildren != 0 {
		t.Fatalf("of %d ops, %d returned from Invoke without their action run, %d commits failed with active children",
			ops, missed, activeChildren)
	}
}

// TestVisibilityThroughFacade: class-body rules with visibilities,
// end to end through Exec and reactive dispatch.
func TestVisibilityThroughFacade(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{SerialRules: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var priv, prot []string
	db.BindAction("privAct", func(x *sentinel.Execution) error {
		priv = append(priv, x.Occurrence.Leaves()[0].Class)
		return nil
	})
	db.BindAction("protAct", func(x *sentinel.Execution) error {
		prot = append(prot, x.Occurrence.Leaves()[0].Class)
		return nil
	})
	if err := db.Exec(`
class SECURITY reactive {
    event end(traded) trade(amount);
}
class STOCK extends SECURITY reactive {
    private   rule OnlyStock(traded, true, privAct);
    protected rule Subtree(traded, true, protAct);
}
class TECH_STOCK extends STOCK reactive { }
`); err != nil {
		t.Fatal(err)
	}
	sec, _ := db.Class("SECURITY")
	sec.DefineMethod(sentinel.Method{
		Name: "trade", Params: []string{"amount"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) { return nil, nil },
	})
	tx, _ := db.Begin()
	for _, cls := range []string{"SECURITY", "STOCK", "TECH_STOCK"} {
		obj, err := db.New(tx, cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Invoke(tx, obj, "trade", 5); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	if len(priv) != 1 || priv[0] != "STOCK" {
		t.Fatalf("private rule ran for %v", priv)
	}
	if len(prot) != 2 || prot[0] != "STOCK" || prot[1] != "TECH_STOCK" {
		t.Fatalf("protected rule ran for %v", prot)
	}
	r, err := db.GetRule("OnlyStock")
	if err != nil || r.Class() != "STOCK" {
		t.Fatalf("rule introspection: %v %v", r, err)
	}
}

// TestRecordAndReplayThroughFacade: record an online stream, replay it in
// a second database where a rule was defined only afterwards.
func TestRecordAndReplayThroughFacade(t *testing.T) {
	online := openStockDB(t, "")
	var buf bytes.Buffer
	stop, err := online.RecordEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := online.Begin()
	obj, _ := online.New(tx, "STOCK", map[string]any{"qty": 10})
	for i := 0; i < 3; i++ {
		if _, err := online.Invoke(tx, obj, "sell_stock", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing recorded")
	}

	batch := openStockDB(t, "")
	var runs int
	batch.BindAction("onSell", func(*sentinel.Execution) error { runs++; return nil })
	if err := batch.Exec(`rule Post(e1, true, onSell);`); err != nil {
		t.Fatal(err)
	}
	n, err := batch.ReplayLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || runs != 3 {
		t.Fatalf("replayed=%d rule runs=%d", n, runs)
	}
}

// failAfter accepts n writes, then fails every write.
type failAfter struct {
	bytes.Buffer
	n int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDiskFull
	}
	w.n--
	return w.Buffer.Write(p)
}

// TestRecordEventsReportsWriteError: a writer that fails mid-recording
// must surface its error from stop, and the log must hold exactly the
// occurrences written before the failure.
func TestRecordEventsReportsWriteError(t *testing.T) {
	online := openStockDB(t, "")
	w := &failAfter{n: 2}
	stop, err := online.RecordEvents(w)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := online.Begin()
	obj, _ := online.New(tx, "STOCK", map[string]any{"qty": 10})
	for i := 0; i < 4; i++ {
		if _, err := online.Invoke(tx, obj, "sell_stock", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); !errors.Is(err, errDiskFull) {
		t.Fatalf("stop() = %v, want the writer's error", err)
	}
	batch := openStockDB(t, "")
	if n, err := batch.ReplayLog(&w.Buffer); err != nil || n != 2 {
		t.Fatalf("replayed %d (err %v), want the 2 occurrences written before the failure", n, err)
	}
}

// TestDeadlockBrokenAcrossRuleSubtransactions: two concurrent transactions
// locking two objects in opposite orders; the deadlock must be detected
// and one side aborted, after which the other completes.
func TestDeadlockBrokenAcrossTransactions(t *testing.T) {
	db := openStockDB(t, "")
	setup, _ := db.Begin()
	a, _ := db.New(setup, "STOCK", map[string]any{"qty": 10})
	b, _ := db.New(setup, "STOCK", map[string]any{"qty": 10})
	_ = setup.Commit()

	start := make(chan struct{})
	results := make(chan error, 2)
	run := func(first, second *sentinel.Instance) {
		<-start
		tx, err := db.Begin()
		if err != nil {
			results <- err
			return
		}
		if _, err := db.Invoke(tx, first, "sell_stock", 1); err != nil {
			_ = tx.Abort()
			results <- err
			return
		}
		if _, err := db.Invoke(tx, second, "sell_stock", 1); err != nil {
			_ = tx.Abort()
			results <- err
			return
		}
		results <- tx.Commit()
	}
	go run(a, b)
	go run(b, a)
	close(start)
	var failures int
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			failures++
			if !strings.Contains(err.Error(), "deadlock") && !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("unexpected failure: %v", err)
			}
		}
	}
	if failures == 2 {
		t.Fatal("both transactions failed; livelock instead of victim selection")
	}
}

// TestManyRulesManyEvents: a denser schema driving many rules in one
// transaction; sanity for bookkeeping at scale.
func TestManyRulesManyEvents(t *testing.T) {
	db := openStockDB(t, "")
	var mu sync.Mutex
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("act%d", i)
		db.BindAction(name, func(*sentinel.Execution) error {
			mu.Lock()
			counts[name]++
			mu.Unlock()
			return nil
		})
		ev := "e1"
		if i%2 == 1 {
			ev = "e3"
		}
		if err := db.Exec(fmt.Sprintf(`rule R%d(%s, true, %s, RECENT, IMMEDIATE, %d);`, i, ev, name, i%5)); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 100})
	for i := 0; i < 5; i++ {
		if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Invoke(tx, obj, "set_price", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	mu.Lock()
	defer mu.Unlock()
	for name, n := range counts {
		if n != 5 {
			t.Fatalf("%s ran %d times, want 5", name, n)
		}
	}
	if len(counts) != 20 {
		t.Fatalf("only %d rules ran", len(counts))
	}
}

// TestPersistentReopenKeepsData: rules are session objects (bound to Go
// functions), but data and names survive reopen and rules can be
// redefined against them.
func TestPersistentReopenKeepsData(t *testing.T) {
	dir := t.TempDir()
	db := openStockDB(t, dir)
	var fired int
	db.BindAction("n", func(*sentinel.Execution) error { fired++; return nil })
	if err := db.Exec(`rule R(e1, true, n);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 50})
	if err := db.Bind(tx, "acme", obj.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 5); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStockDB(t, dir)
	var fired2 int
	db2.BindAction("n", func(*sentinel.Execution) error { fired2++; return nil })
	if err := db2.Exec(`rule R(e1, true, n);`); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db2.Begin()
	oid, err := db2.Resolve(tx2, "acme")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := db2.Load(tx2, oid)
	if err != nil || loaded.Attr("qty").(int) != 45 {
		t.Fatalf("reloaded qty: %v %v", loaded, err)
	}
	if _, err := db2.Invoke(tx2, loaded, "sell_stock", 5); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Commit()
	if fired2 != 1 {
		t.Fatalf("redefined rule fired %d times", fired2)
	}
}

// TestStartClockFiresTemporalRules: the wall-clock pump drives temporal
// rules without explicit AdvanceTime calls.
func TestStartClockFiresTemporalRules(t *testing.T) {
	db := openStockDB(t, "")
	if err := db.Exec(`event soon = e1 + 3;`); err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 1)
	db.BindAction("ping", func(*sentinel.Execution) error {
		select {
		case fired <- struct{}{}:
		default:
		}
		return nil
	})
	if err := db.Exec(`rule R(soon, true, ping);`); err != nil {
		t.Fatal(err)
	}
	stop := db.StartClock(1e6) // 1ms per unit
	defer stop()
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 5})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-timeAfter(5):
		t.Fatal("temporal rule never fired under StartClock")
	}
	_ = tx.Commit()
}

// timeAfter returns a channel firing after n seconds (helper avoiding a
// direct time import clash in this file).
func timeAfter(seconds int) <-chan time.Time {
	return time.After(time.Duration(seconds) * time.Second)
}
