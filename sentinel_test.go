package sentinel_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/ged"
)

// openStockDB builds a database (in-memory unless dir is set) with the
// paper's STOCK class and its event interface.
func openStockDB(t *testing.T, dir string) *sentinel.Database {
	t.Helper()
	db, err := sentinel.Open(sentinel.Options{Dir: dir, AppName: "test", SerialRules: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.Exec(`
class STOCK reactive {
    event end(e1) sell_stock(qty);
    event begin(e2) && end(e3) set_price(price);
}
event e4 = e2 and e1;
`); err != nil {
		t.Fatal(err)
	}
	stock, err := db.Class("STOCK")
	if err != nil {
		t.Fatal(err)
	}
	stock.DefineMethod(sentinel.Method{
		Name: "set_price", Params: []string{"price"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("price", args[0])
			return nil, nil
		},
	})
	stock.DefineMethod(sentinel.Method{
		Name: "sell_stock", Params: []string{"qty"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			cur, _ := self.Get("qty").(int)
			self.Set("qty", cur-args[0].(int))
			return cur - args[0].(int), nil
		},
	})
	return db
}

// TestE9_WrapperExample reproduces §3.2.1: invoking set_price signals the
// begin and end events with the collected parameter list and the OID.
func TestE9_WrapperExample(t *testing.T) {
	db := openStockDB(t, "")
	var got []string
	var mu sync.Mutex
	db.BindAction("record", func(x *sentinel.Execution) error {
		mu.Lock()
		defer mu.Unlock()
		leaf := x.Occurrence.Leaves()[0]
		v, _ := leaf.Params.Get("price")
		got = append(got, leaf.Name, leaf.Object.String(), leaf.Modifier.String(),
			strings.TrimSpace(strings.Split(leaf.Params.String(), "=")[1]))
		_ = v
		return nil
	})
	if err := db.Exec(`rule RB(e2, true, record); rule RE(e3, true, record);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, err := db.New(tx, "STOCK", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "set_price", 42.5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 8 {
		t.Fatalf("got=%v", got)
	}
	if got[0] != "e2" || got[2] != "begin" || got[4] != "e3" || got[6] != "end" {
		t.Fatalf("begin/end order: %v", got)
	}
	if got[1] != obj.OID.String() {
		t.Fatalf("OID param: %v", got)
	}
}

// TestE1_CompositeAndRule reproduces the class-level rule R1 on
// e4 = e2 AND e1 from §3.1.
func TestE1_CompositeAndRule(t *testing.T) {
	db := openStockDB(t, "")
	var fired int
	db.BindAction("action1", func(x *sentinel.Execution) error {
		fired++
		if len(x.Params()) != 2 {
			t.Errorf("composite params: %v", x.Params())
		}
		return nil
	})
	if err := db.Exec(`rule R1(e4, true, action1, RECENT, IMMEDIATE, 10, NOW);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 100})
	if _, err := db.Invoke(tx, obj, "set_price", 10.0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("AND fired on one constituent")
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 10); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	_ = tx.Commit()
}

// TestE5_DeferredNetEffect reproduces the deferred-mode rewrite: the rule
// runs exactly once per transaction, at pre-commit, with the cumulative
// parameters of every triggering occurrence.
func TestE5_DeferredNetEffect(t *testing.T) {
	db := openStockDB(t, "")
	var runs, leaves int
	db.BindAction("sum", func(x *sentinel.Execution) error {
		runs++
		leaves = len(x.Occurrence.Leaves())
		return nil
	})
	if err := db.Exec(`rule RD(e1, true, sum, CUMULATIVE, DEFERRED);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 100})
	for i := 0; i < 4; i++ {
		if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 0 {
		t.Fatal("deferred ran before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("runs=%d want 1", runs)
	}
	if leaves != 6 { // begin + 4×e1 + preCommit
		t.Fatalf("leaves=%d want 6", leaves)
	}
}

// TestE11_FlushAcrossTransactions: an aborted transaction's occurrences
// must never participate in a later detection (§3.2.2(3)).
func TestE11_FlushAcrossTransactions(t *testing.T) {
	db := openStockDB(t, "")
	var fired int
	db.BindAction("boom", func(*sentinel.Execution) error { fired++; return nil })
	if err := db.Exec(`rule R(e4, true, boom);`); err != nil {
		t.Fatal(err)
	}
	tx1, _ := db.Begin()
	obj, _ := db.New(tx1, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx1, obj, "set_price", 1.0); err != nil { // e2: initiates e4
		t.Fatal(err)
	}
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin()
	obj2, _ := db.New(tx2, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx2, obj2, "sell_stock", 1); err != nil { // e1: would complete e4
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("rule fired with a flushed constituent (%d)", fired)
	}
	_ = tx2.Commit()
}

// TestE12_NestedRules: a rule's action triggering another rule, run
// depth-first as nested subtransactions.
func TestE12_NestedRules(t *testing.T) {
	db := openStockDB(t, "")
	var order []string
	db.BindAction("cascade", func(x *sentinel.Execution) error {
		order = append(order, "outer")
		// Raising e2 from inside the rule (under the rule's subtxn).
		obj, err := db.New(x.Txn, "STOCK", nil)
		if err != nil {
			return err
		}
		_, err = db.Invoke(x.Txn, obj, "set_price", 5.0)
		return err
	})
	db.BindAction("inner", func(*sentinel.Execution) error {
		order = append(order, "inner")
		return nil
	})
	if err := db.Exec(`
rule Outer(e1, true, cascade);
rule Inner(e2, true, inner);
`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order=%v", order)
	}
	_ = tx.Commit()
}

// TestE15_TriggerModes: NOW vs PREVIOUS at the facade level.
func TestE15_TriggerModes(t *testing.T) {
	db := openStockDB(t, "")
	if err := db.Exec(`event s = e2 >> e1;`); err != nil {
		t.Fatal(err)
	}
	var keeper, nowRuns, prevRuns int
	db.BindAction("keep", func(*sentinel.Execution) error { keeper++; return nil })
	// keeper holds the chronicle context open from the start.
	if err := db.Exec(`rule Keeper(s, true, keep, CHRONICLE);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx, obj, "set_price", 1.0); err != nil { // e2 initiator
		t.Fatal(err)
	}
	db.BindAction("nowAct", func(*sentinel.Execution) error { nowRuns++; return nil })
	db.BindAction("prevAct", func(*sentinel.Execution) error { prevRuns++; return nil })
	if err := db.Exec(`
rule NowR(s, true, nowAct, CHRONICLE, NOW);
rule PrevR(s, true, prevAct, CHRONICLE, PREVIOUS);
`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil { // e1 terminator
		t.Fatal(err)
	}
	if prevRuns != 1 || nowRuns != 0 {
		t.Fatalf("prev=%d now=%d", prevRuns, nowRuns)
	}
	_ = tx.Commit()
}

// TestE7_ControlFlowPersistent drives the full Figure 2 pipeline against
// a persistent store: primitive signal → composite detection → immediate
// rule as subtransaction writing to the database → deferred rule at
// pre-commit → flush at commit → durability across reopen.
func TestE7_ControlFlowPersistent(t *testing.T) {
	dir := t.TempDir()
	db := openStockDB(t, dir)
	var auditOID sentinel.OID
	db.BindAction("audit", func(x *sentinel.Execution) error {
		// Immediate rule: create an audit object in a subtransaction.
		obj, err := db.New(x.Txn, "STOCK", map[string]any{"price": -1.0})
		if err != nil {
			return err
		}
		auditOID = obj.OID
		return db.Bind(x.Txn, "audit", obj.OID)
	})
	var deferredRan int
	db.BindAction("summarize", func(*sentinel.Execution) error { deferredRan++; return nil })
	if err := db.Exec(`
rule Audit(e3, true, audit);
rule Summarize(e3, true, summarize, CUMULATIVE, DEFERRED);
`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 10})
	if err := db.Bind(tx, "IBM", obj.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "set_price", 77.0); err != nil {
		t.Fatal(err)
	}
	if auditOID == 0 {
		t.Fatal("immediate rule did not run")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if deferredRan != 1 {
		t.Fatalf("deferred ran %d times", deferredRan)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both the application object and the rule-created audit
	// object must be durable.
	db2 := openStockDB(t, dir)
	tx2, _ := db2.Begin()
	oid, err := db2.Resolve(tx2, "IBM")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := db2.Load(tx2, oid)
	if err != nil || loaded.Attr("price").(float64) != 77.0 {
		t.Fatalf("application object: %v %v", loaded, err)
	}
	aOID, err := db2.Resolve(tx2, "audit")
	if err != nil || aOID != auditOID {
		t.Fatalf("audit binding: %v %v", aOID, err)
	}
	if _, err := db2.Load(tx2, aOID); err != nil {
		t.Fatalf("audit object: %v", err)
	}
	_ = tx2.Commit()
}

// TestRuleSubtransactionAbortRollsBack: a failing rule action must not
// leave partial writes, while the triggering transaction continues.
func TestRuleSubtransactionAbortRollsBack(t *testing.T) {
	dir := t.TempDir()
	db := openStockDB(t, dir)
	boom := func(x *sentinel.Execution) error {
		obj, err := db.New(x.Txn, "STOCK", nil)
		if err != nil {
			return err
		}
		if err := db.Bind(x.Txn, "ghost", obj.OID); err != nil {
			return err
		}
		return &strsErr{"rule failed after writing"}
	}
	db.BindAction("boom", boom)
	if err := db.Exec(`rule R(e1, true, boom);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	if _, err := db.Resolve(tx2, "ghost"); err == nil {
		t.Fatal("aborted rule's write survived")
	}
	_ = tx2.Commit()
}

type strsErr struct{ s string }

func (e *strsErr) Error() string { return e.s }

// TestE13_GlobalEvents: inter-application composite events through the
// GED, with a detached rule at the subscribing application.
func TestE13_GlobalEvents(t *testing.T) {
	server := ged.NewServer(nil)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	// Global composite: sale in app A AND price change in app B.
	if _, err := server.Det.DefineExplicit("e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Det.DefineExplicit("e3"); err != nil {
		t.Fatal(err)
	}
	a, _ := server.Det.Lookup("e1")
	b, _ := server.Det.Lookup("e3")
	if _, err := server.Det.And("global_sale_and_price", a, b); err != nil {
		t.Fatal(err)
	}

	mk := func(name string) *sentinel.Database {
		db, err := sentinel.Open(sentinel.Options{AppName: name, GEDAddrs: []string{addr}, SerialRules: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		if err := db.Exec(`
class STOCK reactive {
    event end(e1) sell_stock(qty);
    event begin(e2) && end(e3) set_price(price);
}
`); err != nil {
			t.Fatal(err)
		}
		c, _ := db.Class("STOCK")
		c.DefineMethod(sentinel.Method{Name: "sell_stock", Params: []string{"qty"}, Mutates: true,
			Body: func(self *sentinel.Self, args []any) (any, error) { return nil, nil }})
		c.DefineMethod(sentinel.Method{Name: "set_price", Params: []string{"price"}, Mutates: true,
			Body: func(self *sentinel.Self, args []any) (any, error) { return nil, nil }})
		return db
	}
	appA := mk("appA")
	appB := mk("appB")
	if err := appA.ShareEvent("e1"); err != nil {
		t.Fatal(err)
	}
	if err := appB.ShareEvent("e3"); err != nil {
		t.Fatal(err)
	}
	detected := make(chan []string, 1)
	if err := appA.OnGlobalEvent("global_sale_and_price", sentinel.Recent,
		func(x *sentinel.Execution) error {
			var apps []string
			for _, l := range x.Occurrence.Leaves() {
				apps = append(apps, l.App)
			}
			select {
			case detected <- apps:
			default:
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	txA, _ := appA.Begin()
	sA, _ := appA.New(txA, "STOCK", nil)
	if _, err := appA.Invoke(txA, sA, "sell_stock", 5); err != nil {
		t.Fatal(err)
	}
	txB, _ := appB.Begin()
	sB, _ := appB.New(txB, "STOCK", nil)
	if _, err := appB.Invoke(txB, sB, "set_price", 9.0); err != nil {
		t.Fatal(err)
	}

	select {
	case apps := <-detected:
		seen := map[string]bool{}
		for _, a := range apps {
			seen[a] = true
		}
		if !seen["appA"] || !seen["appB"] {
			t.Fatalf("global composite constituents from %v", apps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("global event never detected")
	}
	_ = txA.Commit()
	_ = txB.Commit()
}

func TestExplicitEventsAndTemporalRules(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{SerialRules: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineExplicitEvent("tick_src"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`event late = tick_src + 100;`); err != nil {
		t.Fatal(err)
	}
	var fired int
	db.BindAction("onLate", func(*sentinel.Execution) error { fired++; return nil })
	if err := db.Exec(`rule RL(late, true, onLate);`); err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseEvent(nil, "tick_src", nil); err != nil {
		t.Fatal(err)
	}
	db.AdvanceTime(99)
	if fired != 0 {
		t.Fatal("temporal rule fired early")
	}
	db.AdvanceTime(101)
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	if db.Now() < 101 {
		t.Fatalf("Now=%d", db.Now())
	}
}

func TestDebuggerAndDOT(t *testing.T) {
	db := openStockDB(t, "")
	dbg := db.AttachDebugger(0)
	db.BindAction("noop", func(*sentinel.Execution) error { return nil })
	if err := db.Exec(`rule R(e4, true, noop);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 5})
	if _, err := db.Invoke(tx, obj, "set_price", 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()

	counts := dbg.CountByKind()
	if len(counts) == 0 {
		t.Fatal("debugger recorded nothing")
	}
	var timeline bytes.Buffer
	if err := dbg.Timeline(&timeline); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"signal", "detect", "notify"} {
		if !strings.Contains(timeline.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, timeline.String())
		}
	}
	var dot bytes.Buffer
	if err := db.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph eventgraph") || !strings.Contains(dot.String(), "->") {
		t.Fatalf("dot output:\n%s", dot.String())
	}
}

func TestRuleLifecycleAtFacade(t *testing.T) {
	db := openStockDB(t, "")
	var runs int
	db.BindAction("count", func(*sentinel.Execution) error { runs++; return nil })
	if err := db.Exec(`rule R(e1, true, count);`); err != nil {
		t.Fatal(err)
	}
	r, err := db.GetRule("R")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 10})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	r.Disable()
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Enable(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs=%d", runs)
	}
	if err := db.DropRule("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("dropped rule ran: %d", runs)
	}
	_ = tx.Commit()
}

func TestStringAndStats(t *testing.T) {
	db := openStockDB(t, "")
	if !strings.Contains(db.String(), "in-memory") {
		t.Fatalf("String=%q", db.String())
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 1})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if db.Stats().Signals == 0 {
		t.Fatal("no signals counted")
	}
}
