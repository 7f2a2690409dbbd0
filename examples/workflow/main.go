// Workflow demonstrates inter-application (global) events: an order
// application and a shipping application each run their own Sentinel
// database with a local event detector; a global event detector correlates
// events across them (order placed AND shipment booked), and the order
// application reacts with a detached rule — the cooperative-transaction
// scenario that motivates global events in the paper (§2.1).
package main

import (
	"fmt"
	"log"
	"time"

	sentinel "repro"
	"repro/internal/ged"
	"repro/internal/snoop"
)

func main() {
	// 1. Start the global event detector and define the global composite
	//    event over the names the applications will contribute.
	server := ged.NewServer(nil)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	gcomp := &snoop.Compiler{Det: server.Det}
	// The contributed primitives must exist before the composite.
	if _, err := server.Det.DefineExplicit("order_placed"); err != nil {
		log.Fatal(err)
	}
	if _, err := server.Det.DefineExplicit("shipment_booked"); err != nil {
		log.Fatal(err)
	}
	if err := gcomp.CompileSource(`event fulfillable = order_placed and shipment_booked;`); err != nil {
		log.Fatal(err)
	}

	// 2. The order application.
	orders, err := sentinel.Open(sentinel.Options{AppName: "orders", GEDAddrs: []string{addr}, SerialRules: true})
	if err != nil {
		log.Fatal(err)
	}
	defer orders.Close()
	if err := orders.Exec(`
class ORDER reactive {
    event end(order_placed) place(sku, qty);
}
`); err != nil {
		log.Fatal(err)
	}
	oc, _ := orders.Class("ORDER")
	oc.DefineMethod(sentinel.Method{
		Name: "place", Params: []string{"sku", "qty"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("sku", args[0])
			self.Set("qty", args[1])
			return nil, nil
		},
	})
	if err := orders.ShareEvent("order_placed"); err != nil {
		log.Fatal(err)
	}

	// 3. The shipping application.
	shipping, err := sentinel.Open(sentinel.Options{AppName: "shipping", GEDAddrs: []string{addr}, SerialRules: true})
	if err != nil {
		log.Fatal(err)
	}
	defer shipping.Close()
	if err := shipping.Exec(`
class SHIPMENT reactive {
    event end(shipment_booked) book(carrier);
}
`); err != nil {
		log.Fatal(err)
	}
	sc, _ := shipping.Class("SHIPMENT")
	sc.DefineMethod(sentinel.Method{
		Name: "book", Params: []string{"carrier"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("carrier", args[0])
			return nil, nil
		},
	})
	if err := shipping.ShareEvent("shipment_booked"); err != nil {
		log.Fatal(err)
	}

	// 4. The order application's detached rule on the global event: runs
	//    in its own top-level transaction when the GED detects the
	//    conjunction across applications.
	done := make(chan struct{})
	if err := orders.OnGlobalEvent("fulfillable", sentinel.Recent, func(x *sentinel.Execution) error {
		fmt.Println("detached rule at orders: order is fulfillable —")
		for _, l := range x.Occurrence.Leaves() {
			fmt.Printf("    %s from application %q %s\n", l.Name, l.App, l.Params)
		}
		close(done)
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// 5. Drive both applications in their own transactions.
	fmt.Println("-- orders: placing an order --")
	txO, _ := orders.Begin()
	order, _ := orders.New(txO, "ORDER", nil)
	if _, err := orders.Invoke(txO, order, "place", "SKU-7", 3); err != nil {
		log.Fatal(err)
	}
	if err := txO.Commit(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- shipping: booking a shipment --")
	txS, _ := shipping.Begin()
	shipment, _ := shipping.New(txS, "SHIPMENT", nil)
	if _, err := shipping.Invoke(txS, shipment, "book", "ACME-FREIGHT"); err != nil {
		log.Fatal(err)
	}
	if err := txS.Commit(); err != nil {
		log.Fatal(err)
	}

	select {
	case <-done:
		fmt.Println("done")
	case <-time.After(5 * time.Second):
		log.Fatal("global event never detected")
	}
}
