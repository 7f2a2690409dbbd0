// Eventlog demonstrates the detector's separation from the application
// (§2.3 feature iv): an online run records its primitive event stream to
// a stored event log; a second database later replays the log in batch
// mode and detects the same composite events — including ones whose rules
// were only defined after the fact.
package main

import (
	"bytes"
	"fmt"
	"log"

	sentinel "repro"
)

func setup(name string) (*sentinel.Database, *sentinel.Instance, error) {
	db, err := sentinel.Open(sentinel.Options{AppName: name, SerialRules: true})
	if err != nil {
		return nil, nil, err
	}
	if err := db.Exec(`
class SENSOR reactive {
    event end(reading) report(value);
    event end(alarm) trip();
}
`); err != nil {
		return nil, nil, err
	}
	c, _ := db.Class("SENSOR")
	c.DefineMethod(sentinel.Method{
		Name: "report", Params: []string{"value"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("last", args[0])
			return nil, nil
		},
	})
	c.DefineMethod(sentinel.Method{
		Name: "trip", Params: nil, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) { return nil, nil },
	})
	tx, err := db.Begin()
	if err != nil {
		return nil, nil, err
	}
	sensor, err := db.New(tx, "SENSOR", nil)
	if err != nil {
		return nil, nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, nil, err
	}
	return db, sensor, nil
}

func main() {
	// ---- Online phase: run the application and record its events. ----
	online, sensor, err := setup("online")
	if err != nil {
		log.Fatal(err)
	}
	defer online.Close()

	var logBuf bytes.Buffer
	stopRecording, err := online.RecordEvents(&logBuf)
	if err != nil {
		log.Fatal(err)
	}

	tx, _ := online.Begin()
	for _, v := range []int{10, 95, 12, 99} {
		if _, err := online.Invoke(tx, sensor, "report", v); err != nil {
			log.Fatal(err)
		}
		if v > 90 {
			if _, err := online.Invoke(tx, sensor, "trip"); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := stopRecording(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online phase recorded %d bytes of event log\n", logBuf.Len())

	// ---- Batch phase: a fresh database, a rule defined AFTER the fact,
	//      and the recorded log replayed through the detector. ----
	batch, _, err := setup("batch")
	if err != nil {
		log.Fatal(err)
	}
	defer batch.Close()
	if err := batch.Exec(`event spike_then_alarm = reading >> alarm;`); err != nil {
		log.Fatal(err)
	}
	batch.BindCondition("highReading", func(x *sentinel.Execution) bool {
		v, ok := x.Params()[0].Get("value")
		return ok && v.(int) > 90
	})
	batch.BindAction("flag", func(x *sentinel.Execution) error {
		v, _ := x.Params()[0].Get("value")
		fmt.Printf("batch analysis: alarm tripped after high reading %v\n", v)
		return nil
	})
	// RECENT pairs each alarm with the most recent reading before it.
	if err := batch.Exec(`rule Forensic(spike_then_alarm, highReading, flag, RECENT);`); err != nil {
		log.Fatal(err)
	}

	// Replaying spans the original transaction boundaries, so keep the
	// graph state across them during analysis.
	batch.Detector().AutoFlush = false
	n, err := batch.ReplayLog(&logBuf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d occurrences in batch mode\n", n)
}
