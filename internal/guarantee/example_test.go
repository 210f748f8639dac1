package guarantee_test

import (
	"fmt"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// ExampleParse checks a declared guarantee against a recorded execution
// in which the replica missed one value — guarantee (1) holds but
// guarantee (2) does not, the Section 4.2.3 polling outcome.
func ExampleParse() {
	tr := trace.New(nil)
	at := func(sec int, item string, v int64) {
		tr.Append(&event.Event{
			Time: vclock.Epoch.Add(time.Duration(sec) * time.Second),
			Site: "s",
			Desc: event.W(data.Item(item), data.NewInt(v)),
		})
	}
	at(0, "X", 1)
	at(5, "Y", 1)
	at(10, "X", 2) // lost: never reaches Y
	at(11, "X", 3)
	at(15, "Y", 3)
	at(500, "Z", 0) // horizon

	follows, _ := guarantee.Parse("follows(X, Y)")
	leads, _ := guarantee.Parse("leads(X, Y, 60s)")
	fmt.Println(follows.Check(tr))
	fmt.Println(leads.Check(tr))
	// Output:
	// follows(X,Y): HOLDS over 2 obligations
	// leads(X,Y): VIOLATED (1 violated, 1 shown) over 3 obligations
}
