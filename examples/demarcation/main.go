// Demarcation: the Section 6.1 scenario.  Two sites hold X and Y under
// the inter-site constraint X ≤ Y.  The Demarcation Protocol [BGM92]
// maintains local limits Lx and Ly with X ≤ Lx ≤ Ly ≤ Y, so the
// constraint holds at every instant with no distributed transactions:
// updates within the local limit cost zero messages, and only
// limit-crossing updates trigger a request/grant exchange.
//
// Run with:
//
//	go run ./examples/demarcation
package main

import (
	"fmt"
	"log"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/demarcation"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site SX
site SY
item X @ SX
item Y @ SY
private Vx @ SX
private Lx @ SX
private Vy @ SY
private Ly @ SY
`)
	check(err)
	bus := transport.NewBus(clk, 100*time.Millisecond)
	opts := shell.Options{Clock: clk, Trace: tr}
	sx := shell.New("sx", spec, opts)
	sx.AddSite("SX", nil)
	sx.Route("SY", "sy")
	sy := shell.New("sy", spec, opts)
	sy.AddSite("SY", nil)
	sy.Route("SX", "sx")
	check(sx.Attach(bus))
	check(sy.Attach(bus))
	check(sx.Start())
	check(sy.Start())
	defer sx.Stop()
	defer sy.Stop()

	// X starts at 0 with ceiling 50; Y at 100 with floor 50.
	xa := demarcation.NewAgent(sx, "SX", "sy", data.Item("X"), data.Item("Vx"), data.Item("Lx"), true, demarcation.Generous)
	ya := demarcation.NewAgent(sy, "SY", "sx", data.Item("Y"), data.Item("Vy"), data.Item("Ly"), false, demarcation.Generous)
	xa.Init(0, 50)
	ya.Init(100, 50)
	clk.Advance(time.Second)

	fmt.Printf("initial: X=%d Lx=%d   Ly=%d Y=%d\n", xa.Value(), xa.Limit(), ya.Limit(), ya.Value())

	// Forty +1 increments at X: the first fifty would fit the limit, so
	// these are all local.
	for i := 0; i < 40; i++ {
		xa.Update(1, nil)
	}
	clk.Advance(time.Second)
	st := xa.Stats()
	fmt.Printf("after 40 small increments: X=%d, %d local ops, %d remote asks\n",
		xa.Value(), st.LocalOps, st.RemoteAsks)

	// A +30 jump crosses Lx=50: the protocol asks Y's site to raise Ly
	// first, then raises Lx, then applies — X ≤ Y never violated.
	done := make(chan bool, 1)
	xa.Update(30, func(ok bool) { done <- ok })
	clk.Advance(5 * time.Second)
	fmt.Printf("after +30 crossing the limit (granted=%v): X=%d Lx=%d   Ly=%d Y=%d\n",
		<-done, xa.Value(), xa.Limit(), ya.Limit(), ya.Value())

	// Y tries to drop below what X permits: denied.
	xaV, yaV := xa.Value(), ya.Value()
	ya.Update(-(yaV - xaV + 10), func(ok bool) { done <- ok })
	clk.Advance(5 * time.Second)
	fmt.Printf("Y's attempt to drop below X (granted=%v): X=%d Y=%d\n", <-done, xa.Value(), ya.Value())

	// The protocol's guarantee, machine-checked over every recorded state.
	rep := demarcation.Guarantee("X", "Y").Check(tr)
	fmt.Printf("\n%s\n  formula: %s\n", rep, rep.Formula)
	if !rep.Holds {
		log.Fatal("invariant violated!")
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
