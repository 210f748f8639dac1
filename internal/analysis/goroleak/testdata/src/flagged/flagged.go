// Package flagged seeds goroleak violations: goroutines with no
// visible shutdown tie.
package flagged

type server struct {
	q chan int
}

// pump loops forever with no done signal, waitgroup, or context.
func (s *server) pump() {
	for v := range s.q {
		_ = v
	}
}

func (s *server) start() {
	go s.pump() // want `goroutine is not visibly tied to a shutdown path`
}

func fireAndForget(f func()) {
	go func() { // want `goroutine is not visibly tied to a shutdown path`
		for {
			f()
		}
	}()
}

type external struct{}

func (external) Serve() {}

// unresolvable launches a method the analyzer cannot inspect; without
// an annotation it must be flagged.
func unresolvable() {
	var e external
	go e.Serve() // want `goroutine is not visibly tied to a shutdown path`
}

// pool binds its spinner once; the bound literal forwards to a method
// with no shutdown tie, so the goroutine is flagged like a direct call.
type pool struct {
	q    chan int
	spin func()
}

func newPool() *pool {
	p := &pool{q: make(chan int)}
	p.spin = func() { p.loop() }
	return p
}

func (p *pool) loop() {
	for v := range p.q {
		_ = v
	}
}

func (p *pool) kick() {
	go p.spin() // want `goroutine is not visibly tied to a shutdown path`
}
