// Package clean starts goroutines the sanctioned ways: WaitGroup
// registration, done-channel ties, closed-flag checks, func literals
// bound once to a field that forward to a tied method, and one justified
// suppression.  Nothing may be flagged.
package clean

import "sync"

type worker struct {
	wg     sync.WaitGroup
	done   chan struct{}
	mu     sync.Mutex
	closed bool
}

// startTracked registers on the WaitGroup before launching; Close waits.
func (w *worker) startTracked() {
	w.wg.Add(1)
	go w.loop()
}

func (w *worker) loop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		}
	}
}

// startSignalled launches a literal that selects on the done channel.
func (w *worker) startSignalled() {
	go func() {
		for {
			select {
			case <-w.done:
				return
			}
		}
	}()
}

// startFlagged launches a same-package method that polls the closed
// flag under the mutex.
func (w *worker) startFlagged() {
	go w.drain()
}

func (w *worker) drain() {
	for {
		w.mu.Lock()
		stop := w.closed
		w.mu.Unlock()
		if stop {
			return
		}
	}
}

// outbox binds its flusher once, so starting it allocates no closure;
// the bound literal forwards to a method that polls the closed flag.
type outbox struct {
	mu     sync.Mutex
	closed bool
	flush  func()
}

func newOutbox(peer string) *outbox {
	o := &outbox{}
	o.flush = func() { o.flushPeer(peer) }
	return o
}

func (o *outbox) flushPeer(peer string) {
	for {
		o.mu.Lock()
		stop := o.closed
		o.mu.Unlock()
		if stop || peer == "" {
			return
		}
	}
}

func (o *outbox) kick() {
	go o.flush()
}

// hooks binds its runner in a composite literal.
type hooks struct {
	run func()
}

func startHooked(w *worker) {
	h := hooks{run: func() { w.drain() }}
	go h.run()
}

type opaque struct{}

func (opaque) Run() {}

// startSuppressed launches an uninspectable body with a justification.
func startSuppressed() {
	var o opaque
	//cmlint:allow goroleak(fixture: the caller stops this via the returned handle's Close)
	go o.Run()
}
