package main

import (
	"sort"
	"sync"
	"time"
)

// Layer names: one span kind per public function the replay calls.
const (
	spanJourney        = "journey"
	spanSend           = "transfer.send"
	spanEncode         = "agent.encode"
	spanDecode         = "agent.decode"
	spanVerify         = "cred.verify"
	spanAdmit          = "admission.admit"
	spanVerifyBundle   = "vm.verify_bundle"
	spanDigest         = "agent.bundle_digest"
	spanDomainAdmit    = "domain.admit"
	spanDomainTeardown = "domain.teardown"
	spanNamespace      = "loader.namespace"
	spanRun            = "vm.run"
	spanBind           = "resource.bind"
	spanInvoke         = "resource.invoke"
	spanDirBind        = "names.bind"
	spanObserve        = "names.observe"
	spanResolve        = "names.resolve"
)

// layerAgg accumulates one layer's spans over the measured journeys.
type layerAgg struct {
	count int
	self  time.Duration
}

// frame is one open span.
type frame struct {
	name  string
	start time.Duration
	child time.Duration // time covered by child spans (and credits)
}

// ledger records spans around the replay's calls into each layer. A
// span's self time is its duration minus the time its child spans
// cover. Spans between startJourney and endJourney belong to one
// journey and carry its id; only journeys marked measured are
// aggregated. The replay is
// one goroutine, except that a receiver's accept spans run on the
// serving goroutine while the sender blocks inside its send span — they
// nest under it, so the stack is shared under a lock.
type ledger struct {
	mu       sync.Mutex
	base     time.Time
	stack    []frame
	measured bool
	layers   map[string]*layerAgg
	// journeys holds, per measured journey, the sum of its layer self
	// times (the ledger's account of the journey) and its wall time.
	journeys []journeyLedger
	cur      journeyLedger
}

type journeyLedger struct {
	id          int // the journey's index in the run's plans
	layers, all time.Duration
}

func newLedger() *ledger {
	return &ledger{base: time.Now(), layers: make(map[string]*layerAgg)}
}

func (l *ledger) now() time.Duration { return time.Since(l.base) }

// startJourney opens journey id's root span; every span until
// endJourney belongs to it.
func (l *ledger) startJourney(id int, measured bool) {
	l.mu.Lock()
	l.measured = measured
	l.cur = journeyLedger{id: id}
	l.stack = append(l.stack[:0], frame{name: spanJourney, start: l.now()})
	l.mu.Unlock()
}

// endJourney closes the root span and files the journey.
func (l *ledger) endJourney() {
	l.mu.Lock()
	f := l.stack[0]
	l.stack = l.stack[:0]
	l.cur.all = l.now() - f.start
	if l.measured {
		l.journeys = append(l.journeys, l.cur)
	}
	l.mu.Unlock()
}

func (l *ledger) begin(name string) {
	l.mu.Lock()
	l.stack = append(l.stack, frame{name: name, start: l.now()})
	l.mu.Unlock()
}

// credit charges d to the open span's children without a child span:
// work the span's call does internally that the replay measured by a
// separate call (the codec inside a transfer).
func (l *ledger) credit(d time.Duration) {
	l.mu.Lock()
	l.stack[len(l.stack)-1].child += d
	l.mu.Unlock()
}

// end closes the innermost span and returns its duration.
func (l *ledger) end() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := l.now() - f.start
	self := d - f.child
	if self < 0 {
		self = 0
	}
	l.stack[n-1].child += d
	if l.measured {
		a := l.layers[f.name]
		if a == nil {
			a = &layerAgg{}
			l.layers[f.name] = a
		}
		a.count++
		a.self += self
		l.cur.layers += self
	}
	return d
}

// span runs f inside a span.
func (l *ledger) span(name string, f func()) time.Duration {
	l.begin(name)
	f()
	return l.end()
}

// layer returns a layer's aggregate (zero when it never ran).
func (l *ledger) layer(name string) layerAgg {
	if a := l.layers[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// meanSelf is a layer's mean self time per span.
func (l *ledger) meanSelf(name string) time.Duration {
	a := l.layer(name)
	if a.count == 0 {
		return 0
	}
	return a.self / time.Duration(a.count)
}

// perJourney is a layer's count per measured journey.
func (l *ledger) perJourney(name string) float64 {
	if len(l.journeys) == 0 {
		return 0
	}
	return float64(l.layer(name).count) / float64(len(l.journeys))
}

// meanLayers is the mean per-journey sum of layer self times.
func (l *ledger) meanLayers() time.Duration {
	if len(l.journeys) == 0 {
		return 0
	}
	var t time.Duration
	for _, j := range l.journeys {
		t += j.layers
	}
	return t / time.Duration(len(l.journeys))
}

// summary is every layer's calls and self time per measured journey,
// the whole ledger in one table.
func (l *ledger) summary() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(l.layers))
	n := float64(len(l.journeys))
	for name, a := range l.layers {
		out[name] = map[string]float64{
			"calls_per_journey":   ratio(float64(a.count), n),
			"self_us_per_journey": ratio(us(a.self), n),
		}
	}
	return out
}

// slowest is the measured journey with the longest replayed wall time.
func (l *ledger) slowest() journeyLedger {
	var s journeyLedger
	for _, j := range l.journeys {
		if j.all > s.all {
			s = j
		}
	}
	return s
}

// journeyP50 is the median replayed journey wall time.
func (l *ledger) journeyP50() time.Duration {
	if len(l.journeys) == 0 {
		return 0
	}
	d := make([]time.Duration, len(l.journeys))
	for i, j := range l.journeys {
		d[i] = j.all
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}
