package main

import (
	"io"
	"testing"
	"time"
)

// TestAttribution plants a known cost in one layer — a fixed delay on
// every authoritative directory Bind — and checks that the trace charges
// it to that layer and to no other:
//
//   - names.authority_bind_us (live probe) rises by about the delay;
//   - the replayed journey (ledger.journey_p50_ms) and the names.bind
//     layer rise by transfers x the replay's per-call rise;
//   - every other layer's per-journey self time stays put.
//
// The live pass's own journey latency is only logged: the server
// rebinds on the sender after the receiver has acked, off the journey's
// critical path, so the delay need not reach it.
// raceEnabled is set by race_test.go in race-instrumented builds.
var raceEnabled bool

func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small traced clusters")
	}
	w, _ := findWorkload("hop_chain")
	w.warmup, w.openRate, w.openPerSec, w.closedPerSec = 20, 50, 40, 40
	const delay = 2 * time.Millisecond
	const transfers = 7 // launch pad -> 6 stops -> home

	run := func(d time.Duration) *report {
		t.Helper()
		rep, err := tracedRun(config{w: w, seed: 7, seconds: 8, bindDelay: d, log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("run with bind delay %v is not correct: %+v", d, rep.info)
		}
		return rep
	}
	base, slow := run(0), run(delay)
	if raceEnabled {
		// The runs above exercise every goroutine of the live passes and
		// the replay under the race detector; its slowdown makes the
		// timings below meaningless.
		return
	}
	metric := func(r *report, name string) float64 { return r.Metrics[name].Value }
	perCall := func(r *report, name string) time.Duration {
		a := r.ledger.layer(name)
		return a.self / time.Duration(a.count)
	}
	perJourney := func(r *report, name string) time.Duration {
		return r.ledger.layer(name).self / time.Duration(len(r.ledger.journeys))
	}

	// The live probe sees the delay plus the wait to be scheduled again
	// on a busy cluster; it must rise by at least the delay.
	liveRise := time.Duration((metric(slow, "names.authority_bind_us") - metric(base, "names.authority_bind_us")) * 1e3)
	if liveRise < delay || liveRise > 3*delay {
		t.Errorf("names.authority_bind_us rose by %v, want about %v", liveRise, delay)
	}

	// time.Sleep overshoots, so the planted cost per call is what the
	// replay's single goroutine measured, not the nominal delay.
	bindRise := perCall(slow, spanDirBind) - perCall(base, spanDirBind)
	if bindRise < delay || bindRise > delay*3/2 {
		t.Errorf("replayed names.bind rose by %v per call, want about %v", bindRise, delay)
	}
	planted := transfers * bindRise
	journeyRise := time.Duration((metric(slow, "ledger.journey_p50_ms") - metric(base, "ledger.journey_p50_ms")) * 1e6)
	if journeyRise < planted*8/10 || journeyRise > planted*12/10 {
		t.Errorf("replayed journey p50 rose by %v, want about %d x %v = %v", journeyRise, transfers, bindRise, planted)
	}

	// Per-journey self time by layer: the planted cost must land in
	// names.bind and nowhere else. A mischarge would move a layer by a
	// delay per call; ordinary noise is far below a tenth of the plant.
	for name := range base.ledger.layers {
		rise := perJourney(slow, name) - perJourney(base, name)
		if name == spanDirBind {
			if rise < planted*9/10 || rise > planted*11/10 {
				t.Errorf("%s rose by %v per journey, want %d x %v = %v", name, rise, transfers, bindRise, planted)
			}
			continue
		}
		if rise > planted/10 || rise < -planted/10 {
			t.Errorf("%s moved by %v per journey; the planted %v belongs to %s", name, rise, planted, spanDirBind)
		}
	}
	t.Logf("live journey p50: %.2f ms -> %.2f ms (the rebind runs after the ack, off the critical path)",
		metric(base, "trace.journey_p50_ms"), metric(slow, "trace.journey_p50_ms"))
}
