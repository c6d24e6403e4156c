package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/vm"
)

// outcome is one journey's end state.
type outcome struct {
	done    bool          // came home (correct or not)
	problem string        // why a homecoming was wrong; "" when correct
	latency time.Duration // open loop: home minus scheduled launch
	back    *agent.Agent
}

// mark is a reading taken at a phase boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func markNow() mark { return mark{at: time.Now(), cpu: processCPU()} }

// liveResult is what one live pass measured.
type liveResult struct {
	open int // open-loop journey count

	launched, completed, failed, lost int // measured phases only
	closedDone                        int // completed in the closed loop
	problems                          []string

	openLatencies []time.Duration // open-loop phase, in launch order
	genLagMax     time.Duration   // worst launch delay behind schedule
	start, mid    mark            // open loop starts; closed loop starts
	end           mark            // closed loop's last journey is home
	allocBytes    uint64          // heap allocations over both measured phases
	gcCPU, allCPU float64         // runtime/metrics CPU classes over the phases
	gcCycles      uint64
	heapLive      uint64 // after a forced GC at run end
	idleCPUPerSec time.Duration
	probes        probeSample // traced pass: measured-phase deltas
}

// journeyDeadline bounds how long any measured phase may wait for its
// journeys to come home; a journey still out then counts as lost.
const journeyDeadline = 60 * time.Second

// runLive drives warmup (plans[:warm]), the open-loop phase (the next
// `open` plans) and the closed-loop phase (the rest) against the
// cluster, checking every homecoming. A traced pass (pr != nil) also
// snapshots the probes and server counters around the measured phases
// and measures the idle cluster's CPU afterwards.
func runLive(c *cluster, plans []journeyPlan, warm, open int, pr *probes) *liveResult {
	w := c.w
	res := &liveResult{open: open}
	outs := make([]outcome, len(plans))

	// Warmup: closed loop, not measured, outcomes still checked.
	closedLoop(c, outs, 0, warm)

	runtime.GC()
	var probesBefore probeSample
	if pr != nil {
		probesBefore = pr.sample(c)
	}
	before := sampleRuntime()
	res.start = markNow()
	res.genLagMax = openLoop(c, outs, warm, warm+open)
	res.mid = markNow()
	closedLoop(c, outs, warm+open, len(plans))
	res.end = markNow()
	after := sampleRuntime()
	res.allocBytes = after.alloc - before.alloc
	res.gcCPU = after.gcCPU - before.gcCPU
	res.allCPU = (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	res.gcCycles = after.gcCycles - before.gcCycles
	if pr != nil {
		res.probes = pr.sample(c).minus(probesBefore)
	}

	for j := range outs {
		o := &outs[j]
		if o.done && o.problem == "" {
			o.problem = w.checkJourney(o.back, plans[j], c.payloads)
		}
		if j < warm {
			if o.problem != "" || !o.done {
				res.problems = append(res.problems, fmt.Sprintf("warmup journey %d: %s", j, describe(o)))
			}
			continue
		}
		res.launched++
		switch {
		case !o.done:
			res.lost++
			res.problems = append(res.problems, fmt.Sprintf("journey %d: %s", j, describe(o)))
		case o.problem != "":
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("journey %d: %s", j, o.problem))
		default:
			res.completed++
			if j < warm+open {
				res.openLatencies = append(res.openLatencies, o.latency)
			} else {
				res.closedDone++
			}
		}
	}
	res.problems = append(res.problems, checkCounters(c, plans, outs)...)

	if pr != nil {
		m := markNow()
		time.Sleep(time.Second)
		res.idleCPUPerSec = perSecond(m, markNow())
	}

	// The cluster's retained state: drop the benchmark's own references
	// to the agents and their credentials, then force a collection.
	for j := range outs {
		outs[j].back = nil
	}
	c.agents, c.creds = nil, nil
	runtime.GC()
	runtime.GC()
	res.heapLive = sampleRuntime().heapLive
	return res
}

// perSecond is the CPU burned per wall second between two marks.
func perSecond(a, b mark) time.Duration {
	return time.Duration(float64(b.cpu-a.cpu) / b.at.Sub(a.at).Seconds())
}

func describe(o *outcome) string {
	if !o.done {
		return "not home by the deadline"
	}
	return o.problem
}

// launch submits journey j at the home server and returns the channel
// its homecoming arrives on, or records a launch error.
func launch(c *cluster, j int, outs []outcome) <-chan *agent.Agent {
	home := c.servers[0]
	a := c.agents[j]
	ch := home.Await(a.Name)
	if err := home.LaunchLocal(a); err != nil {
		outs[j] = outcome{done: true, problem: "launch: " + err.Error()}
		return nil
	}
	return ch
}

// closedLoop runs journeys [from, to) with `clients` clients, each
// launching its next journey when the previous one is home.
func closedLoop(c *cluster, outs []outcome, from, to int) {
	var next atomic.Int64
	next.Store(int64(from))
	stop := make(chan struct{})
	watchdog := time.AfterFunc(journeyDeadline, func() { close(stop) })
	defer watchdog.Stop()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= to {
					return
				}
				ch := launch(c, j, outs)
				if ch == nil {
					continue
				}
				select {
				case back := <-ch:
					outs[j] = outcome{done: true, back: back}
				case <-stop:
					return
				}
			}
		}()
	}
	wg.Wait()
}

// openLoop launches journeys [from, to) from one generator goroutine at
// the workload's fixed rate, regardless of completions. Each journey's
// latency runs from its scheduled launch time, so a stall that delays
// later launches is charged to them. It returns the generator's worst
// lag behind schedule.
func openLoop(c *cluster, outs []outcome, from, to int) (lagMax time.Duration) {
	n := to - from
	gap := time.Duration(float64(time.Second) / c.w.openRate)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagMax = max(lagMax, time.Since(due))
		j := from + i
		ch := launch(c, j, outs)
		if ch == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case back := <-ch:
				outs[j] = outcome{done: true, latency: time.Since(due), back: back}
			case <-stop:
			}
		}()
	}
	watchdog := time.AfterFunc(journeyDeadline, func() { close(stop) })
	wg.Wait()
	watchdog.Stop()
	return lagMax
}

// checkCounters closes access_heavy's books: each worker's counter must
// equal the adds every visit made there, and no two visits may have
// read the same value back from their last add.
func checkCounters(c *cluster, plans []journeyPlan, outs []outcome) []string {
	if c.w.invokeCalls == 0 {
		return nil
	}
	visits := make([]int64, len(c.servers))
	seen := make([]map[int64]bool, len(c.servers))
	for i := range seen {
		seen[i] = make(map[int64]bool)
	}
	var problems []string
	for j, p := range plans {
		for s, wi := range p.route {
			visits[wi]++
			o := outs[j]
			if !o.done || o.back == nil || s >= len(o.back.Results) {
				continue
			}
			v := o.back.Results[s].Int
			if seen[wi][v] {
				problems = append(problems, fmt.Sprintf("journey %d stop %d: counter value %d read twice on server %d", j, s, v, wi))
			}
			seen[wi][v] = true
		}
	}
	for i, def := range c.counters {
		if def == nil {
			continue
		}
		got, err := def.Methods["get"](nil)
		want := visits[i] * int64(c.w.invokeCalls)
		if err != nil || got.Kind != vm.KindInt || got.Int != want {
			problems = append(problems, fmt.Sprintf("server %d counter = %s, want %d adds", i, got.Text(), want))
			continue
		}
		for v := range seen[i] {
			if v > want {
				problems = append(problems, fmt.Sprintf("server %d: a visit read %d, above the final %d", i, v, want))
				break
			}
		}
	}
	return problems
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	alloc, gcCycles, heapLive uint64
	gcCPU, totalCPU, idleCPU  float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{alloc: u(0), gcCycles: u(1), heapLive: u(2), gcCPU: f(3), totalCPU: f(4), idleCPU: f(5)}
}
