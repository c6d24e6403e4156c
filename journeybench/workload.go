package main

import (
	"fmt"
	"math/rand"

	"repro/internal/agent"
	"repro/internal/vm"
)

// authority is the administrative domain every benchmark cluster runs
// under; server, principal, agent and resource names hang off it.
const authority = "bench.example.org"

// workload is one fixed traffic shape. Every count is a journey count,
// never a duration: per-journey cost grows with the journeys a cluster
// has already served (the name directory and the resolver caches only
// grow), so only fixed counts leave every run in the same state.
type workload struct {
	name string
	// workers is the number of servers besides the home (launch pad);
	// stops is the tour length, visiting workers round-robin from a
	// seeded start.
	workers, stops int
	// warmup journeys run closed-loop before measurement, in every
	// repetition.
	warmup int
	// openPerSec and closedPerSec scale the two measured phases: a run
	// of --seconds s launches openPerSec*s journeys open-loop at
	// openRate per second, then closedPerSec*s journeys closed-loop,
	// split evenly over the run's repetitions. The counts depend on the
	// arguments only, never on how fast the machine is.
	openRate     float64
	openPerSec   int
	closedPerSec int
	// invokeCalls is access_heavy's loop length per visit.
	invokeCalls int
	// payloadBytes is fat_state's record size.
	payloadBytes int
}

// clients is the closed-loop client count (the benchmark machine's
// nproc when the counts were sized).
const clients = 2

// owners is the size of the certified owner population journeys draw
// their launching principal from.
const owners = 8

var workloads = []workload{
	// A 6-stop tour of report(1) visits: per-transfer fixed cost (codec,
	// sealing, credential and bundle checks, admission, name rebind)
	// does nearly all the work.
	{
		name:    "hop_chain",
		workers: 3, stops: 6,
		warmup:   60,
		openRate: 100, openPerSec: 64, closedPerSec: 240,
	},
	// A 2-stop tour that binds a counter once per visit and invokes it
	// in a loop: the VM and proxy invocation path (paper §5.5) dominates.
	{
		name:    "access_heavy",
		workers: 2, stops: 2,
		warmup:   20,
		openRate: 50, openPerSec: 50, closedPerSec: 120,
		invokeCalls: 4000,
	},
	// A 4-stop tour appending a 16 KiB record per visit to agent state:
	// transfer cost dominated by bytes rather than message count.
	{
		name:    "fat_state",
		workers: 3, stops: 4,
		warmup:   60,
		openRate: 120, openPerSec: 72, closedPerSec: 320,
		payloadBytes: 16 << 10,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reps is how many fresh clusters a timed run measures; every
// end-to-end metric is the median over them. Interference from outside
// the benchmark comes and goes within seconds on a shared host, so a
// median over short repetitions holds still where one long measurement
// does not.
const reps = 8

// counts returns one repetition's warmup, open-loop and closed-loop
// journey counts in a run measuring `seconds`.
func (w workload) counts(seconds int) (warm, open, closed int) {
	return w.warmup, w.openPerSec * seconds / reps, w.closedPerSec * seconds / reps
}

// source renders the agent's main module. Every variant reports once
// per stop, so a complete journey comes home with one result per stop.
func (w workload) source() string {
	switch w.name {
	case "access_heavy":
		return fmt.Sprintf(`module acc
func main() {
  var c = get_resource("ajanta:resource:%s/counter")
  var i = 0
  var last = 0
  while i < %d {
    last = invoke(c, "add", 1)
    i = i + 1
  }
  report(last)
}`, authority, w.invokeCalls)
	case "fat_state":
		return fmt.Sprintf(`module fat
var payloads = []
func main() {
  var st = get_resource("ajanta:resource:%s/records")
  var rec = invoke(st, "fetch", 0)
  payloads = append(payloads, rec["payload"])
  report(len(rec["payload"]))
}`, authority)
	default:
		return `module hop
func main() { report(1) }`
	}
}

// journeyPlan is everything random about one journey, fixed from the
// seed before the cluster starts: the launching owner and the tour.
type journeyPlan struct {
	owner int
	route []int // worker index (1-based server index) per stop
}

// plan draws every journey of a run from the seed, in launch order:
// warmup, then open loop, then closed loop.
func (w workload) plan(seed int64, n int) []journeyPlan {
	rng := rand.New(rand.NewSource(seed))
	out := make([]journeyPlan, n)
	for i := range out {
		p := journeyPlan{owner: rng.Intn(owners), route: make([]int, w.stops)}
		start := rng.Intn(w.workers)
		for s := range p.route {
			p.route[s] = 1 + (start+s)%w.workers
		}
		out[i] = p
	}
	return out
}

// payloads draws fat_state's per-worker record payloads from the seed
// (index 0, the home, has none). Other workloads get nil.
func (w workload) payloads(seed int64) []string {
	if w.payloadBytes == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	out := make([]string, w.workers+1)
	for i := 1; i <= w.workers; i++ {
		b := make([]byte, w.payloadBytes)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// checkJourney verifies one homecoming agent against its plan. It
// returns "" for a correct journey, else what was wrong.
func (w workload) checkJourney(a *agent.Agent, p journeyPlan, payloads []string) string {
	if len(a.Log) > 0 {
		return fmt.Sprintf("agent log: %q", a.Log)
	}
	if len(a.Results) != w.stops {
		return fmt.Sprintf("%d results, want %d", len(a.Results), w.stops)
	}
	for i, r := range a.Results {
		if r.Kind != vm.KindInt {
			return fmt.Sprintf("result %d is %s, want int", i, r.Kind)
		}
		switch w.name {
		case "hop_chain":
			if r.Int != 1 {
				return fmt.Sprintf("result %d = %d, want 1", i, r.Int)
			}
		case "access_heavy":
			// The counter is shared by concurrent visits; the last
			// add of a visit returns at least its own calls.
			if r.Int < int64(w.invokeCalls) {
				return fmt.Sprintf("result %d = %d, below the visit's %d adds", i, r.Int, w.invokeCalls)
			}
		case "fat_state":
			if r.Int != int64(w.payloadBytes) {
				return fmt.Sprintf("result %d = %d bytes, want %d", i, r.Int, w.payloadBytes)
			}
		}
	}
	if w.name == "fat_state" {
		got := a.State["payloads"]
		if got.Kind != vm.KindList || len(got.List) != w.stops {
			return fmt.Sprintf("carried payloads %s, want a list of %d", got.Kind, w.stops)
		}
		for i, v := range got.List {
			if v.Kind != vm.KindStr || v.Str != payloads[p.route[i]] {
				return fmt.Sprintf("payload %d is not worker %d's record", i, p.route[i])
			}
		}
	}
	return ""
}
