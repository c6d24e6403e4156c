// Command journeybench is the repository's journey benchmark: it builds
// fresh in-process clusters, drives fixed counts of agent journeys
// through them, checks every journey's output, and prints end-to-end
// metrics (--trace 0) or per-layer metrics from a separate traced run
// (--trace 1). See README.md for the workloads and metric definitions.
//
//	go run . --workload hop_chain --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it carry the run's provenance and phase details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    int64
	seconds int
	// bindDelay is added to every authoritative directory Bind in the
	// traced run (attribution self-test only; 0 otherwise).
	bindDelay time.Duration
	log       io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info   map[string]any
	ledger *ledger // traced run: the replay's spans
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// account folds one live pass's outcomes into the result; the pass's
// books must close (completed + failed + lost = launched).
func (r *report) account(res *liveResult) {
	r.Attempted += res.launched
	r.Failed += res.failed + res.lost
	if res.completed+res.failed+res.lost != res.launched {
		res.problems = append(res.problems, fmt.Sprintf("accounting does not close: %d completed + %d failed + %d lost != %d launched",
			res.completed, res.failed, res.lost, res.launched))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("journeybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "hop_chain", "workload: hop_chain, access_heavy or fat_state")
	seed := fs.Int64("seed", 1, "seed for owners, routes and payload bytes")
	seconds := fs.Int("seconds", 20, "sizes the measured journey counts (journeys per second of the workload times this); never a stopping time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "journeybench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// A run that has not finished by now will not meet the 180 s
	// contract; fail it instead of hanging.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "journeybench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	cfg := config{w: w, seed: *seed, seconds: *seconds, log: stderr}
	warm, open, closed := w.counts(*seconds)
	prov := map[string]any{
		"commit":     envOr("JOURNEYBENCH_COMMIT", "unknown"),
		"source":     envOr("JOURNEYBENCH_SOURCE", "unknown"),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workload":   w.name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"journeys":   map[string]int{"warmup": warm, "open_loop": open, "closed_loop": closed},
		"open_rate":  w.openRate,
		"clients":    clients,
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(cfg)
	} else {
		rep, err = endToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "journeybench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"provenance": prov})
	_ = enc.Encode(map[string]any{"info": rep.info})
	_ = enc.Encode(rep)
	return 0
}

// envOr reads provenance the build wrapper (run.sh) exports: the
// commit and a digest of the Go sources.
func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

// runLimit bounds a whole invocation.
const runLimit = 175 * time.Second

// endToEnd is the timed run: no probes, end-to-end metrics only. Each
// repetition sets up a fresh cluster, runs warmup, the open loop and
// the closed loop on it, and yields one value per metric; the run
// reports each metric's median over the repetitions.
func endToEnd(cfg config) (*report, error) {
	w := cfg.w
	warm, open, closed := w.counts(cfg.seconds)
	n := warm + open + closed
	all := w.plan(cfg.seed, reps*n)
	rep := &report{Metrics: map[string]metric{}, info: map[string]any{}}
	values := map[string][]float64{}
	units := map[string]string{}
	var openLatencies []time.Duration // every repetition's, pooled for the tail
	var problems []string
	for r := 0; r < reps; r++ {
		plans := all[r*n : (r+1)*n]
		runtime.GC()
		t := time.Now()
		c, err := newCluster(w, cfg.seed, plans, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup := time.Since(t)
		res := runLive(c, plans, warm, open, nil)
		c.stop()
		rep.account(res)
		problems = append(problems, res.problems...)

		one := &report{Metrics: map[string]metric{}, info: rep.info}
		one.set("setup_s", setup.Seconds(), "s")
		endToEndMetrics(one, res)
		for name, m := range one.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		openLatencies = append(openLatencies, res.openLatencies...)
	}
	for name, v := range values {
		rep.set(name, median(v), units[name])
	}
	rep.info["repetitions"] = reps
	rep.info["per_repetition"] = values
	// Ungated (see README.md); pooled so that at least ten samples lie
	// beyond the 99th percentile.
	rep.info["journey_p99_ms"] = ms(percentile(sorted(openLatencies), 0.99))
	rep.info["journey_p99_samples"] = len(openLatencies)
	rep.Correct = finish(rep, cfg, problems)
	return rep, nil
}

// endToEndMetrics derives the user-visible metrics of one live pass.
func endToEndMetrics(rep *report, res *liveResult) {
	rep.set("journeys_per_s", res.jps(), "1/s")
	rep.set("journey_p50_ms", ms(percentile(sorted(res.openLatencies), 0.50)), "ms")
	rep.set("cpu_ms_per_journey", res.cpuPerJourney(), "ms")
	rep.set("alloc_kb_per_journey", ratio(float64(res.allocBytes)/1024, float64(res.completed)), "KiB")
	rep.set("heap_live_mb", float64(res.heapLive)/(1<<20), "MiB")
	rep.info["open_loop_samples_per_repetition"] = len(res.openLatencies)
	rep.info["open_loop_rate_per_s"] = float64(res.open) / res.mid.at.Sub(res.start.at).Seconds()
	if lag := ms(res.genLagMax); lag > maxInfo(rep.info, "generator_lag_max_ms") {
		rep.info["generator_lag_max_ms"] = lag
	}
}

// maxInfo reads a float info value (0 when absent).
func maxInfo(info map[string]any, key string) float64 {
	v, _ := info[key].(float64)
	return v
}

// finish prints every problem, never dropping one, records the failed
// ratio, and reports whether the run is correct.
func finish(rep *report, cfg config, problems []string) bool {
	for _, p := range problems {
		fmt.Fprintf(cfg.log, "journeybench: %s: %s\n", cfg.w.name, p)
	}
	if rep.Attempted > 0 {
		rep.info["failed_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.info["problems"] = len(problems)
	return rep.Failed == 0 && len(problems) == 0 && rep.Attempted > 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of a small sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
