package main

import (
	"fmt"

	"repro/internal/cred"
	"repro/internal/names"
)

// tracePairs is how many untraced/traced live pass pairs a traced run
// makes; the probe overhead and ledger.coverage use their medians. The
// pairs alternate which pass runs first (UT TU UT TU), so that a pass
// gaining from the one before it favours neither side.
const tracePairs = 4

// tracedRun measures the per-layer metrics, from outside the program
// only, over one repetition's plans:
//
//  1. untraced live passes, the reference for the trace's overhead and
//     for ledger.coverage;
//  2. live passes with probes on the injection points server.Config
//     exposes (conns, directory) plus the servers' public counters,
//     alternating with the untraced ones;
//  3. a single-goroutine replay of every journey with a span around
//     each call into a layer (replay.go).
func tracedRun(cfg config) (*report, error) {
	w := cfg.w
	warm, open, closed := w.counts(cfg.seconds)
	plans := w.plan(cfg.seed, warm+open+closed)
	rep := &report{Metrics: map[string]metric{}, info: map[string]any{}}
	var problems []string

	var (
		base, live       *liveResult // first untraced, last traced pass
		c                *cluster    // last traced cluster
		creds            []cred.Credentials
		counters         clusterCounters
		baseJPS, liveJPS []float64
		baseCPU, baseP99 []float64
	)
	untraced := func() error {
		u, err := newCluster(w, cfg.seed, plans, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		res := runLive(u, plans, warm, open, nil)
		u.stop()
		rep.account(res)
		problems = append(problems, res.problems...)
		baseJPS = append(baseJPS, res.jps())
		baseCPU = append(baseCPU, res.cpuPerJourney())
		baseP99 = append(baseP99, ms(percentile(sorted(res.openLatencies), 0.99)))
		if base == nil {
			base = res
		}
		return nil
	}
	traced := func() error {
		pr := &probes{dir: &timedDirectory{bindDelay: cfg.bindDelay}}
		var err error
		if c, err = newCluster(w, cfg.seed, plans, pr); err != nil {
			return fmt.Errorf("traced setup: %w", err)
		}
		creds = c.creds // the replay rebuilds the same agents
		live = runLive(c, plans, warm, open, pr)
		counters = readCounters(c, pr)
		c.stop()
		rep.account(live)
		problems = append(problems, live.problems...)
		liveJPS = append(liveJPS, live.jps())
		return nil
	}
	for i := 0; i < tracePairs; i++ {
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}

	// The replay's own directory, delayed like the live one.
	dir := &timedDirectory{Directory: names.NewService(), bindDelay: cfg.bindDelay}
	rp, err := newReplay(c, dir)
	if err != nil {
		return nil, fmt.Errorf("replay setup: %w", err)
	}
	for j := range plans {
		a, err := c.buildAgent(creds[j], plans[j])
		if err != nil {
			rp.close()
			return nil, err
		}
		measured := j >= warm
		back, err := rp.walk(j, a, measured)
		problem := ""
		if err != nil {
			problem = err.Error()
		} else {
			problem = w.checkJourney(back, plans[j], c.payloads)
		}
		if problem != "" {
			problems = append(problems, fmt.Sprintf("replay journey %d: %s", j, problem))
		}
		if measured {
			rep.Attempted++
			if problem != "" {
				rep.Failed++
			}
		}
	}
	rp.close()

	layerMetrics(rep, base, live, counters, rp)
	rep.set("ledger.coverage", ratio(ms(rp.l.meanLayers()), median(baseCPU)), "ratio")
	rep.set("trace.journeys_per_s_ratio", ratio(median(liveJPS), median(baseJPS)), "ratio")
	rep.set("journey_p99_ms", median(baseP99), "ms")
	rep.info["untraced_journeys_per_s"] = median(baseJPS)
	rep.info["traced_journeys_per_s"] = median(liveJPS)
	rep.info["replayed_journeys"] = len(rp.l.journeys)
	rep.info["ledger"] = rp.l.summary()
	slow := rp.l.slowest()
	rep.info["ledger_slowest_journey"] = map[string]any{"id": slow.id, "ms": ms(slow.all)}
	rep.ledger = rp.l
	rep.Correct = finish(rep, cfg, problems)
	return rep, nil
}

// clusterCounters are the servers' public counters, summed, read at the
// end of the traced live pass.
type clusterCounters struct {
	resolver             names.ResolverStats
	dials, reuses        uint64
	cacheHits, cacheMiss uint64
	bindings             int
	probe                probeSample // whole-pass totals
}

func readCounters(c *cluster, pr *probes) clusterCounters {
	k := clusterCounters{probe: pr.sample(c)}
	for _, s := range c.servers {
		r := s.ResolverStats()
		k.resolver.Hits += r.Hits
		k.resolver.HintServes += r.HintServes
		k.resolver.StaleServes += r.StaleServes
		k.resolver.Misses += r.Misses
		p := s.ChannelPoolStats()
		k.dials += p.Dials
		k.reuses += p.Reuses
		h, m := s.DecisionCacheStats()
		k.cacheHits += h
		k.cacheMiss += m
	}
	k.bindings = c.platform.NS.Len()
	return k
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// jps is the closed loop's completed journeys per wall second.
func (res *liveResult) jps() float64 {
	return float64(res.closedDone) / res.end.at.Sub(res.mid.at).Seconds()
}

// cpuPerJourney is the process CPU per completed journey over both
// measured phases, in milliseconds.
func (res *liveResult) cpuPerJourney() float64 {
	return ratio(ms(res.end.cpu-res.start.cpu), float64(res.completed))
}

// layerMetrics derives every per-layer metric. Times from the replay
// are mean self times per call unless the name says otherwise.
func layerMetrics(rep *report, base, live *liveResult, k clusterCounters, rp *replay) {
	l := rp.l
	p := live.probes
	done := float64(live.completed)
	transfers := float64(p.dispatches)

	// names
	rep.set("names.observe_us", us(l.meanSelf(spanObserve)), "us")
	rep.set("names.resolve_ns", float64(l.meanSelf(spanResolve)), "ns")
	rep.set("names.authority_bind_us", ratio(float64(p.bindNS), float64(p.binds))/1e3, "us")
	rep.set("names.authority_bindings", float64(k.bindings), "count")
	r := k.resolver
	rep.set("names.resolver_hint_ratio", ratio(float64(r.HintServes), float64(r.Hits+r.HintServes+r.StaleServes+r.Misses)), "ratio")

	// agent codec and GC
	rep.set("agent.encode_us", us(l.meanSelf(spanEncode)), "us")
	rep.set("agent.decode_us", us(l.meanSelf(spanDecode)), "us")
	rep.set("agent.encoded_kb", ratio(float64(rp.wire), float64(rp.sends))/1024, "KiB")
	rep.set("agent.bundle_digest_us", us(l.meanSelf(spanDigest)), "us")
	rep.set("gc.cpu_share", ratio(base.gcCPU, base.allCPU), "ratio")
	rep.set("gc.cycles_per_1k_journeys", ratio(float64(base.gcCycles)*1000, float64(base.completed)), "count")

	// arrival gate and hosting set-up
	rep.set("cred.verify_us", us(l.meanSelf(spanVerify)), "us")
	rep.set("cred.verifies_per_journey", l.perJourney(spanVerify), "count")
	rep.set("admission.admit_ns", float64(l.meanSelf(spanAdmit)), "ns")
	rep.set("vm.verify_bundle_us", us(l.meanSelf(spanVerifyBundle)), "us")
	rep.set("loader.namespace_us", us(l.meanSelf(spanNamespace)), "us")
	adm, tear := l.layer(spanDomainAdmit), l.layer(spanDomainTeardown)
	rep.set("domain.visit_setup_us", ratio(us(adm.self+tear.self), float64(adm.count)), "us")

	// transfer
	rep.set("transfer.send_us", us(l.meanSelf(spanSend)), "us")
	rep.set("transfer.wire_kb_per_transfer", ratio(float64(p.bytes), transfers)/1024, "KiB")
	rep.set("transfer.conn_writes_per_transfer", ratio(float64(p.writes), transfers), "count")
	rep.set("transfer.pool_reuse_ratio", ratio(float64(k.reuses), float64(k.dials+k.reuses)), "ratio")

	// VM, resources and policy
	run := l.layer(spanRun)
	rep.set("vm.run_us", ratio(us(run.self), float64(rp.visits)), "us")
	rep.set("vm.fuel_per_visit", ratio(float64(rp.fuel), float64(rp.visits)), "count")
	rep.set("resource.bind_us", us(l.meanSelf(spanBind)), "us")
	rep.set("resource.invoke_ns", float64(l.meanSelf(spanInvoke)), "ns")
	rep.set("policy.decision_hit_ratio", ratio(float64(k.cacheHits), float64(k.cacheHits+k.cacheMiss)), "ratio")

	// server
	rep.set("server.transfers_per_journey", ratio(transfers, done), "count")
	rep.set("server.retries", float64(k.probe.retries), "count")
	rep.set("server.dispatch_failures", float64(k.probe.failures), "count")
	rep.set("server.parked", float64(k.probe.parked), "count")
	rep.set("server.idle_cpu_ms_per_s", ms(live.idleCPUPerSec), "ms/s")

	// the ledger itself
	rep.set("ledger.journey_p50_ms", ms(l.journeyP50()), "ms")
	rep.set("trace.journey_p50_ms", ms(percentile(sorted(live.openLatencies), 0.50)), "ms")
}
