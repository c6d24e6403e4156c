package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/core"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// probes are the traced run's wrappers around the injection points
// server.Config exposes. A nil *probes leaves the cluster unwrapped.
type probes struct {
	bytes, writes atomic.Uint64 // every conn write, both directions
	dir           *timedDirectory
}

// countingConn counts the bytes and writes a transfer puts on the wire.
type countingConn struct {
	net.Conn
	p *probes
}

func (c countingConn) Write(b []byte) (int, error) {
	c.p.writes.Add(1)
	c.p.bytes.Add(uint64(len(b)))
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	p *probes
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.p}, nil
}

// timedDirectory times the authoritative directory's Bind calls.
// bindDelay, when set, is added to every Bind: the attribution self-test
// uses it to plant a known cost in one layer.
type timedDirectory struct {
	names.Directory
	bindDelay     time.Duration
	binds, bindNS atomic.Uint64
}

func (d *timedDirectory) Bind(n names.Name, loc names.Location) error {
	t := time.Now()
	if d.bindDelay > 0 {
		time.Sleep(d.bindDelay)
	}
	err := d.Directory.Bind(n, loc)
	d.bindNS.Add(uint64(time.Since(t)))
	d.binds.Add(1)
	return err
}

// cluster is one fresh in-process netsim cluster with every journey's
// agent already built.
type cluster struct {
	w        workload
	platform *core.Platform
	dir      names.Directory
	servers  []*server.Server // index 0 = home
	ids      []keys.Identity
	owners   []keys.Identity
	counters []*resource.Def // access_heavy: per-server counter (nil at home)
	payloads []string        // fat_state: per-server record payload

	mainModule string
	bundle     []vm.Module
	digest     []byte
	manifest   *analysis.Manifest
	creds      []cred.Credentials
	agents     []*agent.Agent
}

func serverAddr(i int) string { return fmt.Sprintf("s%d:7000", i) }

// benchRules grants every certified owner the workloads' resources.
var benchRules = []policy.Rule{
	{AnyPrincipal: true, Resource: "counter", Methods: []string{"*"}},
	{AnyPrincipal: true, Resource: "records", Methods: []string{"*"}},
}

// newCluster starts the servers, certifies the owners, compiles the one
// shared bundle and builds every planned journey's agent with its own
// pre-issued credentials. All of it is set-up time.
func newCluster(w workload, seed int64, plans []journeyPlan, pr *probes) (*cluster, error) {
	p, err := core.NewPlatform(authority)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, platform: p, dir: p.NS, payloads: w.payloads(seed)}
	if pr != nil {
		pr.dir.Directory = p.NS
		c.dir = pr.dir
	}
	for i := 0; i <= w.workers; i++ {
		if err := c.startServer(i, pr); err != nil {
			c.stop()
			return nil, err
		}
	}
	for i := 0; i < owners; i++ {
		id, err := p.NewOwner(fmt.Sprintf("owner%d", i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.owners = append(c.owners, id)
	}
	if err := c.compile(); err != nil {
		c.stop()
		return nil, err
	}
	c.creds = make([]cred.Credentials, len(plans))
	c.agents = make([]*agent.Agent, len(plans))
	for j := range plans {
		if c.creds[j], err = c.issue(j, plans[j]); err != nil {
			c.stop()
			return nil, err
		}
		if c.agents[j], err = c.buildAgent(c.creds[j], plans[j]); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// startServer builds server i the way core.Platform.StartServer does,
// through server.New so the traced run can wrap Dial, Listen and the
// directory.
func (c *cluster) startServer(i int, pr *probes) error {
	p := c.platform
	id, err := keys.NewIdentity(p.CA, names.Server(authority, fmt.Sprintf("s%d", i)), 24*time.Hour)
	if err != nil {
		return err
	}
	eng := policy.NewEngine()
	eng.SetRules(benchRules)
	self := serverAddr(i)
	cfg := server.Config{
		Identity:    id,
		Verifier:    p.CA.Verifier(),
		Address:     self,
		NameService: c.dir,
		Policy:      eng,
		Proximity:   p.Net.Latency,
		Dial:        func(a string) (net.Conn, error) { return p.Net.DialFrom(self, a) },
		Listen:      func(a string) (net.Listener, error) { return p.Net.Listen(a) },
	}
	if pr != nil {
		cfg.Dial = func(a string) (net.Conn, error) {
			conn, err := p.Net.DialFrom(self, a)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, pr}, nil
		}
		cfg.Listen = func(a string) (net.Listener, error) {
			l, err := p.Net.Listen(a)
			if err != nil {
				return nil, err
			}
			return countingListener{l, pr}, nil
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	var counter *resource.Def
	for _, def := range resourceDefs(c.w, c.payloads, i) {
		if err := core.InstallResource(s, def); err != nil {
			s.Stop()
			return err
		}
		if def.Path == "counter" {
			counter = def
		}
	}
	if err := s.Start(); err != nil {
		s.Stop()
		return err
	}
	c.servers = append(c.servers, s)
	c.ids = append(c.ids, id)
	c.counters = append(c.counters, counter)
	return nil
}

func (c *cluster) compile() error {
	main, err := asl.Compile(c.w.source())
	if err != nil {
		return fmt.Errorf("compile workload: %w", err)
	}
	c.mainModule = main.Name
	c.bundle = []vm.Module{*main}
	if c.digest, err = agent.BundleDigest(c.bundle); err != nil {
		return err
	}
	c.manifest, err = analysis.ComputeManifest(c.bundle)
	return err
}

// resourceDefs builds the resources worker i serves: access_heavy's
// shared counter and fat_state's record store holding the worker's
// seeded payload. The home serves none.
func resourceDefs(w workload, payloads []string, i int) []*resource.Def {
	switch {
	case i == 0:
		return nil
	case w.invokeCalls > 0:
		return []*resource.Def{core.CounterResource(names.Resource(authority, "counter"), "counter")}
	case w.payloadBytes > 0:
		return []*resource.Def{core.RecordStoreResource(names.Resource(authority, "records"),
			"records", []int64{1}, payloads[i])}
	}
	return nil
}

// issue signs journey j's credentials: its owner, its name, the pinned
// bundle digest and the home site.
func (c *cluster) issue(j int, p journeyPlan) (cred.Credentials, error) {
	owner := c.owners[p.owner]
	name, err := names.New(names.KindAgent, authority, fmt.Sprintf("j%d", j))
	if err != nil {
		return cred.Credentials{}, err
	}
	return cred.IssueForCode(owner, name, owner.Name, cred.NewRightSet(cred.All),
		time.Hour, c.servers[0].Address(), c.digest)
}

// buildAgent assembles a journey's agent from its credentials.
func (c *cluster) buildAgent(cr cred.Credentials, p journeyPlan) (*agent.Agent, error) {
	stops := make([]agent.Stop, len(p.route))
	for s, wi := range p.route {
		stops[s] = agent.Stop{Servers: []names.Name{c.ids[wi].Name}, Entry: "main"}
	}
	a, err := agent.New(cr, c.mainModule, c.bundle, agent.Itinerary{Stops: stops})
	if err != nil {
		return nil, err
	}
	a.Manifest = c.manifest
	return a, nil
}

// stop shuts every server down and waits for it.
func (c *cluster) stop() {
	for _, s := range c.servers {
		s.Stop()
	}
}

// probeSample is one reading of the probes and the servers' traffic
// counters.
type probeSample struct {
	bytes, writes                         uint64
	binds, bindNS                         uint64
	dispatches, retries, failures, parked uint64
}

// sample reads the probes once the cluster is quiet: a sender counts
// its dispatch only after the receiver's ack, possibly after the
// journey is already home, so the counters settle first.
func (pr *probes) sample(c *cluster) probeSample {
	for prev := pr.read(c); ; {
		time.Sleep(5 * time.Millisecond)
		cur := pr.read(c)
		if cur == prev {
			return cur
		}
		prev = cur
	}
}

func (pr *probes) read(c *cluster) probeSample {
	s := probeSample{
		bytes: pr.bytes.Load(), writes: pr.writes.Load(),
		binds: pr.dir.binds.Load(), bindNS: pr.dir.bindNS.Load(),
	}
	for _, srv := range c.servers {
		st := srv.Stats()
		s.dispatches += st.Dispatches
		s.retries += st.Retries
		s.failures += st.DispatchFailures
		s.parked += st.Parked
	}
	return s
}

func (s probeSample) minus(p probeSample) probeSample {
	return probeSample{
		bytes: s.bytes - p.bytes, writes: s.writes - p.writes,
		binds: s.binds - p.binds, bindNS: s.bindNS - p.bindNS,
		dispatches: s.dispatches - p.dispatches, retries: s.retries - p.retries,
		failures: s.failures - p.failures, parked: s.parked - p.parked,
	}
}
