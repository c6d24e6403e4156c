package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/retry"
	"repro/internal/transfer"
	"repro/internal/vm"
)

// The replay walks every hop of the live pass's journeys, in the same
// order and counts, on one goroutine, through the public functions an
// agent server calls on each hop — with a span around each call. Its
// directory and resolvers therefore grow exactly as the live ones do.
// It mirrors server.Server's admit, host, dispatch and ack paths
// (internal/server hosting.go, dispatch.go, binding.go); spans inside
// the server itself are a separate, later change.

// node is one replayed server: the per-server components server.New
// assembles, driven directly.
type node struct {
	id       keys.Identity
	addr     string
	verifier keys.Verifier
	ep       *transfer.Endpoint
	pool     *transfer.Pool
	resolver *names.Resolver
	gate     *admission.Gate
	db       *domain.Database
	reg      *registry.Registry
	pol      *policy.Engine
	cache    *policy.DecisionCache
	trusted  *loader.TrustedSet
	listener net.Listener
	// inbox receives each agent this node's endpoint accepted.
	inbox chan *agent.Agent
}

type replay struct {
	l     *ledger
	net   *netsim.Network
	dir   names.Directory
	nodes []*node
	wg    sync.WaitGroup // serving goroutines

	visits int    // measured itinerary visits
	fuel   uint64 // VM fuel burned by measured journeys
	wire   int    // encoded agent bytes over measured transfers
	sends  int
}

// newReplay builds the replay's servers with the live cluster's
// identities, addresses, resources and a fresh directory.
func newReplay(c *cluster, dir names.Directory) (*replay, error) {
	r := &replay{l: newLedger(), net: netsim.NewNetwork(), dir: dir}
	for i, id := range c.ids {
		if err := r.addNode(c, i, id); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// addNode builds replay server i; once its pool exists it is in r.nodes,
// so close releases it even if a later step fails.
func (r *replay) addNode(c *cluster, i int, id keys.Identity) error {
	ts, err := loader.NewTrustedSet()
	if err != nil {
		return err
	}
	addr := serverAddr(i)
	n := &node{
		id: id, addr: addr, verifier: c.platform.CA.Verifier(),
		db: domain.NewDatabase(), reg: registry.New(), pol: policy.NewEngine(),
		cache: policy.NewDecisionCache(0), trusted: ts,
		inbox: make(chan *agent.Agent, 1),
	}
	n.pol.SetRules(benchRules)
	n.gate = admission.NewGate(n.pol, nil)
	n.resolver = names.NewResolver(r.dir, names.ResolverConfig{
		Self: addr, Proximity: r.net.Latency,
		Now: func() int64 { return resource.CoarseTime().UnixNano() },
	})
	n.ep = &transfer.Endpoint{
		Identity: id, Verifier: n.verifier,
		HandshakeTimeout: 5 * time.Second, TransferTimeout: retry.DefaultPerAttempt,
		OnAck: func(a *agent.Agent, receiver names.Name, addr string) { r.onAck(n, a, receiver, addr) },
	}
	n.pool = transfer.NewPool(n.ep, transfer.PoolConfig{
		Dial: func(a string) (net.Conn, error) { return r.net.DialFrom(addr, a) },
	})
	r.nodes = append(r.nodes, n)
	for _, def := range resourceDefs(c.w, c.payloads, i) {
		if err := n.reg.Register(registry.Entry{Name: def.ResourceName(), Resource: def, AP: def,
			OwnerDomain: domain.ServerID, OwnerPrincipal: def.ResourceOwner()}); err != nil {
			return err
		}
		if err := r.dir.BindReplica(def.ResourceName(), names.Location{Address: addr, ServerName: id.Name}); err != nil {
			return err
		}
	}
	if err := r.dir.Bind(id.Name, names.Location{Address: addr, ServerName: id.Name}); err != nil {
		return err
	}
	if n.listener, err = r.net.Listen(addr); err != nil {
		return err
	}
	r.wg.Add(1)
	go r.serve(n)
	return nil
}

// serve accepts transfer streams for node n, as the server's accept
// loop does, handing each accepted agent to the walker.
func (r *replay) serve(n *node) {
	defer r.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer conn.Close()
			_ = n.ep.ServeConn(conn, func(a *agent.Agent, _ names.Name) error {
				return r.admit(n, a)
			}, func(a *agent.Agent) { n.inbox <- a })
		}()
	}
}

// close stops every node and waits for the serving goroutines.
func (r *replay) close() {
	for _, n := range r.nodes {
		n.pool.Close()
		if n.listener != nil {
			_ = n.listener.Close()
		}
	}
	r.wg.Wait()
}

// admit is the arrival gate (server hosting.go admit).
func (r *replay) admit(n *node, a *agent.Agent) error {
	var err error
	r.l.span(spanVerify, func() { err = a.Credentials.Verify(n.verifier, time.Now()) })
	if err != nil {
		return fmt.Errorf("credentials: %w", err)
	}
	if a.Name != a.Credentials.AgentName {
		return errors.New("agent name does not match credentials")
	}
	var ticket *admission.Ticket
	r.l.span(spanAdmit, func() { ticket, err = n.gate.Admit(a.Credentials.Owner, a.Credentials.Digest()) })
	if err != nil {
		return err
	}
	ticket.Release() // untiered: a nil ticket holds no slot
	r.l.span(spanVerifyBundle, func() { err = vm.VerifyBundle(a.Code) })
	if err != nil {
		return fmt.Errorf("code: %w", err)
	}
	var digest []byte
	r.l.span(spanDigest, func() { digest, err = agent.BundleDigest(a.Code) })
	if err != nil {
		return err
	}
	if !bytes.Equal(digest, a.Credentials.CodeDigest) {
		return errors.New("code does not match the owner-signed digest")
	}
	return nil
}

// onAck is the sender-side rebind the server piggybacks on every
// accepted transfer (server dispatch.go afterTransferAck).
func (r *replay) onAck(n *node, a *agent.Agent, receiver names.Name, addr string) {
	loc := names.Location{Address: addr, ServerName: receiver}
	var err error
	r.l.span(spanDirBind, func() { err = r.dir.Bind(a.Name, loc) })
	if err != nil {
		n.resolver.Invalidate(a.Name)
		return
	}
	r.l.span(spanObserve, func() { n.resolver.Observe(a.Name, loc) })
}

// walk replays journey id: launch at the home, every hosted visit and
// every transfer until the agent is home again. It returns the agent
// as it came home.
func (r *replay) walk(id int, a *agent.Agent, measured bool) (*agent.Agent, error) {
	r.l.startJourney(id, measured)
	defer r.l.endJourney()
	home := r.nodes[0]
	if err := r.admit(home, a); err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	at := home
	for {
		if a.PendingEntry == "" && a.Itinerary.Done() {
			if at != home {
				return nil, fmt.Errorf("agent came home to %s", at.id.Name)
			}
			return a, nil
		}
		if err := r.host(at, a, measured); err != nil {
			return nil, err
		}
		dest, addr := home, a.Credentials.HomeSite
		if stop, ok := a.Itinerary.Current(); ok {
			a.Hops++
			var err error
			if dest, addr, err = r.resolve(at, stop.Servers[0]); err != nil {
				return nil, err
			}
		}
		next, err := r.send(at, dest, addr, a, measured)
		if err != nil {
			return nil, err
		}
		a, at = next, dest
	}
}

// resolve finds the node behind a server name through the sender's
// resolver, as sendTo does.
func (r *replay) resolve(at *node, dest names.Name) (*node, string, error) {
	var loc names.Location
	var err error
	r.l.span(spanResolve, func() { loc, err = at.resolver.Resolve(dest) })
	if err != nil {
		return nil, "", err
	}
	for _, n := range r.nodes {
		if n.addr == loc.Address {
			return n, loc.Address, nil
		}
	}
	return nil, "", fmt.Errorf("no replay node at %s", loc.Address)
}

// send transfers the agent through the sender's channel pool and
// returns the copy the receiver decoded. The codec runs inside
// Pool.Send (sender encode, receiver decode); the replay times it by
// one separate Encode and Decode of the same agent and nets it out of
// the send span, so each cost is counted once.
func (r *replay) send(from, to *node, addr string, a *agent.Agent, measured bool) (*agent.Agent, error) {
	a.SanitizeForTransfer()
	var data []byte
	var err error
	enc := r.l.span(spanEncode, func() { data, err = a.Encode() })
	if err != nil {
		return nil, err
	}
	dec := r.l.span(spanDecode, func() { _, err = agent.Decode(data) })
	if err != nil {
		return nil, err
	}
	if measured {
		r.wire += len(data)
		r.sends++
	}
	r.l.begin(spanSend)
	r.l.credit(enc + dec)
	err = from.pool.Send(addr, a)
	r.l.end()
	if err != nil {
		return nil, err
	}
	return <-to.inbox, nil
}

// host runs one visit (server hosting.go host): the protection domain,
// the namespace, the VM entry, and the domain's teardown.
func (r *replay) host(n *node, a *agent.Agent, measured bool) error {
	var dom domain.ID
	var err error
	r.l.span(spanDomainAdmit, func() { dom, err = n.db.Admit(domain.ServerID, &a.Credentials) })
	if err != nil {
		return err
	}
	var ns *loader.Namespace
	r.l.span(spanNamespace, func() { ns, err = loader.NewNamespace(n.trusted, a.Code, false) })
	if err != nil {
		return err
	}
	v := &replayVisit{r: r, n: n, a: a, dom: dom, credKey: a.Credentials.Digest(),
		usage: make(map[string]*domain.Usage)}
	meter := vm.NewMeter(vm.DefaultFuel)
	env := &vm.Env{Globals: a.State, Host: make(map[string]vm.HostFunc), Resolver: ns,
		Meter: meter, MaxFrames: vm.DefaultMaxFrames, Owner: dom}
	vm.InstallBuiltins(env)
	v.install(env)

	mainMod, err := ns.Module(a.MainModule)
	if err != nil {
		return err
	}
	run := func(entry string) error {
		r.l.span(spanRun, func() { _, err = vm.Run(env, mainMod, entry) })
		return err
	}
	if !a.Initialized {
		if err := run("__init__"); err != nil {
			return fmt.Errorf("init: %w", err)
		}
		a.Initialized = true
	}
	if stop, ok := a.Itinerary.Current(); ok && stop.Servers[0] == n.id.Name {
		if err := run(stop.Entry); err != nil {
			return fmt.Errorf("%s: %w", stop.Entry, err)
		}
		a.Itinerary.Advance()
		if measured {
			r.visits++
		}
	}
	if measured {
		r.fuel += meter.Used()
	}
	batch := make([]domain.Usage, 0, len(v.usage))
	for _, u := range v.usage {
		batch = append(batch, *u)
	}
	r.l.span(spanDomainTeardown, func() {
		_ = n.db.SetStatus(domain.ServerID, dom, domain.StatusDeparted)
		_, _ = n.db.FlushUsage(domain.ServerID, dom, batch)
		_ = n.db.RevokeAll(domain.ServerID, dom)
		err = n.db.Remove(domain.ServerID, dom)
	})
	return err
}

// replayVisit is one visit's host-call surface: the calls the workload
// agents make (server hostcalls.go and binding.go).
type replayVisit struct {
	r       *replay
	n       *node
	a       *agent.Agent
	dom     domain.ID
	credKey cred.Digest
	handles []*replayBinding
	usage   map[string]*domain.Usage
}

type replayBinding struct {
	proxy *resource.Proxy
	usage *domain.Usage
}

func (v *replayVisit) install(env *vm.Env) {
	env.Host["report"] = func(args []vm.Value) (vm.Value, error) {
		v.a.Results = append(v.a.Results, args[0].Clone())
		return vm.Nil(), nil
	}
	env.Host["get_resource"] = func(args []vm.Value) (vm.Value, error) {
		rn, err := names.Parse(args[0].Str)
		if err != nil {
			return vm.Nil(), err
		}
		var b *replayBinding
		v.r.l.span(spanBind, func() { b, err = v.bind(rn) })
		if err != nil {
			return vm.Nil(), err
		}
		v.handles = append(v.handles, b)
		return vm.H(uint64(len(v.handles))), nil
	}
	env.Host["invoke"] = func(args []vm.Value) (vm.Value, error) {
		b := v.handles[args[0].Handle-1]
		var out vm.Value
		var charge uint64
		var err error
		v.r.l.span(spanInvoke, func() { out, charge, err = b.proxy.InvokeMetered(v.dom, args[1].Str, args[2:]) })
		if err == nil {
			b.usage.Invocations++
			b.usage.Charge += charge
		}
		return out, err
	}
}

// bind is steps 3-5 of the binding protocol (server binding.go
// bindResource): registry snapshot lookup, the GetProxy upcall through
// the decision cache, and the domain database's binding record.
func (v *replayVisit) bind(rn names.Name) (*replayBinding, error) {
	n := v.n
	snap := n.reg.Snapshot()
	entry, err := snap.Lookup(rn)
	if err != nil {
		return nil, err
	}
	creds, err := n.db.CredentialsOf(v.dom)
	if err != nil {
		return nil, err
	}
	proxy, err := entry.AP.GetProxy(resource.Request{
		Caller: v.dom, Creds: creds, Policy: n.pol, Cache: n.cache,
		Stamp:   policy.Stamp{Policy: n.pol.Epoch(), Registry: snap.Epoch()},
		CredKey: v.credKey,
	})
	if err != nil {
		return nil, err
	}
	_ = n.db.AddBinding(domain.ServerID, v.dom, &domain.Binding{
		ResourcePath: proxy.Path(),
		Revoker:      func() { _ = proxy.Revoke(domain.ServerID) },
	})
	u := v.usage[proxy.Path()]
	if u == nil {
		u = &domain.Usage{ResourcePath: proxy.Path()}
		v.usage[proxy.Path()] = u
	}
	return &replayBinding{proxy: proxy, usage: u}, nil
}
