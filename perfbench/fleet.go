package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/txn"
)

// fleet is the fleet-xshard workload: a shard.Router in front of two
// main-memory shards with outbox forwarders and no emulated commit pace.
// Two pipelined binary clients go through the router. Most
// transactions are owner-local Buys on cards with DenyCredit armed; a
// fixed share post Kick on a source card, whose Chain firing posts
// Credit to its sink on the other shard — outbox, forward, ingest —
// where Tally applies it.
type fleet struct {
	tr      *tracer
	nodes   []*fleetNode
	rt      *shard.Router
	rtDone  chan struct{}
	muxes   []*server.Mux
	load    []*server.MuxSession
	probe   []*server.MuxSession
	cards   []fleetObj
	sources []fleetObj // sources[i].next is its sink
	m       *model
	rngs    []*rand.Rand
	next    []int   // per client: next own card index for arm churn
	kicks   [][]int // per client, per own source: committed Kicks
	counted []int   // per source: Kicks whose lag is already recorded

	stampMu sync.Mutex
	stamps  map[stampKey]time.Time

	drainWait time.Duration // how long verify waits for the outboxes
}

type fleetNode struct {
	db  *core.Database
	srv *server.Server
	fwd *shard.Forwarder
}

type fleetObj struct {
	oid, next uint64
	node      int
}

// stampKey names the n-th Bump on a card.
type stampKey struct {
	oid uint64
	n   int
}

const (
	fleetShards  = 2
	fleetClients = 2
	fleetWindow  = 2 // transactions in flight per client
)

var fleetMix = mix{arm: 20, read: 100, kick: 150}

func (f *fleet) setup(cfg *config, tr *tracer) error {
	f.close()
	f.tr = tr
	ring, err := shard.NewRing(fleetShards, 0)
	if err != nil {
		return err
	}
	f.stamps = map[stampKey]time.Time{}
	addrs := make([]string, fleetShards)
	for i := 0; i < fleetShards; i++ {
		m := dali.New()
		m.SetOIDFilter(ring.OIDFilter(i))
		var store storage.Manager = m
		if cfg.trace {
			store = wrapStore(m, tr)
		}
		db, err := openDB(store, f.stamp)
		if err != nil {
			return err
		}
		db.Causes().SetNode(uint64(0xF0 + i))
		if err := db.EnableSharding(ring.OIDFilter(i)); err != nil {
			db.Close()
			return err
		}
		srv := server.NewWithOptions(db, server.Options{ExtraOps: shard.Ops(db, ring, i, addrs)})
		if addrs[i], err = srv.Listen("127.0.0.1:0"); err != nil {
			db.Close()
			return err
		}
		f.nodes = append(f.nodes, &fleetNode{db: db, srv: srv})
	}
	for i, n := range f.nodes {
		if n.fwd, err = shard.NewForwarder(n.db, ring, shard.ForwarderOptions{Self: i, Addrs: addrs}); err != nil {
			return err
		}
		go n.fwd.Run()
	}
	if err := f.populate(cfg); err != nil {
		return err
	}
	if f.rt, err = shard.NewRouter(ring, shard.RouterOptions{Addrs: addrs}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.rtDone = make(chan struct{})
	go func() {
		defer close(f.rtDone)
		f.rt.Serve(ln)
	}()
	for c := 0; c < fleetClients; c++ {
		mx, err := server.DialMux(ln.Addr().String(), server.ClientOptions{})
		if err != nil {
			return err
		}
		f.muxes = append(f.muxes, mx)
		f.load = append(f.load, mx.Session())
		f.probe = append(f.probe, mx.Session())
	}
	return nil
}

// populate creates the cards, sources and sinks directly on their
// owning shards and arms DenyCredit, Chain and Tally. Card i and source
// i live on shard owner(i), so each client's cards (one index parity)
// span both shards; source i's sink lives on the other shard.
func (f *fleet) populate(cfg *config) error {
	nCards, nSources := cfg.n(1000), cfg.n(100)
	f.cards = make([]fleetObj, nCards)
	f.sources = make([]fleetObj, nSources)
	f.m = newModel(nCards)
	owner := func(i int) int { return (i / 2) % fleetShards }
	// create makes one committed card on shard s with trigger armed.
	create := func(tx *txn.Txn, s int, c *Card, trigger string) (uint64, core.TriggerID, error) {
		db := f.nodes[s].db
		ref, err := db.Create(tx, "Card", c)
		if err != nil {
			return 0, core.TriggerID{}, err
		}
		id, err := db.Activate(tx, ref, trigger)
		return uint64(ref.OID()), id, err
	}
	// Sinks first, so sources can name them.
	for pass := 0; pass < 2; pass++ {
		for s, node := range f.nodes {
			tx := node.db.Begin()
			for i := 0; i < nSources; i++ {
				var err error
				switch {
				case pass == 0 && owner(i) != s:
					f.sources[i].next, _, err = create(tx, s, &Card{CredLim: cardLimit}, "Tally")
				case pass == 1 && owner(i) == s:
					f.sources[i].oid, _, err = create(tx, s, &Card{CredLim: cardLimit, Next: f.sources[i].next}, "Chain")
					f.sources[i].node = s
				}
				if err != nil {
					tx.Abort()
					return err
				}
			}
			for i := 0; pass == 0 && i < nCards; i++ {
				if owner(i) != s {
					continue
				}
				oid, id, err := create(tx, s, &Card{CredLim: cardLimit}, "DenyCredit")
				if err != nil {
					tx.Abort()
					return err
				}
				f.cards[i] = fleetObj{oid: oid, node: s}
				f.m.trig[i] = uint64(id.OID())
				f.tr.noteState(id.OID(), true)
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	f.counted = make([]int, nSources)
	f.rngs = make([]*rand.Rand, fleetClients)
	f.next = make([]int, fleetClients)
	f.kicks = make([][]int, fleetClients)
	for c := range f.rngs {
		f.rngs[c] = rand.New(rand.NewSource(cfg.seed*1000003 + 13 + int64(c)))
		f.next[c] = c
		f.kicks[c] = make([]int, (nSources-c+1)/2)
	}
	return nil
}

// stamp is the cards' onBump hook: it runs inside Chain and Tally
// firings on the shards.
func (f *fleet) stamp(oid uint64, n int) {
	now := time.Now()
	f.stampMu.Lock()
	f.stamps[stampKey{oid, n}] = now
	f.stampMu.Unlock()
}

func (f *fleet) registries() []*obs.Registry {
	rs := []*obs.Registry{f.rt.Observability()}
	for _, n := range f.nodes {
		rs = append(rs, n.db.Observability())
	}
	return rs
}

func (f *fleet) run(d time.Duration, traced bool) (*tally, error) {
	ts := make([]*tally, fleetClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ts {
		ts[c] = newTally(start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f.client(c, start.Add(d), traced, ts[c])
		}(c)
	}
	wg.Wait()
	out := mergeAll(start, ts)
	// Let the slice's cross-shard postings land before pairing stamps.
	if err := f.drain(); err != nil {
		return nil, err
	}
	out.lag = f.lags()
	return out, nil
}

// drain waits for both outboxes to empty.
func (f *fleet) drain() error {
	wait := f.drainWait
	if wait == 0 {
		wait = 30 * time.Second
	}
	limit := time.Now().Add(wait)
	for {
		pending := uint64(0)
		for _, n := range f.nodes {
			pending += n.db.OutboxDepth()
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("outbox still holds %d events after %v", pending, wait)
		}
		time.Sleep(time.Millisecond)
	}
}

// lags pairs every newly committed Kick's Chain stamp with its sink's
// Tally stamp, in µs.
func (f *fleet) lags() samples {
	f.stampMu.Lock()
	defer f.stampMu.Unlock()
	var out samples
	for c, own := range f.kicks {
		for j, k := range own {
			i := 2*j + c
			src := f.sources[i]
			for n := f.counted[i] + 1; n <= k; n++ {
				ka, kb := stampKey{src.oid, n}, stampKey{src.next, n}
				a, okA := f.stamps[ka]
				b, okB := f.stamps[kb]
				if okA && okB {
					out.add(b.Sub(a))
				}
				delete(f.stamps, ka)
				delete(f.stamps, kb)
			}
			f.counted[i] = k
		}
	}
	return out
}

// fop is one pipelined transaction.
type fop struct {
	kind  opKind
	idx   int // card index, or source index for a Kick
	amt   float64
	start time.Time
	calls []*server.Call
	floor float64
}

func (f *fleet) newOp(c int, r *rand.Rand) *fop {
	op := &fop{kind: fleetMix.pick(r)}
	switch op.kind {
	case opArm:
		op.idx = f.next[c]
		f.next[c] += 2
		if f.next[c] >= len(f.cards) {
			f.next[c] = c
		}
	case opKick:
		op.idx = 2*r.Intn((len(f.sources)-c+1)/2) + c
	default:
		op.idx = 2*r.Intn((len(f.cards)-c+1)/2) + c
		if op.kind == opBuy {
			op.amt = buyAmount(r)
		}
	}
	return op
}

func (f *fleet) send(c int, op *fop) {
	op.start = time.Now()
	if op.kind == opKick {
		op.calls = pipeline(f.load[c], op.kind, f.sources[op.idx].oid, 0, 0)
		return
	}
	switch op.kind {
	case opRead:
		op.floor = f.m.maxRead[op.idx]
	case opBuy:
		f.m.sent[op.idx] += op.amt
	}
	op.calls = pipeline(f.load[c], op.kind, f.cards[op.idx].oid, op.amt, f.m.trig[op.idx])
}

func (f *fleet) finish(c int, op *fop, t *tally) {
	t.attempted++
	resps, err := await(op.calls)
	now := time.Now()
	lat := now.Sub(op.start)
	switch op.kind {
	case opRead:
		t.record(&t.read, now, lat)
		var card Card
		if err == nil {
			err = json.Unmarshal(resps[1].Value, &card)
		}
		if err != nil {
			t.failed++
			t.problemf("snapshot read of card %d: %v", op.idx, err)
			return
		}
		f.m.noteRead(t, op.idx, card.CurrBal, op.floor)
	case opArm:
		t.record(&t.arm, now, lat)
		if err != nil {
			t.failed++
			t.problemf("arm churn on card %d: %v", op.idx, err)
			return
		}
		f.tr.noteState(storageOID(f.m.trig[op.idx]), false)
		f.m.trig[op.idx] = resps[2].ID
		f.tr.noteState(storageOID(resps[2].ID), true)
		t.armChanges += 2
	case opKick:
		t.record(&t.txn, now, lat)
		if err != nil {
			t.failed++
			t.problemf("Kick on source %d: %v", op.idx, err)
			return
		}
		f.kicks[c][op.idx/2]++
	default:
		t.record(&t.txn, now, lat)
		f.m.noteBuy(t, op.idx, op.amt, wireOutcome(err, len(resps), len(op.calls)))
	}
}

// client keeps fleetWindow transactions in flight on its session until
// the deadline, then drains. Latency runs from a transaction's first
// send to its commit response, so it includes the pipeline wait.
func (f *fleet) client(c int, deadline time.Time, traced bool, t *tally) {
	r := f.rngs[c]
	var inflight []*fop
	for sent := 0; ; {
		for len(inflight) < fleetWindow && time.Now().Before(deadline) {
			op := f.newOp(c, r)
			f.send(c, op)
			inflight = append(inflight, op)
			sent++
			if traced && sent%32 == 0 {
				f.probeOnce(c, op, t)
			}
		}
		if len(inflight) == 0 {
			return
		}
		f.finish(c, inflight[0], t)
		inflight = inflight[1:]
	}
}

// probeOnce times one round trip through the router on the probe
// session and one direct trigger-index lookup on the card's owner, and
// samples the outbox depth.
func (f *fleet) probeOnce(c int, op *fop, t *tally) {
	probeRTT(f.probe[c], t)
	card := f.cards[op.idx%len(f.cards)]
	probeIndex(f.nodes[card.node].db, card.oid, t)
	for _, n := range f.nodes {
		if d := n.db.OutboxDepth(); d > t.outboxMax {
			t.outboxMax = d
		}
	}
}

// verify checks the cards against the model, then exactly-once
// delivery: every source's committed Kicks, its own Chain count and its
// sink's Tally count agree, and both outboxes are empty.
func (f *fleet) verify() error {
	ps := f.m.check(func(i int) (cardState, error) {
		return readCard(f.nodes[f.cards[i].node].db, core.RefFromOID(storageOID(f.cards[i].oid)))
	})
	if err := f.drain(); err != nil {
		ps = append(ps, err.Error())
	}
	for c, own := range f.kicks {
		for j, want := range own {
			src := f.sources[2*j+c]
			for _, o := range []fleetObj{src, {oid: src.next, node: 1 - src.node}} {
				got, err := f.credits(o)
				if err != nil {
					ps = append(ps, err.Error())
				} else if got != want {
					ps = append(ps, fmt.Sprintf("card %d: %d Chain/Tally firings applied, %d Kicks committed", o.oid, got, want))
				}
			}
		}
	}
	return joinProblems(ps)
}

func (f *fleet) credits(o fleetObj) (int, error) {
	db := f.nodes[o.node].db
	tx := db.Begin()
	defer tx.Abort()
	v, err := db.Get(tx, core.RefFromOID(storageOID(o.oid)))
	if err != nil {
		return 0, err
	}
	return v.(*Card).Credits, nil
}

func (f *fleet) close() {
	for _, mx := range f.muxes {
		mx.Close()
	}
	f.muxes, f.load, f.probe = nil, nil, nil
	if f.rt != nil {
		f.rt.Close()
		<-f.rtDone
		f.rt = nil
	}
	for _, n := range f.nodes {
		if n.fwd != nil {
			n.fwd.Stop()
		}
	}
	for _, n := range f.nodes {
		n.srv.Close()
		n.db.Close()
	}
	f.nodes = nil
}
