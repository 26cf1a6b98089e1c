package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/dali"
)

// wireMix is the wire-mix workload: one in-process ode-server on
// loopback over a main-memory (dali) store that holds every card. One
// card in a hundred has DenyCredit armed, so most postings stop at the
// header fast path. An open-loop Poisson load at a fixed offered rate
// sends write transactions (begin/Buy/commit) beside snapshot reads
// (snapshot begin/get/commit) and a little arm churn on the armed
// cards, over two binary connections with sessions multiplexed on each
// (server.DialMux). Latency runs from each request's due time.
type wireMix struct {
	tr    *tracer
	n     int
	db    *core.Database
	srv   *server.Server
	muxes []*server.Mux
	sess  [][]*server.MuxSession
	probe []*server.MuxSession
	refs  []uint64
	armed [][]int // per generator: its armed cards, in churn order
	m     *model
	rngs  []*rand.Rand
	next  []int // per generator: index into armed for the next churn
}

const (
	wireGens     = 2  // generator goroutines, one connection each
	wireSessions = 16 // multiplexed sessions per connection
	// wireRate is the offered load in transactions per second, about
	// half the capacity the seed engine showed on a 2-core host with
	// this mix (14.8k/s completed under a saturating offered load).
	wireRate = 3500
)

var wireMixShares = mix{arm: 10, read: 380}

func (w *wireMix) setup(cfg *config, tr *tracer) error {
	w.close()
	w.tr = tr
	var store storage.Manager = dali.New()
	if cfg.trace {
		store = wrapStore(store, tr)
	}
	db, err := openDB(store, nil)
	if err != nil {
		return err
	}
	w.db = db
	w.n = cfg.n(2000)
	w.m = newModel(w.n)
	w.refs = make([]uint64, w.n)
	w.armed = make([][]int, wireGens)
	w.rngs = make([]*rand.Rand, wireGens)
	w.next = make([]int, wireGens)
	for g := range w.rngs {
		w.rngs[g] = rand.New(rand.NewSource(cfg.seed*1000003 + 7 + int64(g)))
	}
	const batch = 500
	for lo := 0; lo < w.n; lo += batch {
		tx := db.Begin()
		for i := lo; i < lo+batch && i < w.n; i++ {
			ref, err := db.Create(tx, "Card", &Card{CredLim: cardLimit})
			if err != nil {
				tx.Abort()
				return err
			}
			w.refs[i] = uint64(ref.OID())
			if i%100 != 0 && i%100 != 1 {
				continue
			}
			// Cards 100k and 100k+1 are armed: one per hundred for each
			// generator's parity.
			id, err := db.Activate(tx, ref, "DenyCredit")
			if err != nil {
				tx.Abort()
				return err
			}
			w.m.trig[i] = uint64(id.OID())
			w.armed[i%2] = append(w.armed[i%2], i)
			tr.noteState(id.OID(), true)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	w.srv = server.New(db)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for g := 0; g < wireGens; g++ {
		mx, err := server.DialMux(addr, server.ClientOptions{})
		if err != nil {
			return err
		}
		w.muxes = append(w.muxes, mx)
		ss := make([]*server.MuxSession, wireSessions)
		for i := range ss {
			ss[i] = mx.Session()
		}
		w.sess = append(w.sess, ss)
		w.probe = append(w.probe, mx.Session())
	}
	return nil
}

func (w *wireMix) registries() []*obs.Registry { return []*obs.Registry{w.db.Observability()} }

func (w *wireMix) run(d time.Duration, traced bool) (*tally, error) {
	ts := make([]*tally, wireGens)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range ts {
		ts[g] = newTally(start)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w.gen(g, start, start.Add(d), traced, ts[g])
		}(g)
	}
	wg.Wait()
	out := mergeAll(start, ts)
	return out, nil
}

// wop is one open-loop transaction: what to send and, once sent, the
// pipelined calls whose last one is the commit.
type wop struct {
	kind  opKind
	card  int
	amt   float64
	due   time.Time
	sess  int
	calls []*server.Call
	floor float64
}

func (w *wireMix) newOp(g int, r *rand.Rand) *wop {
	op := &wop{kind: wireMixShares.pick(r)}
	if op.kind == opArm {
		own := w.armed[g]
		op.card = own[w.next[g]%len(own)]
		w.next[g]++
		return op
	}
	op.card = 2*r.Intn((w.n-g+1)/2) + g
	if op.kind == opBuy {
		op.amt = buyAmount(r)
	}
	return op
}

// send pipelines op's requests on session s without waiting.
func (w *wireMix) send(g int, op *wop, s int) {
	op.sess = s
	switch op.kind {
	case opRead:
		op.floor = w.m.maxRead[op.card]
	case opBuy:
		w.m.sent[op.card] += op.amt
	}
	op.calls = pipeline(w.sess[g][s], op.kind, w.refs[op.card], op.amt, w.m.trig[op.card])
}

// pipeline sends one transaction's requests on s without waiting and
// returns their calls; the last is the commit. ref is the card (the
// source for a Kick); trig is the card's armed trigger, for arm churn.
func pipeline(s *server.MuxSession, kind opKind, ref uint64, amt float64, trig uint64) []*server.Call {
	var calls []*server.Call
	switch kind {
	case opRead:
		calls = []*server.Call{
			s.Go(&server.Request{Op: "begin", Snapshot: true}),
			s.Go(&server.Request{Op: "get", Ref: ref}),
		}
	case opArm:
		calls = []*server.Call{
			s.Go(&server.Request{Op: "begin"}),
			s.Go(&server.Request{Op: "deactivate", ID: trig}),
			s.Go(&server.Request{Op: "activate", Ref: ref, Trigger: "DenyCredit"}),
		}
	case opKick:
		calls = []*server.Call{
			s.Go(&server.Request{Op: "begin"}),
			s.Go(&server.Request{Op: "post", Ref: ref, Event: "Kick"}),
		}
	default:
		calls = []*server.Call{
			s.Go(&server.Request{Op: "begin"}),
			s.Go(&server.Request{Op: "invoke", Ref: ref, Method: "Buy", Args: []any{amt}}),
		}
	}
	return append(calls, s.Go(&server.Request{Op: "commit"}))
}

// await waits for every call of a pipelined transaction and returns
// the responses before the first error, and that error.
func await(calls []*server.Call) ([]*server.Response, error) {
	var resps []*server.Response
	for _, c := range calls {
		resp, err := c.Wait()
		if err != nil {
			return resps, err
		}
		resps = append(resps, resp)
	}
	return resps, nil
}

// probeRTT times one synchronous round trip of the cheapest request.
func probeRTT(s *server.MuxSession, t *tally) {
	start := time.Now()
	if _, err := s.Call(&server.Request{Op: "proto"}); err == nil {
		t.rtt.add(time.Since(start))
	}
}

// probeIndex times one direct trigger-index lookup
// (obj.Manager.TriggersOn) of oid in db.
func probeIndex(db *core.Database, oid uint64, t *tally) {
	tx := db.Begin()
	start := time.Now()
	if _, err := db.Objects().TriggersOn(tx, storageOID(oid)); err == nil {
		t.triggersOn.add(time.Since(start))
	}
	tx.Abort()
}

// finish records a completed transaction's outcome and latency.
func (w *wireMix) finish(g int, op *wop, now time.Time, t *tally) {
	t.attempted++
	resps, err := await(op.calls)
	lat := now.Sub(op.due)
	switch op.kind {
	case opRead:
		t.record(&t.read, now, lat)
		var c Card
		if err == nil {
			err = json.Unmarshal(resps[1].Value, &c)
		}
		if err != nil {
			t.failed++
			t.problemf("snapshot read of card %d: %v", op.card, err)
			return
		}
		w.m.noteRead(t, op.card, c.CurrBal, op.floor)
	case opArm:
		t.record(&t.arm, now, lat)
		if err != nil {
			t.failed++
			t.problemf("arm churn on card %d: %v", op.card, err)
			return
		}
		w.tr.noteState(storageOID(w.m.trig[op.card]), false)
		w.m.trig[op.card] = resps[2].ID
		w.tr.noteState(storageOID(resps[2].ID), true)
		t.armChanges += 2
	default:
		t.record(&t.txn, now, lat)
		w.m.noteBuy(t, op.card, op.amt, wireOutcome(err, len(resps), len(op.calls)))
	}
}

// gen is one open-loop generator: Poisson arrivals at wireRate/wireGens
// over its connection's sessions. An arrival waits while every session
// is busy, or while a write on the same card is in flight (two
// concurrent writers of one card would deadlock on the lock upgrade);
// both waits count in its latency.
func (w *wireMix) gen(g int, start, deadline time.Time, traced bool, t *tally) {
	r := w.rngs[g]
	rate := float64(wireRate) / wireGens
	gap := func() time.Duration { return time.Duration(r.ExpFloat64() / rate * float64(time.Second)) }
	next := start.Add(gap())
	free := make([]int, 0, wireSessions)
	for s := wireSessions - 1; s >= 0; s-- {
		free = append(free, s)
	}
	busy := map[int]bool{}
	var pending, inflight []*wop
	var cases []reflect.SelectCase
	sent := 0
	for {
		now := time.Now()
		for next.Before(deadline) && !next.After(now) {
			op := w.newOp(g, r)
			op.due = next
			t.genLate.add(now.Sub(next))
			pending = append(pending, op)
			next = next.Add(gap())
		}
		kept := inflight[:0]
		for _, op := range inflight {
			select {
			case <-op.calls[len(op.calls)-1].Done():
				w.finish(g, op, now, t)
				free = append(free, op.sess)
				if op.kind != opRead {
					delete(busy, op.card)
				}
			default:
				kept = append(kept, op)
			}
		}
		inflight = kept
		waiting := pending[:0]
		for _, op := range pending {
			writes := op.kind != opRead
			if len(free) == 0 || (writes && busy[op.card]) {
				waiting = append(waiting, op)
				continue
			}
			s := free[len(free)-1]
			free = free[:len(free)-1]
			if writes {
				busy[op.card] = true
			}
			w.send(g, op, s)
			inflight = append(inflight, op)
			sent++
			if traced && sent%32 == 0 {
				probeRTT(w.probe[g], t)
				probeIndex(w.db, w.refs[op.card], t)
			}
		}
		pending = waiting
		if !next.Before(deadline) && len(pending) == 0 && len(inflight) == 0 {
			return
		}
		cases = cases[:0]
		for _, op := range inflight {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(op.calls[len(op.calls)-1].Done())})
		}
		var timer *time.Timer
		if next.Before(deadline) {
			timer = time.NewTimer(time.Until(next))
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)})
		}
		reflect.Select(cases)
		if timer != nil {
			timer.Stop()
		}
	}
}

func (w *wireMix) verify() error {
	return joinProblems(w.m.check(func(i int) (cardState, error) {
		return readCard(w.db, core.RefFromOID(storageOID(w.refs[i])))
	}))
}

func (w *wireMix) close() {
	for _, mx := range w.muxes {
		mx.Close()
	}
	w.muxes, w.sess, w.probe = nil, nil, nil
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
