package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ode/internal/core"
	"ode/internal/lock"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// armed is the armed-scale workload: an in-process eos disk store with
// the default flush policy (fsync per WAL group commit) and
// auto-checkpoint on, holding 10⁴ cards that each have DenyCredit
// armed — several MiB of objects, trigger states and index buckets
// against eos's 256-page (1 MiB) buffer pool. Closed-loop clients issue
// Buys on uniform keys, a few over-limit Buys DenyCredit must abort,
// arm churn (Deactivate + Activate), and snapshot reads.
//
// Client c owns the cards whose index is c modulo armedClients, so no
// two transactions ever lock the same card: every abort is
// DenyCredit's, and each card's model has one writer.
type armed struct {
	tr    *tracer
	n     int
	db    *core.Database
	cards []core.Ref
	m     *model
	rngs  []*rand.Rand
	next  []int // per client: next card index for arm churn (round robin)
	round int
	// maxOps, when positive, ends each client after that many
	// transactions (tests run the clients one after another to get a
	// deterministic store).
	maxOps int
}

// armedClients is 1. Two closed-loop clients kept both cores of a
// 2-core host busy, so throughput followed how much CPU the host's
// other tenants left: over ten seeds the cores the process got ranged
// from 1.14 to 1.50 and txn_per_s swung by a third. One client uses
// about one core; its throughput then moves only with CPU time per
// operation.
const armedClients = 1

var armedMix = mix{over: 30, arm: 100, read: 200}

func (a *armed) setup(cfg *config, tr *tracer) error {
	a.close()
	a.tr = tr
	a.round++
	dir := filepath.Join(cfg.dir, fmt.Sprintf("armed-%d", a.round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var opts eos.Options
	if cfg.trace {
		opts.WALFile = func(f wal.File) wal.File { return &tracedWAL{File: f, t: tr} }
	}
	m, err := eos.Open(filepath.Join(dir, "cards.eos"), opts)
	if err != nil {
		return err
	}
	var store storage.Manager = m
	if cfg.trace {
		store = wrapStore(m, tr)
	}
	db, err := openDB(store, nil)
	if err != nil {
		return err
	}
	a.db = db
	a.n = cfg.n(10000)
	a.m = newModel(a.n)
	a.cards = make([]core.Ref, a.n)
	a.rngs = make([]*rand.Rand, armedClients)
	a.next = make([]int, armedClients)
	for c := range a.rngs {
		a.rngs[c] = rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))
		a.next[c] = c
	}
	const batch = 250
	for lo := 0; lo < a.n; lo += batch {
		tx := db.Begin()
		for i := lo; i < lo+batch && i < a.n; i++ {
			ref, err := db.Create(tx, "Card", &Card{CredLim: cardLimit})
			if err != nil {
				tx.Abort()
				return err
			}
			id, err := db.Activate(tx, ref, "DenyCredit")
			if err != nil {
				tx.Abort()
				return err
			}
			a.cards[i] = ref
			a.m.trig[i] = uint64(id.OID())
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	for _, oid := range a.m.trig {
		tr.noteState(storageOID(oid), true)
	}
	return nil
}

// openDB opens a database over store with Card registered and a fixed
// provenance node, so persisted cause IDs depend only on the input.
func openDB(store storage.Manager, onBump func(uint64, int)) (*core.Database, error) {
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	db.Causes().SetNode(0xBE)
	if err := db.Register(cardClass(onBump)); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func (a *armed) registries() []*obs.Registry { return []*obs.Registry{a.db.Observability()} }

func (a *armed) run(d time.Duration, traced bool) (*tally, error) {
	ts := make([]*tally, armedClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range ts {
		ts[c] = newTally(start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a.client(c, deadline, traced, ts[c])
		}(c)
	}
	wg.Wait()
	out := mergeAll(start, ts)
	return out, nil
}

// pickCard draws a uniform card among client c's own.
func (a *armed) pickCard(r *rand.Rand, c int) int {
	return armedClients*r.Intn((a.n-c+armedClients-1)/armedClients) + c
}

func (a *armed) client(c int, deadline time.Time, traced bool, t *tally) {
	r := a.rngs[c]
	for ops := 0; time.Now().Before(deadline) && (a.maxOps == 0 || ops < a.maxOps); ops++ {
		kind := armedMix.pick(r)
		var card int
		if kind == opArm {
			card = a.next[c]
			a.next[c] += armedClients
			if a.next[c] >= a.n {
				a.next[c] = c
			}
		} else {
			card = a.pickCard(r, c)
		}
		t.attempted++
		start := time.Now()
		switch kind {
		case opBuy, opOver:
			amt := overAmount
			if kind == opBuy {
				amt = buyAmount(r)
			}
			out := a.buy(card, amt, traced, t)
			now := time.Now()
			a.m.noteBuy(t, card, amt, out)
			t.record(&t.txn, now, now.Sub(start))
		case opArm:
			err := a.churn(card)
			now := time.Now()
			if err != nil {
				t.failed++
				t.problemf("arm churn on card %d: %v", card, err)
			} else {
				t.armChanges += 2
			}
			t.record(&t.arm, now, now.Sub(start))
		case opRead:
			floor := a.m.maxRead[card]
			val, err := a.read(card)
			now := time.Now()
			if err != nil {
				t.failed++
				t.problemf("snapshot read of card %d: %v", card, err)
			} else {
				a.m.noteRead(t, card, val, floor)
			}
			t.record(&t.read, now, now.Sub(start))
		}
		if traced && ops%16 == 0 {
			// The probe reuses this transaction's card: drawing another
			// would shift the rest of the input.
			probeIndex(a.db, uint64(a.cards[card].OID()), t)
		}
	}
}

// buy runs one Buy transaction and classifies how it ended.
func (a *armed) buy(card int, amt float64, traced bool, t *tally) outcome {
	a.m.sent[card] += amt
	tx := a.db.Begin()
	s := time.Now()
	_, err := a.db.Invoke(tx, a.cards[card], "Buy", amt)
	if traced {
		t.invoke.add(time.Since(s))
	}
	if err != nil {
		tx.Abort()
		return failed
	}
	s = time.Now()
	err = tx.Commit()
	if traced {
		t.commit.add(time.Since(s))
	}
	switch {
	case err == nil:
		return committed
	case errors.Is(err, lock.ErrDeadlock):
		return failed
	}
	return aborted
}

// churn deactivates the card's DenyCredit and activates a fresh one in
// one transaction.
func (a *armed) churn(card int) error {
	tx := a.db.Begin()
	old := a.m.trig[card]
	if err := a.db.Deactivate(tx, core.TriggerIDFromOID(storageOID(old))); err != nil {
		tx.Abort()
		return err
	}
	id, err := a.db.Activate(tx, a.cards[card], "DenyCredit")
	if err != nil {
		tx.Abort()
		return err
	}
	a.tr.noteState(id.OID(), true)
	if err := tx.Commit(); err != nil {
		a.tr.noteState(id.OID(), false)
		return err
	}
	a.tr.noteState(storageOID(old), false)
	a.m.trig[card] = uint64(id.OID())
	return nil
}

func (a *armed) read(card int) (float64, error) {
	tx, err := a.db.BeginSnapshot()
	if err != nil {
		return 0, err
	}
	v, err := a.db.Get(tx, a.cards[card])
	if err != nil {
		tx.Abort()
		return 0, err
	}
	bal := v.(*Card).CurrBal
	return bal, tx.Commit()
}

func (a *armed) verify() error {
	return joinProblems(a.m.check(func(i int) (cardState, error) {
		return readCard(a.db, a.cards[i])
	}))
}

// readCard reads a card's committed balance and armed trigger IDs
// in-process.
func readCard(db *core.Database, ref core.Ref) (cardState, error) {
	tx := db.Begin()
	defer tx.Abort()
	v, err := db.Get(tx, ref)
	if err != nil {
		return cardState{}, err
	}
	act, err := db.ActiveTriggers(tx, ref)
	if err != nil {
		return cardState{}, err
	}
	st := cardState{bal: v.(*Card).CurrBal}
	for _, at := range act {
		st.trigs = append(st.trigs, uint64(at.ID.OID()))
	}
	return st, nil
}

func (a *armed) close() {
	if a.db != nil {
		a.db.Close()
		a.db = nil
	}
}
