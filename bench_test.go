// Package-level benchmarks: one testing.B entry per reproduction
// experiment (E1–E16; see DESIGN.md §4 and EXPERIMENTS.md). The paper has
// no numeric tables, so each benchmark regenerates the measurable side of
// one of its claims; cmd/ode-bench prints the full paper-shaped tables
// with baselines side by side.
package ode_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode"
	"ode/internal/baseline/rescan"
	"ode/internal/baseline/sentinel"
	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/fsm"
	"ode/internal/obs"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/workload"
)

// benchCard is the paper's §4 CredCard (see examples/quickstart).
type benchCard struct {
	CredLim  float64
	CurrBal  float64
	GoodHist bool
}

func benchCardClass() *ode.Class {
	return ode.MustClass("CredCard",
		ode.Factory(func() any { return new(benchCard) }),
		ode.Method("Buy", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*benchCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		ode.Method("PayBill", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*benchCard)
			c.CurrBal -= args[0].(float64)
			return nil, nil
		}),
		ode.ReadOnlyMethod("Query", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			return self.(*benchCard).CurrBal, nil
		}),
		ode.Events("after Buy", "after PayBill", "after Query", "BigBuy"),
		ode.Mask("OverLimit", func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			c := self.(*benchCard)
			return c.CurrBal > c.CredLim, nil
		}),
		ode.Mask("MoreCred", func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			c := self.(*benchCard)
			return c.CurrBal > 0.8*c.CredLim && c.GoodHist, nil
		}),
		ode.Trigger("DenyCredit", "after Buy & OverLimit",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error {
				ctx.TAbort()
				return nil
			},
			ode.Perpetual()),
		ode.Trigger("AutoRaiseLimit", "relative((after Buy & MoreCred()), after PayBill)",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil }),
		ode.Trigger("QueryPattern", "after Query, after Query",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil },
			ode.Perpetual()),
	)
}

func benchDB(b *testing.B, activate ...string) (*ode.Database, ode.Ref) {
	b.Helper()
	db, err := ode.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.Register(benchCardClass()); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ref, err := db.Create(tx, "CredCard", &benchCard{CredLim: 1e15, GoodHist: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range activate {
		if _, err := db.Activate(tx, ref, t); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db, ref
}

// --- E1: Figure 1 machine compilation ----------------------------------------

// BenchmarkE1CompileFigure1 compiles the AutoRaiseLimit expression (the
// paper's Figure 1 machine) from source text to extended FSM.
func BenchmarkE1CompileFigure1(b *testing.B) {
	reg := event.NewRegistry()
	ids := map[string]event.ID{
		"BigBuy":        reg.Register("CredCard", event.User("BigBuy")),
		"after PayBill": reg.Register("CredCard", event.After("PayBill")),
		"after Buy":     reg.Register("CredCard", event.After("Buy")),
	}
	alpha := []event.ID{ids["BigBuy"], ids["after PayBill"], ids["after Buy"]}
	opts := fsm.Options{
		Resolve:  func(n *eventexpr.Name) (event.ID, error) { return ids[n.String()], nil },
		Alphabet: alpha,
	}
	parsed := eventexpr.MustParse("relative((after Buy & MoreCred()), after PayBill)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := fsm.Compile(parsed, opts)
		if err != nil || m.NumStates() != 4 {
			b.Fatalf("compile: %v (%d states)", err, m.NumStates())
		}
	}
}

// --- E2: event representation --------------------------------------------------

// BenchmarkE2EventRepInt posts events identified by globally unique
// integers (Ode's representation, §5.2).
func BenchmarkE2EventRepInt(b *testing.B) {
	const total = 512
	r := sentinel.NewIntRegistry(total + 1)
	ids := make([]event.ID, total)
	sink := 0
	for i := range ids {
		ids[i] = event.ID(i + 1)
		r.Subscribe(ids[i], func(event.ID) { sink++ })
	}
	rnd := rand.New(rand.NewSource(1))
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = rnd.Intn(total)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(ids[order[i&(len(order)-1)]])
	}
}

// BenchmarkE2EventRepSentinelTriple posts events identified by Sentinel's
// (class, prototype, modifier) string triples (§7).
func BenchmarkE2EventRepSentinelTriple(b *testing.B) {
	const classes, per = 64, 8
	r := sentinel.NewRegistry()
	var triples []sentinel.EventTriple
	sink := 0
	for c := 0; c < classes; c++ {
		for e := 0; e < per; e++ {
			t := sentinel.EventTriple{
				Class:     fmt.Sprintf("Class%03d", c),
				Prototype: fmt.Sprintf("void member%d(Merchant*, float, const char*)", e),
				Modifier:  "end",
			}
			triples = append(triples, t)
			r.Subscribe(t, func(sentinel.EventTriple) { sink++ })
		}
	}
	rnd := rand.New(rand.NewSource(1))
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = rnd.Intn(len(triples))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(triples[order[i&(len(order)-1)]])
	}
}

// --- E3: trigger overhead only where triggers exist ---------------------------

// BenchmarkE3InvokeNoActiveTriggers measures the fast path: the event is
// declared but no trigger is active, so posting stops at the header bit.
func BenchmarkE3InvokeNoActiveTriggers(b *testing.B) {
	db, ref := benchDB(b)
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3InvokeActiveTrigger measures the slow path with one active
// trigger whose mask is evaluated on every posting.
func BenchmarkE3InvokeActiveTrigger(b *testing.B) {
	db, ref := benchDB(b, "DenyCredit")
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: volatile vs persistent invocation ------------------------------------

// BenchmarkE4VolatileCall is a direct Go method call on a volatile
// object: no wrapper, no events, no trigger machinery (design goal 4).
func BenchmarkE4VolatileCall(b *testing.B) {
	c := &benchCard{CredLim: 1e15}
	buy := func(c *benchCard, amt float64) { c.CurrBal += amt }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buy(c, 1)
	}
}

// BenchmarkE4PersistentInvoke is the same operation through a persistent
// Ref, paying the wrapper path (§5.3).
func BenchmarkE4PersistentInvoke(b *testing.B) {
	db, ref := benchDB(b)
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: FSM vs rescan ----------------------------------------------------------

func e5Env(b *testing.B) (map[string]event.ID, []event.ID, func(*eventexpr.Name) (event.ID, error)) {
	b.Helper()
	reg := event.NewRegistry()
	ids := map[string]event.ID{}
	var alpha []event.ID
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("E%d", i)
		id := reg.Register("Bench", event.User(n))
		ids[n] = id
		alpha = append(alpha, id)
	}
	resolve := func(n *eventexpr.Name) (event.ID, error) { return ids[n.String()], nil }
	return ids, alpha, resolve
}

// BenchmarkE5FSMDetection drives the depth-3 composite expression's FSM.
func BenchmarkE5FSMDetection(b *testing.B) {
	_, alpha, resolve := e5Env(b)
	parsed := eventexpr.MustParse(workload.Expressions(4)[2])
	m, err := fsm.Compile(parsed, fsm.Options{Resolve: resolve, Alphabet: alpha})
	if err != nil {
		b.Fatal(err)
	}
	stream := workload.EventStream(1, 4096, 4)
	evs := make([]event.ID, len(stream))
	for i, e := range stream {
		evs[i] = alpha[e]
	}
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = m.Advance(st, evs[i&4095], nil)
	}
}

// BenchmarkE5RescanDetection is the naive baseline: re-match the same
// expression against the full history on every posting.
func BenchmarkE5RescanDetection(b *testing.B) {
	_, alpha, resolve := e5Env(b)
	parsed := eventexpr.MustParse(workload.Expressions(4)[2])
	stream := workload.EventStream(1, 4096, 4)
	evs := make([]event.ID, len(stream))
	for i, e := range stream {
		evs[i] = alpha[e]
	}
	d, err := rescan.New(parsed, resolve, alpha, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			d.Reset() // bound the quadratic blow-up to a 512-event history
		}
		if _, err := d.Post(evs[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: sparse vs dense transitions -------------------------------------------

func e6Machine(b *testing.B) (*fsm.Machine, []event.ID, event.ID) {
	b.Helper()
	reg := event.NewRegistry()
	// Simulate a 64-class application: the measured class's 8 events sit
	// at the top of the global ID space.
	for c := 1; c < 64; c++ {
		for e := 0; e < 8; e++ {
			reg.Register(fmt.Sprintf("Other%d", c), event.User(fmt.Sprintf("E%d", e)))
		}
	}
	ids := map[string]event.ID{}
	var alpha []event.ID
	var maxID event.ID
	for e := 0; e < 8; e++ {
		n := fmt.Sprintf("E%d", e)
		id := reg.Register("Measured", event.User(n))
		ids[n] = id
		alpha = append(alpha, id)
		maxID = id
	}
	m, err := fsm.Compile(eventexpr.MustParse("E0, E1"), fsm.Options{
		Resolve:  func(n *eventexpr.Name) (event.ID, error) { return ids[n.String()], nil },
		Alphabet: alpha,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, alpha, maxID
}

// BenchmarkE6SparseTransitions advances the sparse-list machine.
func BenchmarkE6SparseTransitions(b *testing.B) {
	m, alpha, _ := e6Machine(b)
	stream := workload.EventStream(1, 4096, len(alpha))
	evs := make([]event.ID, len(stream))
	for i, e := range stream {
		evs[i] = alpha[e]
	}
	b.ReportMetric(float64(m.MemoryFootprint()), "bytes")
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = m.Advance(st, evs[i&4095], nil)
	}
}

// BenchmarkE6DenseMatrix advances the §6 direct-indexed 2-D matrix.
func BenchmarkE6DenseMatrix(b *testing.B) {
	m, alpha, maxID := e6Machine(b)
	d := fsm.NewDenseIndexed(m, maxID)
	stream := workload.EventStream(1, 4096, len(alpha))
	evs := make([]event.ID, len(stream))
	for i, e := range stream {
		evs[i] = alpha[e]
	}
	b.ReportMetric(float64(d.MemoryFootprint()), "bytes")
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = d.Advance(st, evs[i&4095], nil)
	}
}

// --- E7: index lookup against active-trigger count -----------------------------

// BenchmarkE7IndexLookup16 posts to an object with 16 active triggers —
// the §5.1.3 hash-index lookup plus 16 FSM advances.
func BenchmarkE7IndexLookup16(b *testing.B) {
	acts := make([]string, 16)
	for i := range acts {
		acts[i] = "DenyCredit"
	}
	db, ref := benchDB(b, acts...)
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: read-to-write lock amplification --------------------------------------

// BenchmarkE8ReadOnlyNoTrigger runs read-only transactions with no active
// trigger: shared locks only.
func BenchmarkE8ReadOnlyNoTrigger(b *testing.B) {
	db, ref := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Query"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8ReadOnlyWithTrigger runs the same read-only transactions
// with QueryPattern active: every posting writes the trigger descriptor
// (§6's read-to-write amplification), serializing the readers.
func BenchmarkE8ReadOnlyWithTrigger(b *testing.B) {
	db, ref := benchDB(b, "QueryPattern")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Query"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: coupling modes ----------------------------------------------------------

func benchCoupling(b *testing.B, coupling ode.Coupling) {
	b.Helper()
	cls := ode.MustClass("Coupled",
		ode.Factory(func() any { return new(benchCard) }),
		ode.Method("Poke", func(ctx *ode.Ctx, self any, args []any) (any, error) { return nil, nil }),
		ode.Events("after Poke"),
		ode.Trigger("T", "after Poke",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil },
			ode.Perpetual(), ode.WithCoupling(coupling)),
	)
	db, err := ode.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.Register(cls); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Coupled", &benchCard{})
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		b.Fatal(err)
	}
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9CouplingImmediate / Deferred / Dependent / Independent time
// one firing transaction per coupling mode (§4.2).
func BenchmarkE9CouplingImmediate(b *testing.B)   { benchCoupling(b, ode.Immediate) }
func BenchmarkE9CouplingDeferred(b *testing.B)    { benchCoupling(b, ode.Deferred) }
func BenchmarkE9CouplingDependent(b *testing.B)   { benchCoupling(b, ode.Dependent) }
func BenchmarkE9CouplingIndependent(b *testing.B) { benchCoupling(b, ode.Independent) }

// --- E10: storage managers --------------------------------------------------------

func benchStorage(b *testing.B, open func(b *testing.B) *ode.Database) {
	b.Helper()
	db := open(b)
	b.Cleanup(func() { db.Close() })
	if err := db.Register(benchCardClass()); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "CredCard", &benchCard{CredLim: 1e15, GoodHist: true})
	if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
		b.Fatal(err)
	}
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10DaliTxn commits one triggered Buy per iteration on the
// main-memory manager (MM-Ode).
func BenchmarkE10DaliTxn(b *testing.B) {
	benchStorage(b, func(b *testing.B) *ode.Database {
		db, err := ode.OpenMemory()
		if err != nil {
			b.Fatal(err)
		}
		return db
	})
}

// BenchmarkE10EosTxn commits the same transaction on the disk manager
// (WAL fsync per commit).
func BenchmarkE10EosTxn(b *testing.B) {
	benchStorage(b, func(b *testing.B) *ode.Database {
		db, err := ode.OpenDisk(filepath.Join(b.TempDir(), "bench.eos"))
		if err != nil {
			b.Fatal(err)
		}
		return db
	})
}

// --- E11: abort path ---------------------------------------------------------------

// BenchmarkE11Abort measures transaction rollback (write-set discard plus
// trigger-state rollback, §5.5).
func BenchmarkE11Abort(b *testing.B) {
	db, ref := benchDB(b, "AutoRaiseLimit")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: mask cascade ---------------------------------------------------------------

// BenchmarkE12MaskChain8 posts an event through a trigger whose
// expression chains eight masks; all eight evaluate per posting (§5.4.5).
func BenchmarkE12MaskChain8(b *testing.B) {
	opts := []ode.Option{
		ode.Factory(func() any { return new(benchCard) }),
		ode.Method("Poke", func(ctx *ode.Ctx, self any, args []any) (any, error) { return nil, nil }),
		ode.Events("after Poke"),
	}
	expr := "after Poke"
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%d", i)
		opts = append(opts, ode.Mask(name, func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			return true, nil
		}))
		expr += " & " + name
	}
	opts = append(opts, ode.Trigger("T", expr,
		func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil },
		ode.Perpetual()))
	cls := ode.MustClass("Masked", opts...)
	db, err := ode.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.Register(cls); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Masked", &benchCard{})
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		b.Fatal(err)
	}
	tx.Commit()
	btx := db.Begin()
	defer btx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(btx, ref, "Poke"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: compile-every-time ----------------------------------------------------------

// BenchmarkE13RegisterClass binds the full CredCard class — catalog
// registration plus FSM compilation for both triggers (§5.1.3's
// compile-every-program-run decision).
func BenchmarkE13RegisterClass(b *testing.B) {
	cls := benchCardClass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := ode.OpenMemory()
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Register(cls); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// --- E14: persistent vs transient detection -------------------------------------------

// BenchmarkE14PersistentPosting posts through the full engine: index
// lookup, persistent TriggerState advance, write lock — the price of
// global composite events (§7).
func BenchmarkE14PersistentPosting(b *testing.B) {
	db, ref := benchDB(b, "DenyCredit")
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14TransientPosting drives the same compiled machine through a
// Sentinel-style in-memory detector: no persistence, locality only.
func BenchmarkE14TransientPosting(b *testing.B) {
	_, alpha, resolve := e5Env(b)
	m, err := fsm.Compile(eventexpr.MustParse("E0, E1"), fsm.Options{Resolve: resolve, Alphabet: alpha})
	if err != nil {
		b.Fatal(err)
	}
	d := sentinel.NewDetector(m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Post(alpha[i&3]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E15: transaction events ------------------------------------------------------------

// BenchmarkE15TxnEventCommit measures a commit that posts
// before-tcomplete to one interested object (§5.5).
func BenchmarkE15TxnEventCommit(b *testing.B) {
	cls := ode.MustClass("Audited",
		ode.Factory(func() any { return new(benchCard) }),
		ode.Method("Touch", func(ctx *ode.Ctx, self any, args []any) (any, error) { return nil, nil }),
		ode.Events("after Touch", "before tcomplete"),
		ode.Trigger("C", "after Touch, *any, before tcomplete",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil },
			ode.Perpetual()),
	)
	db, err := ode.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.Register(cls); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Audited", &benchCard{})
	if _, err := db.Activate(tx, ref, "C"); err != nil {
		b.Fatal(err)
	}
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Touch"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: group commit -------------------------------------------------------------------

// benchCommitters drives b.N single-op commits through m from c concurrent
// committers on disjoint OIDs (concurrency control above the storage seam
// serializes conflicting object access, so disjointness is the realistic
// multi-application load of §7).
func benchCommitters(b *testing.B, m storage.Manager, c int) {
	b.Helper()
	oids := make([]storage.OID, c)
	for i := range oids {
		oid, err := m.ReserveOID()
		if err != nil {
			b.Fatal(err)
		}
		oids[i] = oid
	}
	var txnSeq atomic.Uint64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < c; w++ {
		n := b.N / c
		if w == 0 {
			n += b.N % c
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			payload := make([]byte, 64)
			for i := 0; i < n; i++ {
				ops := []storage.Op{{Kind: storage.OpWrite, OID: oids[w], Data: payload}}
				if err := m.ApplyCommit(txnSeq.Add(1), ops); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkE16GroupCommit measures commit throughput against committer
// count on both managers. With group commit, eos ns/op should drop as
// committers rise (one fsync covers a whole batch); dali has no
// durability wait and is the ceiling.
func BenchmarkE16GroupCommit(b *testing.B) {
	for _, c := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("eos/committers=%d", c), func(b *testing.B) {
			m, err := eos.Open(filepath.Join(b.TempDir(), "e16.eos"), eos.Options{NoAutoCheckpoint: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { m.Close() })
			benchCommitters(b, m, c)
		})
		b.Run(fmt.Sprintf("dali/committers=%d", c), func(b *testing.B) {
			m := dali.New()
			b.Cleanup(func() { m.Close() })
			benchCommitters(b, m, c)
		})
	}
}

// --- E21: snapshot reads ----------------------------------------------------

// benchE21Readers splits b.N read-only transactions across `readers`
// goroutines. Lock-mode readers with QueryPattern active can deadlock on
// the descriptor write (that collapse is the measurement), so failed
// transactions retry until b.N queries have committed.
func benchE21Readers(b *testing.B, db *ode.Database, ref ode.Ref, readers int, snapshot bool) {
	b.Helper()
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < readers; w++ {
		n := b.N / readers
		if w == 0 {
			n += b.N % readers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for {
					var tx *ode.Txn
					if snapshot {
						var err error
						if tx, err = db.BeginSnapshot(); err != nil {
							b.Error(err)
							return
						}
					} else {
						tx = db.Begin()
					}
					if _, err := db.Invoke(tx, ref, "Query"); err != nil {
						tx.Abort()
						continue
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkE21SnapshotReads measures the MVCC remedy for §6's read-to-write
// lock amplification across reader counts: baseline is lock-mode readers
// with no trigger, 2pl+trig is the E8 collapse (QueryPattern turns every
// Query into a descriptor write), snapshot is lock-free readers pinned to a
// commit LSN. The gated snapshot/baseline ratios come from E21 in
// cmd/ode-bench.
func BenchmarkE21SnapshotReads(b *testing.B) {
	for _, mode := range []struct {
		name     string
		trigger  bool
		snapshot bool
	}{
		{"baseline", false, false},
		{"2pl+trig", true, false},
		{"snapshot", true, true},
	} {
		for _, readers := range []int{1, 8, 64} {
			name := fmt.Sprintf("%s/readers=%d", mode.name, readers)
			b.Run(name, func(b *testing.B) {
				var db *ode.Database
				var ref ode.Ref
				if mode.trigger {
					db, ref = benchDB(b, "QueryPattern")
				} else {
					db, ref = benchDB(b)
				}
				benchE21Readers(b, db, ref, readers, mode.snapshot)
			})
		}
	}
}

// --- E18: observability overhead ----------------------------------------------

// BenchmarkObsOverhead measures the posting hot path (one active trigger,
// mask evaluated every posting — the E3 slow path) under three tracing
// configurations. The acceptance bar for shipping the tracer compiled
// into the path: TracingOff within 2% of the pre-observability E3 number
// — the gate is a single atomic load.
func BenchmarkObsOverhead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rate uint64
	}{
		{"TracingOff", 0},
		{"Sampled1In1024", 1024},
		{"TraceEvery", 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db, ref := benchDB(b, "DenyCredit")
			db.Tracer().SetRate(cfg.rate)
			tx := db.Begin()
			defer tx.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E20: causal provenance overhead -------------------------------------------

// BenchmarkE20Provenance measures the posting hot path with the
// provenance surface (cause-ID assignment + flight recorder) enabled —
// the shipping default — against both switched off. The acceptance bar
// for keeping provenance always on: Enabled within 2% of Disabled; the
// per-posting cost is one atomic load plus one atomic add.
// cmd/ode-bench's E20 measures the same A/B on the concurrent eos
// commit workload.
func BenchmarkE20Provenance(b *testing.B) {
	for _, cfg := range []struct {
		name string
		on   bool
	}{
		{"Enabled", true},
		{"Disabled", false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db, ref := benchDB(b, "DenyCredit")
			db.SetProvenance(cfg.on)
			obs.Flight().SetEnabled(cfg.on)
			b.Cleanup(func() { obs.Flight().SetEnabled(true) })
			tx := db.Begin()
			defer tx.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E19: replication ---------------------------------------------------------

// BenchmarkE19Replication measures replicated commit cost over real TCP:
// the primary ships its WAL through repl.Hub to a streaming repl.Replica
// on 127.0.0.1. Each iteration is one committed Buy on the primary; the
// loop ends with a drain to the primary's durable log end, so ns/op
// amortizes shipping and replica apply on top of the local commit.
func BenchmarkE19Replication(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			dir := b.TempDir()
			db, err := ode.OpenDisk(filepath.Join(dir, "p.eos"))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() })
			if err := db.Register(benchCardClass()); err != nil {
				b.Fatal(err)
			}
			store := db.Store().(*eos.Manager)
			hub := repl.NewHub(store, repl.HubOptions{PingInterval: 10 * time.Millisecond})
			b.Cleanup(hub.Close)
			srv := server.NewWithOptions(db, server.Options{
				StreamOps: map[string]server.StreamHandler{repl.OpSubscribe: hub.HandleSubscribe},
			})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })

			reps := make([]*repl.Replica, replicas)
			for i := range reps {
				rpath := filepath.Join(dir, fmt.Sprintf("r%d.eos", i))
				rstore, err := eos.Open(rpath, eos.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { rstore.Close() })
				rep, err := repl.NewReplica(addr, rstore, repl.ReplicaOptions{
					PosPath:    rpath + ".replpos",
					RedialBase: 2 * time.Millisecond,
					RedialMax:  20 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep.Start()
				b.Cleanup(rep.Stop)
				if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
					b.Fatal(err)
				}
				reps[i] = rep
			}

			tx := db.Begin()
			ref, err := db.Create(tx, "CredCard", &benchCard{CredLim: 1e15})
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			pEnd := uint64(store.Log().End())
			for _, rep := range reps {
				for rep.Status().AppliedLSN < pEnd {
					time.Sleep(100 * time.Microsecond)
				}
			}
			b.StopTimer()
		})
	}
}
