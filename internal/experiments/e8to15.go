package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ode/internal/baseline/sentinel"
	"ode/internal/core"
	"ode/internal/storage/dali"
	"ode/internal/workload"
)

// queryClass builds the E8 fixture: a read-only Query method whose
// "after Query" event drives a perpetual two-step trigger, so every
// posting advances (writes) the trigger descriptor — §6's read-to-write
// amplification in its purest form.
func queryClass() *core.Class {
	return core.MustClass("QueryCard",
		core.Factory(func() any { return new(CredCard) }),
		core.ReadOnlyMethod("Query", func(ctx *core.Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).CurrBal, nil
		}),
		core.Events("after Query"),
		core.Trigger("QueryPattern", "after Query, after Query",
			func(ctx *core.Ctx, self any, act *core.Activation) error { return nil },
			core.Perpetual()),
	)
}

// E8 reproduces the §6 observation: triggers turn read access into write
// access, increasing lock waiting and deadlock likelihood.
func (r *Runner) E8() Result {
	res := Result{ID: "E8", Title: "triggers turn reads into writes (lock amplification)"}
	r.header("E8", res.Title, "§6",
		"object accesses that advance an FSM write the trigger descriptor, so read-mostly workloads wait on locks and deadlock more")

	run := func(withTrigger bool) (opsPerSec float64, waits, deadlocks uint64) {
		db, err := core.NewDatabase(dali.New())
		if err != nil {
			panic(err)
		}
		defer db.Close()
		if err := db.Register(queryClass()); err != nil {
			panic(err)
		}
		const cards = 4
		refs := make([]core.Ref, cards)
		tx := db.Begin()
		for i := range refs {
			refs[i], err = db.Create(tx, "QueryCard", &CredCard{})
			if err != nil {
				panic(err)
			}
			if withTrigger {
				if _, err := db.Activate(tx, refs[i], "QueryPattern"); err != nil {
					panic(err)
				}
			}
		}
		tx.Commit()
		db.Locks().ResetStats()

		workers := 8
		perWorker := r.Cfg.scale(20_000) / workers
		if perWorker < 400 {
			perWorker = 400 // enough overlap for contention to show
		}
		// Failed transactions (deadlock victims) retry until committed,
		// so no worker returns an error.
		elapsed, _ := fanOut(workers, func(w int) error {
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				for {
					tx := db.Begin()
					// Touch two cards per transaction in random order
					// so descriptor writes can deadlock.
					a, b := rnd.Intn(cards), rnd.Intn(cards)
					_, err1 := db.Invoke(tx, refs[a], "Query")
					_, err2 := db.Invoke(tx, refs[b], "Query")
					if err1 != nil || err2 != nil {
						tx.Abort()
						continue
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
			return nil
		})
		st := db.Locks().Stats()
		total := float64(workers * perWorker * 2)
		return total / elapsed.Seconds(), st.Waits, st.Deadlocks
	}

	offOps, offWaits, offDead := run(false)
	onOps, onWaits, onDead := run(true)
	fmt.Fprintf(r.W, "%-18s %14s %10s %10s\n", "configuration", "queries/sec", "waits", "deadlocks")
	fmt.Fprintf(r.W, "%-18s %14.0f %10d %10d\n", "no triggers", offOps, offWaits, offDead)
	fmt.Fprintf(r.W, "%-18s %14.0f %10d %10d\n", "active triggers", onOps, onWaits, onDead)
	res.Passed = onWaits > offWaits && onOps < offOps
	res.Summary = fmt.Sprintf("waits %d→%d, deadlocks %d→%d, throughput %.1fx lower",
		offWaits, onWaits, offDead, onDead, offOps/onOps)
	return res
}

// couplingClass builds a class with one trigger per coupling mode, each
// listening to its own method so modes can be driven independently.
func couplingClass() *core.Class {
	noop := func(ctx *core.Ctx, self any, act *core.Activation) error { return nil }
	method := func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }
	return core.MustClass("Coupled",
		core.Factory(func() any { return new(CredCard) }),
		core.Method("None", method),
		core.Method("Imm", method),
		core.Method("End", method),
		core.Method("Dep", method),
		core.Method("Indep", method),
		core.Events("after Imm", "after End", "after Dep", "after Indep"),
		core.Trigger("TImm", "after Imm", noop, core.Perpetual()),
		core.Trigger("TEnd", "after End", noop, core.Perpetual(), core.WithCoupling(core.Deferred)),
		core.Trigger("TDep", "after Dep", noop, core.Perpetual(), core.WithCoupling(core.Dependent)),
		core.Trigger("TIndep", "after Indep", noop, core.Perpetual(), core.WithCoupling(core.Independent)),
	)
}

// E9 measures the per-transaction cost of each coupling mode and checks
// their §4.2 semantics (the semantics checks live in internal/core tests;
// here we re-verify the headline behaviours through counters).
func (r *Runner) E9() Result {
	res := Result{ID: "E9", Title: "coupling-mode costs"}
	r.header("E9", res.Title, "§4.2, §5.5",
		"immediate fires in-txn; end at commit; dependent/!dependent pay a separate system transaction")

	db, err := core.NewDatabase(dali.New())
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	if err := db.Register(couplingClass()); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Coupled", &CredCard{})
	for _, t := range []string{"TImm", "TEnd", "TDep", "TIndep"} {
		if _, err := db.Activate(tx, ref, t); err != nil {
			res.Summary = err.Error()
			return res
		}
	}
	tx.Commit()

	n := r.Cfg.scale(20_000)
	measure := func(method string) float64 {
		return perOp(n, func(int) {
			tx := db.Begin()
			if _, err := db.Invoke(tx, ref, method, 1.0); err != nil {
				panic(err)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
	}
	rows := []struct {
		label, method string
	}{
		{"no trigger (baseline)", "None"},
		{"immediate", "Imm"},
		{"end (deferred)", "End"},
		{"dependent", "Dep"},
		{"!dependent", "Indep"},
	}
	fmt.Fprintf(r.W, "%-24s %14s\n", "coupling", "ns/txn")
	costs := map[string]float64{}
	for _, row := range rows {
		costs[row.label] = measure(row.method)
		fmt.Fprintf(r.W, "%-24s %14.0f\n", row.label, costs[row.label])
	}
	st := db.Stats()
	sys := db.Txns().Stats().System
	fmt.Fprintf(r.W, "fired: imm=%d end=%d dep=%d indep=%d; system txns=%d\n",
		st.FiredImmediate, st.FiredDeferred, st.FiredDependent, st.FiredIndependent, sys)
	// The pass criterion is the §5.5 semantics: every mode fired once per
	// driving transaction, and each detached firing ran its own system
	// transaction. (The cost table is informative; the paper makes no
	// ordering claim beyond the extra transaction for detached modes.)
	res.Passed = st.FiredImmediate >= uint64(n) && st.FiredDeferred >= uint64(n) &&
		st.FiredDependent >= uint64(n) && st.FiredIndependent >= uint64(n) &&
		sys >= st.FiredDependent+st.FiredIndependent
	res.Summary = fmt.Sprintf("all modes fired %dx; %d system txns for %d detached firings",
		n, sys, st.FiredDependent+st.FiredIndependent)
	return res
}

// E10 runs the credit-card workload over both storage managers: MM-Ode's
// Dali analog versus disk Ode's EOS analog, with the trigger run-time
// byte-identical over both (§5.6).
func (r *Runner) E10() Result {
	res := Result{ID: "E10", Title: "MM-Ode (Dali) vs disk Ode (EOS)"}
	r.header("E10", res.Title, "§2, §5.6",
		"the same trigger run-time runs over both storage managers; the main-memory manager wins on throughput")

	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ode-e10-*")
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}

	n := r.Cfg.scale(20_000)
	ops := workload.CardStream(11, n, 16, workload.DefaultCardMix, 0)

	run := func(name string, db *core.Database) (opsPerSec float64) {
		defer db.Close()
		refs := make([]core.Ref, 16)
		tx := db.Begin()
		var err error
		for i := range refs {
			refs[i], err = db.Create(tx, "CredCard", &CredCard{CredLim: 1e12, GoodHist: true})
			if err != nil {
				panic(err)
			}
			if _, err := db.Activate(tx, refs[i], "DenyCredit"); err != nil {
				panic(err)
			}
		}
		tx.Commit()

		start := time.Now()
		for _, op := range ops {
			tx := db.Begin()
			var err error
			switch op.Kind {
			case workload.OpBuy:
				_, err = db.Invoke(tx, refs[op.Card], "Buy", op.Amount)
			case workload.OpPay:
				_, err = db.Invoke(tx, refs[op.Card], "PayBill", op.Amount)
			case workload.OpBigBuy:
				err = db.PostUserEvent(tx, refs[op.Card], "BigBuy")
			default:
				_, err = db.Invoke(tx, refs[op.Card], "GoodCredHist")
			}
			if err != nil {
				panic(err)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start)
		st := db.Store().Stats()
		fmt.Fprintf(r.W, "%-6s %12.0f txn/s   (page writes %d, WAL %dKB)\n",
			name, float64(n)/elapsed.Seconds(), st.PageWrites, st.LogBytes/1024)
		return float64(n) / elapsed.Seconds()
	}

	memdb, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	daliOps := run("dali", memdb)
	diskdb, err := diskDB(filepath.Join(dir, "e10.eos"))
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	eosOps := run("eos", diskdb)

	res.Passed = daliOps > eosOps
	res.Summary = fmt.Sprintf("dali %.1fx faster than eos on the credit-card mix", daliOps/eosOps)
	return res
}

// E11 verifies §5.5 rollback semantics and measures abort cost: trigger
// FSM state rolls back with the transaction; only !dependent actions
// survive.
func (r *Runner) E11() Result {
	res := Result{ID: "E11", Title: "trigger-state rollback on abort"}
	r.header("E11", res.Title, "§5.5",
		"aborted transactions roll back trigger state; !dependent actions still execute in a system transaction")

	db, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	ref, err := mustCard(db, 1000)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()

	// Arm inside an aborted transaction; a later PayBill must not fire.
	tx = db.Begin()
	if _, err := db.Invoke(tx, ref, "Buy", 900.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Abort()
	tx = db.Begin()
	if _, err := db.Invoke(tx, ref, "PayBill", 10.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	rtx := db.Begin()
	v, _ := db.Get(rtx, ref)
	limitAfter := v.(*CredCard).CredLim
	rtx.Abort()
	rolledBack := limitAfter == 1000
	fmt.Fprintf(r.W, "armed-then-aborted pattern did not fire: %v (limit %v)\n", rolledBack, limitAfter)

	// Abort vs commit latency for a single-Invoke transaction.
	n := r.Cfg.scale(20_000)
	commitNs := perOp(n, func(int) {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "GoodCredHist"); err != nil {
			panic(err)
		}
		tx.Commit()
	})
	abortNs := perOp(n, func(int) {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "GoodCredHist"); err != nil {
			panic(err)
		}
		tx.Abort()
	})
	fmt.Fprintf(r.W, "commit %0.f ns/txn, abort %0.f ns/txn\n", commitNs, abortNs)

	res.Passed = rolledBack
	res.Summary = fmt.Sprintf("FSM state rolled back; abort costs %.2fx of commit", abortNs/commitNs)
	return res
}

// E12 measures mask-cascade quiescence cost against chain length
// (§5.4.5: "Potentially, multiple mask events must be posted before the
// system quiesces").
func (r *Runner) E12() Result {
	res := Result{ID: "E12", Title: "mask cascade cost"}
	r.header("E12", res.Title, "§5.1.2, §5.4.5",
		"a posting may cascade through several mask states; cost grows linearly with pending masks")

	n := r.Cfg.scale(50_000)
	fmt.Fprintf(r.W, "%-8s %12s %18s\n", "masks", "ns/Invoke", "masks/posting")
	costs := map[int]float64{}
	ok := true
	for _, k := range []int{1, 2, 4, 8, 16} {
		opts := []core.Option{
			core.Factory(func() any { return new(CredCard) }),
			core.Method("Poke", func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }),
			core.Events("after Poke"),
		}
		expr := "after Poke"
		for i := 0; i < k; i++ {
			name := fmt.Sprintf("m%d", i)
			opts = append(opts, core.Mask(name, func(ctx *core.Ctx, self any, act *core.Activation) (bool, error) {
				return true, nil
			}))
			expr += " & " + name
		}
		opts = append(opts, core.Trigger("T", expr,
			func(ctx *core.Ctx, self any, act *core.Activation) error { return nil },
			core.Perpetual()))
		cls := core.MustClass(fmt.Sprintf("Masked%d", k), opts...)

		db, err := core.NewDatabase(dali.New())
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		if err := db.Register(cls); err != nil {
			db.Close()
			res.Summary = err.Error()
			return res
		}
		tx := db.Begin()
		ref, _ := db.Create(tx, cls.Name(), &CredCard{})
		if _, err := db.Activate(tx, ref, "T"); err != nil {
			db.Close()
			res.Summary = err.Error()
			return res
		}
		tx.Commit()
		db.ResetStats()
		btx := db.Begin()
		costs[k] = bestOp(n, func(int) {
			if _, err := db.Invoke(btx, ref, "Poke"); err != nil {
				panic(err)
			}
		})
		btx.Commit()
		evaluated := db.Stats().MasksEvaluated
		perPosting := float64(evaluated) / float64(db.Stats().EventsPosted)
		fmt.Fprintf(r.W, "%-8d %12.0f %14.1f\n", k, costs[k], perPosting)
		// The §5.4.5 claim is semantic: every posting cascades through
		// the whole pending-mask chain before quiescing.
		if perPosting < float64(k) {
			ok = false
		}
		db.Close()
	}
	res.Passed = ok
	res.Summary = fmt.Sprintf("every posting evaluates the full chain; 16 masks cost %.1fx of 1", costs[16]/costs[1])
	return res
}

// E13 measures FSM compilation cost — the §5.1.3 decision to compile
// machines on every program run instead of persisting them (avoiding a
// central trigger database) is viable only if compilation is cheap.
func (r *Runner) E13() Result {
	res := Result{ID: "E13", Title: "compile-FSMs-every-time cost"}
	r.header("E13", res.Title, "§5.1.3",
		"compiling event expressions to FSMs at class-registration time is cheap enough to avoid persisting machines")

	n := r.Cfg.scale(10_000)
	fmt.Fprintf(r.W, "%-40s %14s\n", "expression", "compile µs")
	var worst float64
	exprs := []string{
		"after Buy",
		"after Buy & OverLimit",
		"relative((after Buy & MoreCred()), after PayBill)",
		"*(after Buy || BigBuy), after PayBill & OverLimit, after Buy",
	}
	for _, src := range exprs {
		cls := CredCardClass()
		// Compile via a fresh database registration each time would
		// include catalog work; time the per-trigger compile by building
		// the class's machines through Register on a throwaway database.
		us := perOp(n, func(int) {
			db, err := core.NewDatabase(dali.New())
			if err != nil {
				panic(err)
			}
			if err := db.Register(cls); err != nil {
				panic(err)
			}
			db.Close()
		}) / 1000
		_ = src
		if us > worst {
			worst = us
		}
		fmt.Fprintf(r.W, "%-40s %14.1f (class: 2 triggers + catalog)\n", src[:min(len(src), 40)], us)
		break // the class registers all triggers at once; one row suffices
	}
	// Also: a 32-trigger class.
	opts := []core.Option{
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Poke", func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }),
		core.Events("after Poke", "U0", "U1", "U2"),
	}
	for i := 0; i < 32; i++ {
		opts = append(opts, core.Trigger(fmt.Sprintf("T%d", i),
			"relative((after Poke || U0), U1, *U2, after Poke)",
			func(ctx *core.Ctx, self any, act *core.Activation) error { return nil }))
	}
	wide := core.MustClass("Wide32", opts...)
	us32 := perOp(n/4+1, func(int) {
		db, err := core.NewDatabase(dali.New())
		if err != nil {
			panic(err)
		}
		if err := db.Register(wide); err != nil {
			panic(err)
		}
		db.Close()
	}) / 1000
	fmt.Fprintf(r.W, "%-40s %14.1f\n", "class with 32 composite triggers", us32)
	// "Cheap enough" means a negligible slice of program start-up; the
	// generous bound keeps the check meaningful under instrumented
	// (-race, coverage) test runs too.
	res.Passed = us32 < 50_000 // well under 50ms per program start
	res.Summary = fmt.Sprintf("32-trigger class binds in %.0fµs — compile-every-time is cheap", us32)
	return res
}

// E14 contrasts Ode's persistent (global) trigger state with Sentinel's
// transient (local) detection (§7): the capability check and the price.
func (r *Runner) E14() Result {
	res := Result{ID: "E14", Title: "global (persistent) vs local (transient) composite events"}
	r.header("E14", res.Title, "§7",
		"Ode stores TriggerStates in the database, so composite events span applications; Sentinel's transient detector cannot")

	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ode-e14-*")
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "e14.eos")

	// Capability: arm in "process 1", fire in "process 2".
	db1, err := diskDB(path)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	ref, err := mustCard(db1, 1000)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	tx := db1.Begin()
	if _, err := db1.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	tx = db1.Begin()
	if _, err := db1.Invoke(tx, ref, "Buy", 900.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	db1.Close()

	db2, err := diskDB(path)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	tx = db2.Begin()
	if _, err := db2.Invoke(tx, ref, "PayBill", 100.0); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	rtx := db2.Begin()
	v, _ := db2.Get(rtx, ref)
	odeGlobal := v.(*CredCard).CredLim == 1500
	rtx.Abort()
	db2.Close()
	fmt.Fprintf(r.W, "Ode: pattern armed in process 1 fired in process 2: %v\n", odeGlobal)

	// Sentinel: restarting the detector loses the armed state.
	memdb, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer memdb.Close()
	bc, _ := memdb.ClassOf("CredCard")
	bt, _ := bc.TriggerByName("AutoRaiseLimit")
	buyID, _ := bc.EventID("after Buy")
	payID, _ := bc.EventID("after PayBill")
	alwaysTrue := func(string) (bool, error) { return true, nil }
	d1 := sentinel.NewDetector(bt.Machine, alwaysTrue)
	if _, err := d1.Post(buyID); err != nil {
		res.Summary = err.Error()
		return res
	}
	d2 := sentinel.NewDetector(bt.Machine, alwaysTrue) // "restart"
	sentinelFired, err := d2.Post(payID)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	fmt.Fprintf(r.W, "Sentinel-style transient detector fired across restart: %v\n", sentinelFired)

	// The price of globality: persistent posting vs transient posting.
	n := r.Cfg.scale(200_000)
	mref, err := mustCard(memdb, 1e12)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	tx = memdb.Begin()
	if _, err := memdb.Activate(tx, mref, "DenyCredit"); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	btx := memdb.Begin()
	persistentNs := perOp(n/10, func(int) {
		if _, err := memdb.Invoke(btx, mref, "Buy", 1.0); err != nil {
			panic(err)
		}
	})
	btx.Commit()
	d := sentinel.NewDetector(bt.Machine, alwaysTrue)
	transientNs := perOp(n, func(int) {
		if _, err := d.Post(buyID); err != nil {
			panic(err)
		}
	})
	fmt.Fprintf(r.W, "persistent posting %0.f ns/ev vs transient %0.f ns/ev (%.0fx — the price of global events)\n",
		persistentNs, transientNs, persistentNs/transientNs)

	res.Passed = odeGlobal && !sentinelFired
	res.Summary = fmt.Sprintf("Ode global=%v, transient baseline global=%v; globality costs %.0fx per posting",
		odeGlobal, sentinelFired, persistentNs/transientNs)
	return res
}

// E15 checks the transaction-event design decisions: before-tcomplete
// posts exactly once per interested object per transaction; before-tabort
// only on explicit aborts; after-tcommit and after-tabort are rejected
// (§5.5, §6).
func (r *Runner) E15() Result {
	res := Result{ID: "E15", Title: "transaction-event semantics"}
	r.header("E15", res.Title, "§5.5, §6",
		"before-tcomplete/tabort post once per interested object; after-tcommit/tabort were dropped from the design")

	completes, aborts := 0, 0
	cls := core.MustClass("Audited",
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Touch", func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }),
		core.Events("after Touch", "before tcomplete", "before tabort"),
		// Both composites require a Touch first: a system transaction
		// that merely runs a detached action (and thus also posts
		// tcomplete to the object it accessed) must not count.
		core.Trigger("C", "after Touch, *any, before tcomplete",
			func(ctx *core.Ctx, self any, act *core.Activation) error { completes++; return nil },
			core.Perpetual()),
		core.Trigger("A", "after Touch, *any, before tabort",
			func(ctx *core.Ctx, self any, act *core.Activation) error { aborts++; return nil },
			core.Perpetual(), core.WithCoupling(core.Independent)),
	)
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	if err := db.Register(cls); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Audited", &CredCard{})
	db.Activate(tx, ref, "C")
	db.Activate(tx, ref, "A")
	tx.Commit()
	completes, aborts = 0, 0

	// One committing transaction with three accesses: exactly one
	// tcomplete.
	tx = db.Begin()
	for i := 0; i < 3; i++ {
		if _, err := db.Invoke(tx, ref, "Touch"); err != nil {
			res.Summary = err.Error()
			return res
		}
	}
	tx.Commit()
	onceOK := completes == 1 && aborts == 0
	fmt.Fprintf(r.W, "3 accesses, 1 commit -> tcomplete posted %d time(s), tabort %d\n", completes, aborts)

	// One explicit abort: exactly one tabort (surviving via !dependent).
	completes, aborts = 0, 0
	tx = db.Begin()
	if _, err := db.Invoke(tx, ref, "Touch"); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Abort()
	abortOK := aborts == 1 && completes == 0
	fmt.Fprintf(r.W, "explicit abort -> tabort posted %d time(s), tcomplete %d\n", aborts, completes)

	// Dropped events rejected.
	_, err1 := core.NewClass("BadA", core.Factory(func() any { return new(CredCard) }), core.Events("after tabort"))
	_, err2 := core.NewClass("BadB", core.Factory(func() any { return new(CredCard) }), core.Events("after tcommit"))
	droppedOK := err1 != nil && err2 != nil
	fmt.Fprintf(r.W, "after tabort / after tcommit rejected at class build: %v\n", droppedOK)

	res.Passed = onceOK && abortOK && droppedOK
	res.Summary = "exactly-once posting and dropped-event rejection hold"
	return res
}
