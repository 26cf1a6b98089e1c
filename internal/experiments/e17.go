package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/fault"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// E17 measures robustness under injected fsync failures. The paper's
// recovery story (§5.6: redo logging, no-steal buffering) is only
// credible if the implementation survives the failures the log exists
// for, so E17 injects them deterministically: fsync fails at 1% and 5%
// rates under the eos WAL while committers run. The store must
// self-heal (truncate back to the durable prefix and continue), acked
// commits must survive a crash, failed commits must vanish, and — the
// trigger-semantics half — detached firings whose system transactions
// hit injected commit failures or forced deadlocks must be retried
// rather than dropped: DetachedDropped stays 0 on the default retry
// budget. dali (no durability wait) is the fault-free ceiling.
func (r *Runner) E17() Result {
	res := Result{ID: "E17", Title: "fault injection: commit throughput and recovery under fsync failures"}
	r.header("E17", res.Title, "§5.6 (durability), §5.5 (detached execution)",
		"eos heals injected fsync failures and loses exactly the unacknowledged suffix; detached trigger firings retry through faults with zero drops")

	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ode-e17-*")
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}

	const committers = 8
	perOps := r.Cfg.scale(3000)

	// dali baseline: no fsync to fail, so one row regardless of rate.
	d := dali.New()
	daliRate, _ := e17Throughput(d, committers, perOps, nil)
	d.Close()

	fmt.Fprintf(r.W, "%-10s %14s %14s %8s %8s %8s %10s\n",
		"fsync fail", "eos commits/s", "dali commits/s", "acked", "failed", "heals", "recovered")
	type row struct {
		rate         float64
		acked, fails int
		heals        uint64
	}
	rows := []row{{rate: 0}, {rate: 0.01}, {rate: 0.05}}
	allRecovered := true
	for i := range rows {
		rw := &rows[i]
		path := filepath.Join(dir, fmt.Sprintf("e17-%02.0f.eos", rw.rate*100))
		s := fault.NewSchedule()
		m, err := eos.Open(path, eos.Options{
			NoAutoCheckpoint: true,
			WALFile:          func(f wal.File) wal.File { return fault.Wrap(f, s) },
		})
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		if rw.rate > 0 {
			s.FailSyncRate(rw.rate, 1717+int64(i))
		}
		var lastAcked [committers]int64
		rate, acked := e17Throughput(m, committers, perOps, &lastAcked)
		st := m.Stats()
		rw.heals = st.WALHeals
		rw.acked = int(acked)
		rw.fails = committers*perOps - rw.acked

		// Crash (abandon m without Close) and reopen, faults gone:
		// exactly the acknowledged prefix must be visible.
		recovered, err := e17VerifyRecovery(path, lastAcked)
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		allRecovered = allRecovered && recovered
		verdict := "ok"
		if !recovered {
			verdict = "FAIL"
		}
		fmt.Fprintf(r.W, "%-10s %14.0f %14.0f %8d %8d %8d %10s\n",
			fmt.Sprintf("%.0f%%", rw.rate*100), rate, daliRate, rw.acked, rw.fails, rw.heals, verdict)
	}

	// Detached self-healing: dependent trigger actions under 5% fsync
	// faults plus deliberately colliding lock orders. Every firing must
	// eventually commit — exactly once, with zero drops.
	rounds := r.Cfg.scale(600)
	det, err := r.e17Detached(filepath.Join(dir, "e17-detached.eos"), rounds)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	fmt.Fprintf(r.W, "detached under 5%% faults + lock collisions: %d firings, %d retries (retryable aborts), %d permanent errors, %d dropped, %d WAL heals\n",
		det.firings, det.retries, det.permanent, det.dropped, det.heals)

	res.Passed = allRecovered && det.dropped == 0 && det.exactlyOnce && rows[2].acked > 0
	res.Summary = fmt.Sprintf(
		"5%%-fault run: %d/%d acked, %d heals, recovery %v; detached: %d firings, %d retries, %d dropped (exactly-once=%v)",
		rows[2].acked, committers*perOps, rows[2].heals, allRecovered,
		det.firings, det.retries, det.dropped, det.exactlyOnce)
	return res
}

// e17Throughput drives committers over disjoint OIDs and returns acked
// commits/s plus the acked count. When lastAcked is non-nil, slot w
// records the highest iteration committer w saw acknowledged as durable
// (the value recovery must reproduce for committer w's object).
func e17Throughput(m storage.Manager, committers, perOps int, lastAcked *[8]int64) (float64, int64) {
	oids := make([]storage.OID, committers)
	for i := range oids {
		oid, err := m.ReserveOID()
		if err != nil {
			panic(err)
		}
		oids[i] = oid
	}
	var txnSeq atomic.Uint64
	var total atomic.Int64
	elapsed, _ := fanOut(committers, func(w int) error {
		for i := 1; i <= perOps; i++ {
			data := []byte(fmt.Sprintf("w%d-i%d", w, i))
			ops := []storage.Op{{Kind: storage.OpWrite, OID: oids[w], Data: data}}
			if err := m.ApplyCommit(txnSeq.Add(1), ops); err != nil {
				continue // injected failure: not acknowledged
			}
			total.Add(1)
			if lastAcked != nil {
				atomic.StoreInt64(&lastAcked[w], int64(i))
			}
		}
		return nil
	})
	return float64(total.Load()) / elapsed.Seconds(), total.Load()
}

// e17VerifyRecovery reopens the crashed store and checks that each
// committer's object holds exactly its last acknowledged write.
func e17VerifyRecovery(path string, lastAcked [8]int64) (bool, error) {
	m, err := eos.Open(path, eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return false, fmt.Errorf("e17: reopen: %w", err)
	}
	defer m.Close()
	ok := true
	for w, last := range lastAcked {
		oid := storage.OID(w + 1) // ReserveOID hands out 1..committers on a fresh store
		got, err := m.Read(oid)
		if last == 0 {
			if err == nil {
				ok = false
			}
			continue
		}
		want := fmt.Sprintf("w%d-i%d", w, last)
		if err != nil || string(got) != want {
			ok = false
		}
	}
	return ok, nil
}

type e17DetachedResult struct {
	firings     uint64
	retries     uint64
	permanent   uint64
	dropped     uint64
	heals       uint64
	exactlyOnce bool
}

// e17Detached runs rounds of paired transactions whose dependent
// trigger actions increment two shared objects in opposite orders (a
// deadlock factory) over an eos store with 5% fsync failures, and
// reports the engine's retry accounting plus an exactly-once check.
func (r *Runner) e17Detached(path string, rounds int) (*e17DetachedResult, error) {
	var pokeRefs, shared [2]core.Ref
	s := fault.NewSchedule()
	store, err := eos.Open(path, eos.Options{
		NoAutoCheckpoint: true,
		WALFile:          func(f wal.File) wal.File { return fault.Wrap(f, s) },
	})
	if err != nil {
		return nil, err
	}
	cls := core.MustClass("E17Pair",
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Poke", func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }),
		core.Method("Incr", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal++
			return nil, nil
		}),
		core.Events("after Poke"),
		core.Trigger("Mirror", "after Poke",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				first, second := shared[0], shared[1]
				if ctx.Self() == pokeRefs[1] {
					first, second = shared[1], shared[0]
				}
				if _, err := ctx.Invoke(first, "Incr"); err != nil {
					return err
				}
				// Hold the first exclusive lock long enough for the
				// opposite-order sibling to grab its own: a deadlock
				// whenever the two firings overlap.
				time.Sleep(100 * time.Microsecond)
				_, err := ctx.Invoke(second, "Incr")
				return err
			},
			core.WithCoupling(core.Dependent), core.Perpetual()),
	)
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	defer db.Close()
	if err := db.Register(cls); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := range pokeRefs {
		if pokeRefs[i], err = db.Create(tx, "E17Pair", &CredCard{}); err != nil {
			return nil, err
		}
		if _, err := db.Activate(tx, pokeRefs[i], "Mirror"); err != nil {
			return nil, err
		}
		if shared[i], err = db.Create(tx, "E17Pair", &CredCard{}); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, fmt.Errorf("e17: detached setup: %w", err)
	}
	s.FailSyncRate(0.05, 4242)

	var committed atomic.Int64
	for round := 0; round < rounds; round++ {
		fanOut(2, func(i int) error {
			tx := db.Begin()
			if _, err := db.Invoke(tx, pokeRefs[i], "Poke"); err != nil {
				tx.Abort()
				return nil
			}
			if tx.Commit() == nil {
				committed.Add(1)
			}
			return nil
		})
	}

	st := db.Stats()
	out := &e17DetachedResult{
		firings:   st.FiredDependent,
		retries:   st.DetachedRetries,
		permanent: st.ActionErrors,
		dropped:   st.DetachedDropped,
		heals:     db.Txns().Store().Stats().WALHeals,
	}
	// Exactly-once: each committed detecting txn fired one action, each
	// action incremented both shared objects exactly once.
	rtx := db.Begin()
	defer rtx.Abort()
	want := float64(committed.Load())
	out.exactlyOnce = true
	for _, ref := range shared {
		v, err := db.Get(rtx, ref)
		if err != nil {
			return nil, err
		}
		if v.(*CredCard).CurrBal != want {
			out.exactlyOnce = false
		}
	}
	return out, nil
}
