package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/storage/dali"
	"ode/internal/txn"
)

// snapCardClass is the E21 fixture: the E8 read-amplification workload
// plus a mutator, so lock-mode readers and 2PL writers can contend on
// the same objects while the perpetual QueryPattern trigger turns every
// Query into a descriptor write.
func snapCardClass() *core.Class {
	return core.MustClass("SnapCard",
		core.Factory(func() any { return new(CredCard) }),
		core.ReadOnlyMethod("Query", func(ctx *core.Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).CurrBal, nil
		}),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		core.Events("after Query", "after Buy"),
		core.Trigger("QueryPattern", "after Query, after Query",
			func(ctx *core.Ctx, self any, act *core.Activation) error { return nil },
			core.Perpetual()),
	)
}

// e21Mode selects how E21 runs its readers.
type e21Mode int

const (
	e21Baseline e21Mode = iota // no triggers, lock-mode readers: the pre-§6 ceiling
	e21Legacy                  // triggers active, lock-mode readers: the §6 collapse
	e21Snapshot                // triggers active, snapshot readers: the MVCC remedy
)

// E21 measures the MVCC snapshot-read remedy for the §6 lock
// amplification E8 demonstrates: with triggers active, lock-mode
// readers collapse (every Query writes the trigger descriptor), while
// snapshot readers — which pin a commit LSN and never touch the lock
// manager — stay within a small factor of the no-trigger baseline and
// can neither wait nor deadlock, even against concurrent 2PL writers.
func (r *Runner) E21() Result {
	res := Result{ID: "E21", Title: "snapshot reads sidestep trigger lock amplification"}
	r.header("E21", res.Title, "§6 (remedy)",
		"read-only transactions over a versioned store keep reader throughput within ~2x of the no-trigger baseline, with zero reader lock waits and deadlocks")

	readerGrid := []int{1, 4, 16, 64}
	writerGrid := []int{0, 1, 8}
	dur := 120 * time.Millisecond
	if r.Cfg.Quick {
		readerGrid = []int{1, 8, 64}
		writerGrid = []int{0, 2}
		dur = 40 * time.Millisecond
	}
	// Each cell's three modes are the arms of paired rounds, each on its
	// own database; a mode's run time is split evenly over the rounds.
	const rounds = 9

	// arm is one mode's database in a grid cell. seg runs its readers
	// and writers for d and returns reader queries/s; aborts counts
	// reader transactions that rolled back (deadlock victims etc.).
	type arm struct {
		db     *core.Database
		seg    func(d time.Duration) (float64, error)
		aborts atomic.Uint64
	}
	newArm := func(m e21Mode, readers, writers int) *arm {
		db, err := core.NewDatabase(dali.New())
		if err != nil {
			panic(err)
		}
		if err := db.Register(snapCardClass()); err != nil {
			panic(err)
		}
		const cards = 4
		refs := make([]core.Ref, cards)
		tx := db.Begin()
		for i := range refs {
			refs[i], err = db.Create(tx, "SnapCard", &CredCard{CredLim: 1e12})
			if err != nil {
				panic(err)
			}
			if m != e21Baseline {
				if _, err := db.Activate(tx, refs[i], "QueryPattern"); err != nil {
					panic(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		db.Locks().ResetStats()

		a := &arm{db: db}
		a.seg = func(d time.Duration) (float64, error) {
			var stop atomic.Bool
			var ops atomic.Uint64
			time.AfterFunc(d, func() { stop.Store(true) })
			elapsed, err := fanOut(readers+writers, func(w int) error {
				rnd := rand.New(rand.NewSource(int64(w)))
				for !stop.Load() {
					if w >= readers { // writer: deadlock victims just retry
						wtx := db.Begin()
						if _, err := db.Invoke(wtx, refs[rnd.Intn(cards)], "Buy", 1.0); err != nil {
							wtx.Abort()
							continue
						}
						_ = wtx.Commit()
						continue
					}
					var rtx *txn.Txn
					var err error
					if m == e21Snapshot {
						if rtx, err = db.BeginSnapshot(); err != nil {
							return err
						}
					} else {
						rtx = db.Begin()
					}
					if _, err = db.Invoke(rtx, refs[rnd.Intn(cards)], "Query"); err != nil {
						rtx.Abort()
						a.aborts.Add(1)
						continue
					}
					if err := rtx.Commit(); err != nil {
						a.aborts.Add(1)
						continue
					}
					ops.Add(1)
				}
				return nil
			})
			return float64(ops.Load()) / elapsed.Seconds(), err
		}
		return a
	}

	fmt.Fprintf(r.W, "%-8s %-8s %14s %14s %14s %8s %12s\n",
		"readers", "writers", "baseline q/s", "2pl+trig q/s", "snapshot q/s", "snap/base", "rdr aborts")
	worstRatio := 1e18
	var snapAborts, idleWaits, idleDeadlocks, snapReadsTotal uint64
	res.Metrics = map[string]float64{}
	for _, readers := range readerGrid {
		for _, writers := range writerGrid {
			arms := []*arm{newArm(e21Baseline, readers, writers), newArm(e21Legacy, readers, writers), newArm(e21Snapshot, readers, writers)}
			rs, err := pairedRounds(rounds, len(arms), func(i int, warm bool) (float64, error) {
				if warm {
					return arms[i].seg(dur / rounds / 4)
				}
				return arms[i].seg(dur / rounds)
			})
			snap := arms[2]
			locks, aborts := snap.db.Locks().Stats(), snap.aborts.Load()
			snapReadsTotal += snap.db.Txns().Stats().SnapshotReads
			for _, a := range arms {
				a.db.Close()
			}
			if err != nil {
				res.Summary = err.Error()
				return res
			}
			ratio, _ := rs.ratio(2)
			if ratio < worstRatio {
				worstRatio = ratio
			}
			snapAborts += aborts
			if writers == 0 {
				// With no writers, snapshot-mode lock traffic must be
				// exactly zero: readers never touch the lock manager.
				idleWaits += locks.Waits
				idleDeadlocks += locks.Deadlocks
				res.Metrics[fmt.Sprintf("ratio/readers=%d", readers)] = ratio
			}
			fmt.Fprintf(r.W, "%-8d %-8d %14.0f %14.0f %14.0f %8.2f %12d\n",
				readers, writers, rs.median(0), rs.median(1), rs.median(2), ratio, aborts)
		}
	}
	res.Passed = worstRatio >= 0.5 && snapAborts == 0 && idleWaits == 0 && idleDeadlocks == 0 && snapReadsTotal > 0
	res.Summary = fmt.Sprintf("worst snapshot/baseline ratio %.2fx, %d reader aborts, %d waits + %d deadlocks in writer-free snapshot cells",
		worstRatio, snapAborts, idleWaits, idleDeadlocks)
	return res
}
