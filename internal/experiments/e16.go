package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
)

// E16 measures commit throughput under concurrency: the group-commit
// claim. The paper's storage substrate must carry "many concurrent
// applications" sharing one database (§7's global events only matter
// then); with one fsync per commit, N committers pay N serialized
// fsyncs, so throughput is flat in N. Group commit coalesces the
// committers that arrive during an in-flight fsync into the next one, so
// eos throughput should *scale* with the committer count — dali (no
// durability wait) is the ceiling. A second table drives the same load
// end-to-end through ode-server with concurrent network clients.
func (r *Runner) E16() Result {
	res := Result{ID: "E16", Title: "group commit: concurrent commit throughput"}
	r.header("E16", res.Title, "§2, §5.6, §7",
		"with group commit, eos commit throughput scales with concurrent committers instead of staying flat at one fsync per commit")

	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ode-e16-*")
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}

	counts := []int{1, 4, 16, 64}
	// Group-commit coalescing needs a moment to reach steady state (the
	// committers must overlap in the durability wait), so E16 keeps a
	// higher quick-mode floor than scale() gives and warms each store up
	// before measuring.
	perCommitter := 4000
	if r.Cfg.Quick {
		perCommitter = 2000
	}
	const rounds = 5

	// committers holds c committers' private OIDs on m (disjoint
	// objects: concurrency control above the storage seam serializes
	// conflicting access). n is each committer's total commits.
	type committers struct {
		m    storage.Manager
		oids []storage.OID
		n    int
	}
	newCommitters := func(m storage.Manager, c int) *committers {
		cs := &committers{m: m, oids: make([]storage.OID, c), n: perCommitter}
		if c == 1 {
			cs.n *= 4 // enough work for a stable single-committer baseline
		}
		for i := range cs.oids {
			oid, err := m.ReserveOID()
			if err != nil {
				panic(err)
			}
			cs.oids[i] = oid
		}
		return cs
	}
	var txnSeq atomic.Uint64
	// drive runs iters ApplyCommit calls per committer and returns
	// commits/s.
	drive := func(cs *committers, iters int) (float64, error) {
		elapsed, err := fanOut(len(cs.oids), func(w int) error {
			payload := make([]byte, 64)
			for i := 0; i < iters; i++ {
				ops := []storage.Op{{Kind: storage.OpWrite, OID: cs.oids[w], Data: payload}}
				if err := cs.m.ApplyCommit(txnSeq.Add(1), ops); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(len(cs.oids)*iters) / elapsed.Seconds(), err
	}

	// The eos arms — one store per committer count — run as paired
	// rounds; each committer's work is split evenly over the rounds.
	stores := make([]*eos.Manager, len(counts))
	arms := make([]*committers, len(counts))
	for i, c := range counts {
		e, err := eos.Open(filepath.Join(dir, fmt.Sprintf("e16-%d.eos", c)), eos.Options{NoAutoCheckpoint: true})
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer e.Close()
		stores[i], arms[i] = e, newCommitters(e, c)
	}
	rs, err := pairedRounds(rounds, len(counts), func(arm int, warm bool) (float64, error) {
		cs := arms[arm]
		if warm {
			return drive(cs, cs.n/10)
		}
		return drive(cs, cs.n/rounds)
	})
	if err != nil {
		res.Summary = err.Error()
		return res
	}

	fmt.Fprintf(r.W, "%-12s %14s %14s %10s %12s %12s\n",
		"committers", "eos commits/s", "dali commits/s", "fsyncs", "batch avg", "batch max")
	for i, c := range counts {
		// dali has no durability wait: its column is the ceiling, one
		// warmed-up run per count.
		d := dali.New()
		cs := newCommitters(d, c)
		drive(cs, cs.n/10)
		daliRate, err := drive(cs, cs.n)
		d.Close()
		if err != nil {
			res.Summary = err.Error()
			return res
		}

		st := stores[i].Stats()
		avg := 0.0
		if st.Fsyncs > 0 {
			avg = float64(st.GroupCommits) / float64(st.Fsyncs)
		}
		fmt.Fprintf(r.W, "%-12d %14.0f %14.0f %10d %12.1f %12d\n",
			c, rs.median(i), daliRate, st.Fsyncs, avg, st.BatchMax)
	}

	// End-to-end: the same concurrency through ode-server's wire protocol
	// (one committing transaction per Buy), eos-backed.
	serverRate, err := r.e16Server(filepath.Join(dir, "e16-server.eos"), 16, r.Cfg.scale(2000))
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	fmt.Fprintf(r.W, "ode-server, 16 concurrent clients over eos: %.0f txn/s\n", serverRate)

	speedup, noise := rs.ratio(2) // counts[2] == 16
	res.Passed = speedup >= 3
	res.Metrics = map[string]float64{"ratio/committers=16": speedup}
	res.Summary = fmt.Sprintf("eos commit throughput %.1fx at 16 committers vs 1 (group commit, noise floor %.2fx); server %d-client load %.0f txn/s",
		speedup, noise, 16, serverRate)
	return res
}

// e16Server starts an in-process ode-server over an eos store and drives
// it with clients concurrent network clients, each committing perOps
// one-Buy transactions against its own card.
func (r *Runner) e16Server(path string, clients, perOps int) (txnPerSec float64, err error) {
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		return 0, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return 0, err
	}
	defer db.Close()
	if err := db.Register(CredCardClass()); err != nil {
		return 0, err
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	refs := make([]uint64, clients)
	setup, err := server.Dial(addr)
	if err != nil {
		return 0, err
	}
	if err := setup.Begin(); err != nil {
		return 0, err
	}
	for i := range refs {
		refs[i], err = setup.Create("CredCard", &CredCard{Holder: "bench", CredLim: 1e12, GoodHist: true})
		if err != nil {
			return 0, err
		}
	}
	if err := setup.Commit(); err != nil {
		return 0, err
	}
	setup.Close()

	conns := make([]*server.Client, clients)
	for i := range conns {
		if conns[i], err = server.Dial(addr); err != nil {
			return 0, err
		}
		defer conns[i].Close()
	}

	elapsed, err := fanOut(clients, func(w int) error {
		c := conns[w]
		for i := 0; i < perOps; i++ {
			if err := c.Begin(); err != nil {
				return err
			}
			if _, err := c.Invoke(refs[w], "Buy", 1.0); err != nil {
				return err
			}
			if err := c.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(clients*perOps) / elapsed.Seconds(), err
}
