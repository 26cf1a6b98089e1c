package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
)

// E19 measures the log-shipping replication path end to end over real
// TCP: a primary ships its WAL through repl.Hub to a streaming
// repl.Replica. Two shapes are checked. First, replica lag: committers
// at 1/4/16 drive the primary while the replica streams live; the
// replica must drain to zero lag after the run and its store must be
// byte-identical to the primary's committed state (the paper's §5.4.1
// persistent trigger state rides the same log, so byte equality is what
// makes promotion-time FSM resume sound). Second, read scale-out:
// because replicas serve reads from their own store, lock manager, and
// cache, aggregate read throughput should grow — or at minimum not
// collapse — as the same reader population spreads over 1 → 3 nodes.
func (r *Runner) E19() Result {
	res := Result{ID: "E19", Title: "replication: replica lag vs commit rate, read scale-out"}
	r.header("E19", res.Title, "§5.6 (logging), §7 (multi-application sharing)",
		"replica converges to the primary's committed state at every commit rate; read-only replicas add serving capacity")

	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ode-e19-*")
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}

	// --- part 1: replica lag vs commit rate --------------------------------
	totalOps := r.Cfg.scale(2000)
	fmt.Fprintf(r.W, "%-10s %12s %12s %10s %10s\n",
		"committers", "commits/s", "peak lag B", "drain ms", "converged")
	converged := true
	for i, committers := range []int{1, 4, 16} {
		row, err := e19LagRow(filepath.Join(dir, fmt.Sprintf("e19-lag-%d", i)), committers, totalOps)
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		ok := "yes"
		if !row.converged {
			ok = "NO"
			converged = false
		}
		fmt.Fprintf(r.W, "%-10d %12.0f %12d %10.1f %10s\n",
			committers, row.rate, row.peakLag, float64(row.drain.Microseconds())/1000, ok)
	}

	// --- part 2: read throughput with 0/1/2 replicas -----------------------
	reads, err := e19ReadScale(filepath.Join(dir, "e19-read"), r)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	// Spreading the same readers over more nodes must not collapse
	// throughput; the margin absorbs scheduler noise in quick mode.
	speedup, _ := reads.ratio(2)
	scaled := speedup >= 0.8

	res.Passed = converged && scaled
	res.Summary = fmt.Sprintf(
		"replica drained to lag 0 and matched the primary byte-for-byte at 1/4/16 committers (converged=%v); reads 1→3 nodes: %.0f → %.0f/s (×%.2f)",
		converged, reads.median(0), reads.median(2), speedup)
	res.Metrics = map[string]float64{"ratio/nodes=3": speedup}
	return res
}

// e19Primary is one primary node: store, database, hub, stream server.
type e19Primary struct {
	store *eos.Manager
	db    *core.Database
	hub   *repl.Hub
	srv   *server.Server
	addr  string
}

func e19StartPrimary(path string) (*e19Primary, error) {
	store, err := eos.Open(path, eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := db.Register(CredCardClass()); err != nil {
		db.Close()
		return nil, err
	}
	hub := repl.NewHub(store, repl.HubOptions{PingInterval: 20 * time.Millisecond})
	srv := server.NewWithOptions(db, server.Options{
		StreamOps: map[string]server.StreamHandler{repl.OpSubscribe: hub.HandleSubscribe},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		hub.Close()
		db.Close()
		return nil, err
	}
	return &e19Primary{store: store, db: db, hub: hub, srv: srv, addr: addr}, nil
}

func (p *e19Primary) close() {
	p.srv.Close()
	p.hub.Close()
	p.db.Close()
}

// e19StartReplica streams from addr until caught up and returns the
// replica with a read-only database attached.
func e19StartReplica(path, addr string) (*repl.Replica, *core.Database, error) {
	store, err := eos.Open(path, eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return nil, nil, err
	}
	rep, err := repl.NewReplica(addr, store, repl.ReplicaOptions{
		PosPath:    path + ".replpos",
		RedialBase: 2 * time.Millisecond,
		RedialMax:  20 * time.Millisecond,
	})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	rep.Start()
	if err := rep.WaitCaughtUp(20 * time.Second); err != nil {
		rep.Stop()
		store.Close()
		return nil, nil, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		rep.Stop()
		store.Close()
		return nil, nil, err
	}
	if err := db.Register(CredCardClass()); err != nil {
		rep.Stop()
		db.Close()
		return nil, nil, err
	}
	rep.AttachDatabase(db)
	return rep, db, nil
}

type e19Lag struct {
	rate      float64       // primary commits/s during the run
	peakLag   uint64        // max observed replica lag, bytes
	drain     time.Duration // time from last commit to zero lag
	converged bool          // drained AND byte-identical stores
}

func e19LagRow(dir string, committers, totalOps int) (*e19Lag, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := e19StartPrimary(filepath.Join(dir, "p.eos"))
	if err != nil {
		return nil, err
	}
	defer p.close()

	refs := make([]core.Ref, committers)
	for i := range refs {
		if refs[i], err = mustCard(p.db, 1e12); err != nil {
			return nil, err
		}
	}

	rep, rdb, err := e19StartReplica(filepath.Join(dir, "r.eos"), p.addr)
	if err != nil {
		return nil, err
	}
	defer rdb.Close()
	defer rep.Stop()

	// Sample lag while the committers run. Measured against the
	// primary's durable end, not the replica's last-heard end — the
	// replica's own view is stale between frames, which is exactly the
	// window a lag experiment wants to see.
	var peak atomic.Uint64
	stopSample := make(chan struct{})
	var sampleDone sync.WaitGroup
	sampleDone.Add(1)
	go func() {
		defer sampleDone.Done()
		for {
			select {
			case <-stopSample:
				return
			case <-time.After(time.Millisecond):
				end := uint64(p.store.Log().End())
				if applied := rep.Status().AppliedLSN; end > applied && end-applied > peak.Load() {
					peak.Store(end - applied)
				}
			}
		}
	}()

	per := totalOps / committers
	if per < 1 {
		per = 1
	}
	elapsed, err := fanOut(committers, func(w int) error {
		for i := 0; i < per; i++ {
			tx := p.db.Begin()
			if _, err := p.db.Invoke(tx, refs[w], "Buy", 1.0); err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Drain: the replica must apply through the primary's durable log
	// end (Status().LagBytes alone can read 0 against a stale end
	// between frames), then match byte for byte.
	pEnd := uint64(p.store.Log().End())
	drained := func() bool {
		st := rep.Status()
		return st.AppliedLSN >= pEnd && st.LagBytes == 0
	}
	drainStart := time.Now()
	deadline := drainStart.Add(20 * time.Second)
	out := &e19Lag{rate: float64(per*committers) / elapsed.Seconds()}
	for !drained() {
		if time.Now().After(deadline) {
			close(stopSample)
			sampleDone.Wait()
			out.peakLag = peak.Load()
			return out, nil // converged=false: report, let the caller fail the row
		}
		time.Sleep(time.Millisecond)
	}
	out.drain = time.Since(drainStart)
	close(stopSample)
	sampleDone.Wait()
	out.peakLag = peak.Load()
	same, err := e19SameBytes(p.store, rep)
	if err != nil {
		return nil, err
	}
	out.converged = same
	return out, nil
}

// e19SameBytes byte-compares the committed objects of the primary store
// against the replica's.
func e19SameBytes(pm *eos.Manager, rep *repl.Replica) (bool, error) {
	snap := func(m *eos.Manager) (map[storage.OID][]byte, error) {
		out := make(map[storage.OID][]byte)
		err := m.Iterate(func(oid storage.OID, data []byte) error {
			out[oid] = append([]byte(nil), data...)
			return nil
		})
		return out, err
	}
	want, err := snap(pm)
	if err != nil {
		return false, err
	}
	got, err := snap(rep.Store())
	if err != nil {
		return false, err
	}
	if len(want) != len(got) {
		return false, nil
	}
	for oid, w := range want {
		if !bytes.Equal(got[oid], w) {
			return false, nil
		}
	}
	return true, nil
}

// e19ReadScale measures aggregate read throughput with the same reader
// population spread over 1, 2, and 3 serving nodes (primary + 0/1/2
// replicas); arm i of the returned rounds serves from i+1 nodes.
func e19ReadScale(dir string, r *Runner) (*rounds, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := e19StartPrimary(filepath.Join(dir, "p.eos"))
	if err != nil {
		return nil, err
	}
	defer p.close()

	const cards = 16
	refs := make([]core.Ref, cards)
	for i := range refs {
		if refs[i], err = mustCard(p.db, 1000); err != nil {
			return nil, err
		}
	}

	nodes := []*core.Database{p.db}
	for i := 0; i < 2; i++ {
		rep, rdb, err := e19StartReplica(filepath.Join(dir, fmt.Sprintf("r%d.eos", i)), p.addr)
		if err != nil {
			return nil, err
		}
		defer rdb.Close()
		defer rep.Stop()
		nodes = append(nodes, rdb)
	}

	// Sanity: a replica read observes the primary's committed value.
	rt := nodes[2].Begin()
	v, err := nodes[2].Get(rt, refs[0])
	rt.Abort()
	if err != nil {
		return nil, err
	}
	if v.(*CredCard).CredLim != 1000 {
		return nil, fmt.Errorf("e19: replica read CredLim %v, want 1000", v.(*CredCard).CredLim)
	}

	// The three serving sets are the arms of paired rounds over the same
	// nodes; each reader's work is split evenly over the rounds.
	const readers, rounds = 8, 5
	perReader := r.Cfg.scale(4000) / rounds
	rs, err := pairedRounds(rounds, 3, func(arm int, warm bool) (float64, error) {
		serving := nodes[:arm+1]
		elapsed, err := fanOut(readers, func(j int) error {
			db := serving[j%len(serving)]
			for i := 0; i < perReader; i++ {
				tx := db.Begin()
				_, err := db.Get(tx, refs[(j+i)%cards])
				tx.Abort()
				if err != nil {
					return err
				}
			}
			return nil
		})
		return float64(readers*perReader) / elapsed.Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.W, "\n%-9s %6s %12s %8s %8s\n", "replicas", "nodes", "reads/s", "speedup", "noise")
	for arm := range nodes {
		speedup, noise := rs.ratio(arm)
		fmt.Fprintf(r.W, "%-9d %6d %12.0f %8.2f %8.2f\n", arm, arm+1, rs.median(arm), speedup, noise)
	}
	return rs, nil
}
