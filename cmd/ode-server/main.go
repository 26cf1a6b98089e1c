// Command ode-server serves an Ode database to concurrent network
// clients — the multi-application deployment in which the paper's
// *global* composite events (§7) matter: transactions from different
// applications jointly advance persistent trigger patterns.
//
// Class definitions are Go code, so — like an O++ application linking the
// object manager (§2) — the server binary carries the schema. This demo
// server exposes the paper's §4 CredCard class; embed your own classes by
// building a variant around internal/server.New.
//
// Usage:
//
//	ode-server -db cards.eos -addr 127.0.0.1:7047
//
// The server speaks two protocols on one port (docs/PROTOCOL.md): the
// newline-delimited JSON below, and — for clients whose first four
// bytes are "ODE2" — a length-prefixed binary framing with request IDs,
// pipelining, and multiplexed sessions. Both are always on.
//
// JSON protocol (one transaction per connection):
//
//	{"op":"begin"}
//	{"op":"create","class":"CredCard","value":{"CredLim":1000,"GoodHist":true}}
//	{"op":"activate","ref":18,"trigger":"AutoRaiseLimit","args":[500]}
//	{"op":"invoke","ref":18,"method":"Buy","args":[900]}
//	{"op":"commit"}
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"ode"
	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
)

// CredCard is the served schema (the paper's §4 class).
type CredCard struct {
	Holder     string
	CredLim    float64
	CurrBal    float64
	GoodHist   bool
	BlackMarks []string
}

func credCardClass() *ode.Class {
	return ode.MustClass("CredCard",
		ode.Factory(func() any { return new(CredCard) }),
		ode.Method("Buy", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return c.CurrBal, nil
		}),
		ode.Method("PayBill", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal -= args[0].(float64)
			return c.CurrBal, nil
		}),
		ode.Method("RaiseLimit", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CredLim += args[0].(float64)
			return nil, nil
		}),
		ode.Method("BlackMark", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.BlackMarks = append(c.BlackMarks, args[0].(string))
			return nil, nil
		}),
		ode.Events("after Buy", "after PayBill", "BigBuy"),
		ode.Mask("OverLimit", func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > c.CredLim, nil
		}),
		ode.Mask("MoreCred", func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > 0.8*c.CredLim && c.GoodHist, nil
		}),
		ode.Trigger("DenyCredit", "after Buy & OverLimit",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error {
				if _, err := ctx.Invoke(ctx.Self(), "BlackMark", "Over Limit"); err != nil {
					return err
				}
				ctx.TAbort()
				return nil
			},
			ode.Perpetual()),
		ode.Trigger("AutoRaiseLimit", "relative((after Buy & MoreCred()), after PayBill)",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "RaiseLimit", act.ArgFloat(0))
				return err
			}),
	)
}

func main() {
	log.SetFlags(0)
	dbPath := flag.String("db", "ode-server.eos", "database file (disk store)")
	addr := flag.String("addr", "127.0.0.1:7047", "listen address")
	mem := flag.Bool("mem", false, "use the main-memory store instead of disk")
	maxReq := flag.Int("max-request", server.DefaultMaxRequestBytes, "per-request size cap in bytes")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle longer than this (0 disables)")
	drain := flag.Duration("drain-timeout", 5*time.Second, "shutdown grace period for in-flight requests")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /traces, /debug/vars, /debug/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	traceRate := flag.Uint64("trace-rate", 0, "record one of every n postings as a firing trace (0 disables)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary ode-server at this address (disk store only)")
	syncTimeout := flag.Duration("sync-timeout", 30*time.Second, "replica mode: how long to wait for the initial catch-up")
	readyLag := flag.Uint64("ready-lag", 1<<20, "replica mode: /readyz reports 503 while replication lag exceeds this many bytes (0 disables the check)")
	verifyEvery := flag.Duration("verify-every", 0, "replica mode: run a standing anti-entropy audit against the primary at this interval (0 disables)")
	autoRepair := flag.Bool("auto-repair", false, "replica mode: let the standing audit repair confirmed divergence in place")
	shardPeers := flag.String("shard-peers", "", "comma-separated listen addresses of every shard in ring order (enables shard mode; docs/SHARDING.md)")
	shardIndex := flag.Int("shard-index", -1, "this shard's index into -shard-peers")
	shardVnodes := flag.Int("shard-vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	flag.Parse()

	opts := server.Options{
		MaxRequestBytes: *maxReq,
		IdleTimeout:     *idle,
		DrainTimeout:    *drain,
	}

	var db *ode.Database
	var err error
	var stopShard func()
	health := obs.NewHealth()
	switch {
	case *shardPeers != "":
		addrs := strings.Split(*shardPeers, ",")
		self := *shardIndex
		if self < 0 || self >= len(addrs) {
			log.Fatalf("-shard-index %d out of range for %d peers", self, len(addrs))
		}
		if *replicaOf != "" {
			log.Fatal("-shard-peers and -replica-of are mutually exclusive")
		}
		ring, err := shard.NewRing(len(addrs), *shardVnodes)
		if err != nil {
			log.Fatal(err)
		}
		// The OID filter must be installed before any user allocation so
		// this shard only ever mints OIDs it owns on the ring.
		var store interface {
			SetOIDFilter(func(uint64) bool)
		}
		var cdb *core.Database
		if *mem {
			m := dali.New()
			store = m
			cdb, err = core.NewDatabase(m)
		} else {
			var m *eos.Manager
			m, err = eos.Open(*dbPath, eos.Options{})
			if err == nil {
				store = m
				cdb, err = core.NewDatabase(m)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		store.SetOIDFilter(ring.OIDFilter(self))
		db = cdb
		if err := db.Register(credCardClass()); err != nil {
			log.Fatal(err)
		}
		if err := cdb.EnableSharding(ring.OIDFilter(self)); err != nil {
			log.Fatal(err)
		}
		fwd, err := shard.NewForwarder(cdb, ring, shard.ForwarderOptions{Self: self, Addrs: addrs})
		if err != nil {
			log.Fatal(err)
		}
		go fwd.Run()
		stopShard = fwd.Stop
		opts.ExtraOps = shard.Ops(cdb, ring, self, addrs)
		log.Printf("shard %d of %d (peers %s)", self, len(addrs), *shardPeers)
	case *replicaOf != "":
		// Replica: sync the store from the primary BEFORE building the
		// database layer, so no local write races the stream; all the
		// catalog and trigger state arrives replicated.
		if *mem {
			log.Fatal("-replica-of requires the disk store (replication ships the WAL)")
		}
		store, err := eos.Open(*dbPath, eos.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := repl.NewReplica(*replicaOf, store, repl.ReplicaOptions{PosPath: *dbPath + ".replpos"})
		if err != nil {
			log.Fatal(err)
		}
		rep.Start()
		log.Printf("syncing from primary %s ...", *replicaOf)
		if err := rep.WaitCaughtUp(*syncTimeout); err != nil {
			log.Fatal(err)
		}
		cdb, err := core.NewDatabase(store)
		if err != nil {
			log.Fatal(err)
		}
		db = cdb
		if err := db.Register(credCardClass()); err != nil {
			log.Fatal(err)
		}
		rep.AttachDatabase(cdb)
		rep.RegisterMetrics(db.Observability())
		opts.PrimaryAddr = *replicaOf
		opts.ExtraOps = map[string]func(*server.Request) *server.Response{
			repl.OpStatus: func(*server.Request) *server.Response {
				return &server.Response{OK: true, Result: rep.Status()}
			},
			repl.OpPromote: func(*server.Request) *server.Response {
				rep.Promote()
				// A primary is ready by definition; drop the lag gate.
				health.SetReadiness("repl_lag", nil)
				log.Println("promoted: now accepting writes")
				return &server.Response{OK: true, Result: rep.Status()}
			},
			repl.OpVerify: func(req *server.Request) *server.Response {
				vopts := repl.VerifyOptions{Repair: req.Repair}
				if req.Class != "" {
					// Scope the audit to one class: the name resolves to the
					// same catalog ID on both sides (the catalog replicates).
					bc, ok := cdb.ClassOf(req.Class)
					if !ok {
						return &server.Response{Error: fmt.Sprintf("verify: unknown class %q", req.Class)}
					}
					vopts.Class = bc.ID
				}
				report, err := rep.Verify(vopts)
				if err != nil {
					return &server.Response{Error: err.Error(), Result: report}
				}
				return &server.Response{OK: true, Result: report}
			},
		}
		if *verifyEvery > 0 {
			go func() {
				for range time.Tick(*verifyEvery) {
					report, err := rep.Verify(repl.VerifyOptions{Repair: *autoRepair})
					switch {
					case err != nil:
						log.Printf("anti-entropy audit: %v (report %+v)", err, report)
					case len(report.Repaired) > 0:
						log.Printf("anti-entropy audit: repaired %d diverged objects %v", len(report.Repaired), report.Repaired)
					}
				}
			}()
		}
		if lagMax := *readyLag; lagMax > 0 {
			health.SetReadiness("repl_lag", func() error {
				st := rep.Status()
				if !st.Promoted && st.LagBytes > lagMax {
					return fmt.Errorf("replication lag %d bytes exceeds %d", st.LagBytes, lagMax)
				}
				return nil
			})
		}
		log.Printf("replica of %s: caught up, serving reads (lag %d bytes)", *replicaOf, rep.Status().LagBytes)
	case *mem:
		if db, err = ode.OpenMemory(); err != nil {
			log.Fatal(err)
		}
		if err := db.Register(credCardClass()); err != nil {
			log.Fatal(err)
		}
	default:
		if db, err = ode.OpenDisk(*dbPath); err != nil {
			log.Fatal(err)
		}
		if err := db.Register(credCardClass()); err != nil {
			log.Fatal(err)
		}
		// A disk primary always serves the replication stream: replicas
		// subscribe with {"op":"repl.subscribe","lsn":N}.
		if eosStore, ok := db.Store().(*eos.Manager); ok {
			hub := repl.NewHub(eosStore, repl.HubOptions{})
			hub.RegisterMetrics(db.Observability())
			defer hub.Close()
			opts.StreamOps = map[string]server.StreamHandler{
				repl.OpSubscribe: hub.HandleSubscribe,
				repl.OpRecon:     hub.HandleRecon,
			}
		}
	}
	defer db.Close()

	db.Tracer().SetRate(*traceRate)
	if *obsAddr != "" {
		bound, err := obs.Serve(*obsAddr, db.Observability(), db.Tracer(), health)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("observability endpoint on http://%s (metrics, traces, flight, healthz, readyz, expvar, pprof)", bound)
	}

	srv := server.NewWithOptions(dbCore(db), opts)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ode-server listening on %s (db: %s, protocols: json+binary)", bound, storeName(*mem, *dbPath))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("shutting down")
	srv.Close()
	if stopShard != nil {
		stopShard()
	}
}

// dbCore unwraps the facade alias (ode.Database = core.Database).
func dbCore(db *ode.Database) *core.Database { return db }

func storeName(mem bool, path string) string {
	if mem {
		return "main-memory (dali)"
	}
	return path
}
