// Command ode-router fronts a fleet of shard-mode ode-servers: it
// serves both client protocols (newline JSON and ODE2 binary) on one
// listen port through the same protocol front as ode-server, and
// forwards every op to the shard that owns it on the consistent-hash
// ring (docs/SHARDING.md). repl.* ops are refused: a replica of a shard
// dials that shard.
//
// The shard list and its order are the ring: every router and every
// shard must be started with the identical list, or they will disagree
// about ownership. shard.status reports the topology a router is using
// plus every shard's own status (outbox depth, ingest watermarks):
//
//	{"op":"shard.status"}
//	{"ok":true,"value":{"shards":2,"vnodes":128,"self":-1,"node":"router",
//	                    "addrs":[...],"fleet":[{"self":0,...},{"self":1,...}]}}
//
// The router is also the fleet's observability plane: metrics, trace,
// flight, trace.rate, and trace.chain fan out to every shard and answer
// with merged node-tagged views, proto reports the router's own wire
// counters, and -obs-addr serves the router's own HTTP surface with
// /readyz gated on shard reachability (docs/OBSERVABILITY.md §"Fleet
// observability").
//
// Usage:
//
//	ode-server -mem -addr 127.0.0.1:7101 -shard-peers 127.0.0.1:7101,127.0.0.1:7102 -shard-index 0 &
//	ode-server -mem -addr 127.0.0.1:7102 -shard-peers 127.0.0.1:7101,127.0.0.1:7102 -shard-index 1 &
//	ode-router -addr 127.0.0.1:7047 -shards 127.0.0.1:7101,127.0.0.1:7102
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/shard"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7047", "listen address")
	shards := flag.String("shards", "", "comma-separated shard addresses in ring order (required)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default; must match the shards)")
	maxReq := flag.Int("max-request", server.DefaultMaxRequestBytes, "per-request size cap in bytes")
	dialAttempts := flag.Int("dial-attempts", 10, "backend dial attempts before giving up")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address (router metrics, /healthz, /readyz gated on shard reachability; empty = disabled)")
	flag.Parse()

	if *shards == "" {
		log.Fatal("-shards is required")
	}
	addrs := strings.Split(*shards, ",")
	ring, err := shard.NewRing(len(addrs), *vnodes)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := shard.NewRouter(ring, shard.RouterOptions{
		Addrs:           addrs,
		MaxRequestBytes: *maxReq,
		Client: server.ClientOptions{
			DialAttempts: *dialAttempts,
			RedialBase:   50 * time.Millisecond,
			RedialMax:    2 * time.Second,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if *obsAddr != "" {
		// Readiness is gated on shard reachability: a router whose fleet
		// is unreachable accepts connections but cannot route, so load
		// balancers should not send it traffic.
		health := obs.NewHealth()
		health.SetReadiness("shards", func() error {
			for i, a := range addrs {
				c, err := net.DialTimeout("tcp", a, 2*time.Second)
				if err != nil {
					return fmt.Errorf("shard %d (%s): %v", i, a, err)
				}
				c.Close()
			}
			return nil
		})
		bound, err := obs.Serve(*obsAddr, rt.Observability(), nil, health)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("observability on http://%s (metrics, healthz, readyz, pprof)", bound)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ode-router listening on %s (%d shards, %d vnodes)", ln.Addr(), ring.Shards(), ring.Vnodes())
	go func() {
		if err := rt.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("shutting down")
	rt.Close()
}
