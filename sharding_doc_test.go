package ode_test

import (
	"os"
	"strings"
	"testing"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage/dali"
)

// TestShardingDocCoverage enforces the contract stated in
// docs/SHARDING.md: the shard ops, the fleet CLI flags, and every
// shard.* metric the engine, the forwarder, and the router register
// must appear verbatim in the sharding / observability docs. Adding a
// metric or renaming a flag without documenting it fails CI (the
// `shard` job runs this test by name).
func TestShardingDocCoverage(t *testing.T) {
	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing: %v", path, err)
		}
		return string(raw)
	}
	shardDoc := read("docs/SHARDING.md")
	protoDoc := read("docs/PROTOCOL.md")
	obsDoc := read("docs/OBSERVABILITY.md")

	// The shard ops must be specified in both the protocol reference
	// and the sharding spec.
	for _, op := range []string{"shard.ingest", "shard.status", "trace.rate", "trace.chain"} {
		for path, doc := range map[string]string{"docs/SHARDING.md": shardDoc, "docs/PROTOCOL.md": protoDoc} {
			if !strings.Contains(doc, "`"+op+"`") {
				t.Errorf("op %q is not documented in %s", op, path)
			}
		}
	}

	// The fleet CLI surface: a reader must be able to boot a fleet from
	// the spec alone.
	for _, flag := range []string{"-shard-peers", "-shard-index", "-shard-vnodes", "-shards", "-stream-shard", "-obs-addr"} {
		if !strings.Contains(shardDoc, flag) {
			t.Errorf("flag %q is not documented in docs/SHARDING.md", flag)
		}
	}
	for _, term := range []string{"E24", "BENCH.json", "exactly once", "watermark"} {
		if !strings.Contains(shardDoc, term) {
			t.Errorf("docs/SHARDING.md does not mention %q", term)
		}
	}

	// Every shard.* metric, collected from a live one-shard fleet:
	// engine capture/ingest metrics and forwarder metrics land on the
	// database registry, routing metrics on the router's own.
	ring, err := shard.NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.EnableSharding(ring.OIDFilter(0)); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 1)
	srv := server.NewWithOptions(db, server.Options{ExtraOps: shard.Ops(db, ring, 0, addrs)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addrs[0] = addr
	if _, err := shard.NewForwarder(db, ring, shard.ForwarderOptions{Self: 0, Addrs: addrs}); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(ring, shard.RouterOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	names := db.Observability().Names()
	names = append(names, rt.Observability().Names()...)
	saw, sawRouter := 0, 0
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "shard."):
			saw++
		case strings.HasPrefix(name, "router."):
			sawRouter++
		default:
			continue
		}
		if !strings.Contains(obsDoc, "`"+name+"`") {
			t.Errorf("fleet metric %q is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	if saw == 0 {
		t.Fatal("no shard.* metrics registered; coverage check is vacuous")
	}
	if sawRouter == 0 {
		t.Fatal("no router.* metrics registered; coverage check is vacuous")
	}
}
