// Command ode-inspect dumps the physical and trigger-level contents of an
// Ode database file without needing the application's class definitions:
// the catalog, every object envelope (class, flags, payload preview),
// every persistent TriggerState (§5.4.1), and the object→trigger index.
//
// It also prints every registered storage/txn/lock counter, derived
// generically from the obs.Registry, so a counter added to any Stats
// struct shows up here without a hand-written print line.
//
// With -traces it instead connects to a running ode-server and exports
// the firing-trace ring as JSON (the server's "trace" op):
//
//	ode-inspect -traces 127.0.0.1:7047 [-rate 16]
//
// With -repl it connects to a running replica ode-server and prints its
// replication status — applied LSN, lag bytes, reconnects (the server's
// "repl.status" op):
//
//	ode-inspect -repl 127.0.0.1:7048
//
// With -flight it fetches the server's always-on flight recorder: the
// ring of recent structured incidents (commits, WAL heals, detached
// retries/drops, action panics, replica redials, promotions), each with
// its causal-provenance IDs (the server's "flight" op):
//
//	ode-inspect -flight 127.0.0.1:7047
//
// With -chain it reconstructs the cause chain rooted at a cause ID: it
// fetches flat chain events (the "trace.chain" op, raw form) from every
// listed address — a router answers for its whole fleet; add replica
// addresses to fold in their traces too — and prints the assembled
// parent-linked tree as JSON:
//
//	ode-inspect -chain 00000000000000a0-17 127.0.0.1:7047 [addr...]
//
// With -verify it runs an anti-entropy divergence audit on a running
// replica ode-server (the server's "repl.verify" op) and prints the
// VerifyReport; add -repair to authorize rewriting confirmed-divergent
// objects in place from the primary's images:
//
//	ode-inspect -verify 127.0.0.1:7048 [-repair]
//
// With -wire it asks a running ode-server which protocol the connection
// negotiated and prints the server's wire counters — frames, bytes,
// connections per protocol (the server's "proto" op), over the ODE2
// binary protocol. Pointed at an ode-router it prints the router's own
// front counters:
//
//	ode-inspect -wire 127.0.0.1:7047
//
// Usage:
//
//	ode-inspect [-v] file.eos
//	ode-inspect -traces addr [-rate n]
//	ode-inspect -repl addr
//	ode-inspect -flight addr
//	ode-inspect -chain cause-id addr [addr...]
//	ode-inspect -verify addr [-repair]
//	ode-inspect -wire addr
package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strings"

	"ode/internal/core"
	"ode/internal/lock"
	"ode/internal/obj"
	"ode/internal/obs"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/txn"
)

func main() {
	log.SetFlags(0)
	verbose := flag.Bool("v", false, "print full payloads")
	traces := flag.String("traces", "", "fetch firing traces as JSON from a running ode-server at this address")
	rate := flag.Int64("rate", 0, "with -traces: >0 sets 1-in-n trace sampling on the server, <0 disables it")
	replAddr := flag.String("repl", "", "fetch replication status as JSON from a running replica ode-server at this address")
	flightAddr := flag.String("flight", "", "fetch the flight-recorder incident ring as JSON from a running ode-server at this address")
	verifyAddr := flag.String("verify", "", "run an anti-entropy divergence audit on a running replica ode-server at this address (the server's \"repl.verify\" op)")
	repair := flag.Bool("repair", false, "with -verify: authorize in-place repair of confirmed divergence")
	verifyClass := flag.String("class", "", "with -verify: scope the audit to one class by name")
	wireAddr := flag.String("wire", "", "print the negotiated protocol and wire counters of a running ode-server at this address (the server's \"proto\" op)")
	chainCause := flag.String("chain", "", "assemble the cause chain rooted at this cause ID from the addresses given as arguments (the servers' \"trace.chain\" op)")
	flag.Parse()
	if *chainCause != "" {
		if flag.NArg() < 1 {
			log.Fatal("usage: ode-inspect -chain cause-id addr [addr...]")
		}
		if err := fetchChain(*chainCause, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *traces != "" {
		req := map[string]any{"op": "trace"}
		if *rate != 0 {
			req["rate"] = *rate
		}
		if err := fetchJSON(*traces, req); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *replAddr != "" {
		if err := fetchJSON(*replAddr, map[string]any{"op": repl.OpStatus}); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *flightAddr != "" {
		if err := fetchJSON(*flightAddr, map[string]any{"op": "flight"}); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *wireAddr != "" {
		if err := fetchWire(*wireAddr); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *verifyAddr != "" {
		// Unlike the other fetch modes, a failed audit still carries a
		// report (which OIDs diverged), so print it before failing.
		if err := fetchVerify(*verifyAddr, *repair, *verifyClass); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: ode-inspect [-v] file.eos  |  ode-inspect -traces addr [-rate n]  |  ode-inspect -repl addr  |  ode-inspect -flight addr  |  ode-inspect -verify addr [-repair]  |  ode-inspect -wire addr")
	}
	store, err := eos.Open(flag.Arg(0), eos.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	lm := lock.NewManager()
	tm := txn.NewManager(store, lm)
	om, err := obj.New(tm)
	if err != nil {
		log.Fatal(err)
	}
	tx := tm.Begin()
	defer tx.Abort()

	classNames, err := om.ClassNames(tx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d classes\n", len(classNames))
	ids := make([]int, 0, len(classNames))
	for id := range classNames {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  class %d: %s\n", id, classNames[uint32(id)])
	}

	// Walk every stored object, classifying by shape.
	type objRow struct {
		oid   storage.OID
		class string
		flags string
		size  int
		body  string
	}
	var objects, trigs []objRow
	err = store.Iterate(func(oid storage.OID, data []byte) error {
		if oid < obj.FirstUserOID {
			return nil // catalog and index buckets
		}
		// TriggerStates are bare JSON; objects have envelopes.
		if h, payload, err := obj.DecodeEnvelope(data); err == nil {
			if name, ok := classNames[h.ClassID]; ok {
				var flags []string
				if h.Flags&obj.FlagHasTriggers != 0 {
					flags = append(flags, "triggers")
				}
				if h.Flags&obj.FlagTxnEvents != 0 {
					flags = append(flags, "txn-events")
				}
				objects = append(objects, objRow{
					oid: oid, class: name, flags: strings.Join(flags, ","),
					size: len(payload), body: preview(payload, *verbose),
				})
				return nil
			}
		}
		var ts struct {
			TriggerName string `json:"trigger_name"`
			ObjOID      uint64 `json:"obj_oid"`
			StateNum    int32  `json:"state_num"`
			OwnerClass  uint32 `json:"owner_class"`
			Args        []any  `json:"args"`
		}
		if json.Unmarshal(data, &ts) == nil && ts.TriggerName != "" {
			trigs = append(trigs, objRow{
				oid:   oid,
				class: classNames[ts.OwnerClass],
				body: fmt.Sprintf("%s on obj %d, state %d, args %v",
					ts.TriggerName, ts.ObjOID, ts.StateNum, ts.Args),
			})
			return nil
		}
		var cl struct {
			Name    string
			Members []uint64
		}
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&cl) == nil && cl.Name != "" {
			objects = append(objects, objRow{
				oid: oid, class: "(cluster)", size: len(data),
				body: fmt.Sprintf("%q: %d members %v", cl.Name, len(cl.Members), cl.Members),
			})
			return nil
		}
		objects = append(objects, objRow{oid: oid, class: "?", size: len(data), body: preview(data, *verbose)})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	sortRows := func(rows []objRow) {
		sort.Slice(rows, func(i, j int) bool { return rows[i].oid < rows[j].oid })
	}
	sortRows(objects)
	sortRows(trigs)

	fmt.Printf("\nobjects: %d\n", len(objects))
	for _, o := range objects {
		fmt.Printf("  oid %-5d %-12s %-18s %5dB  %s\n", o.oid, o.class, "["+o.flags+"]", o.size, o.body)
	}
	fmt.Printf("\ntrigger states: %d\n", len(trigs))
	for _, o := range trigs {
		fmt.Printf("  oid %-5d (class %s) %s\n", o.oid, o.class, o.body)
	}

	// Version-store summary (MVCC snapshot reads): the full counters are
	// in the generic stats below as obj.versions_*; this line pulls out
	// what an operator actually checks — chain pressure, GC progress, and
	// whether a forgotten pin is holding versions alive.
	vs := store.VersionStats()
	fmt.Printf("\nversion store: snapshot lsn %d, %d chains (%d versions live, longest %d), %d trimmed over %d gc runs, %d pins (oldest pinned lsn %d)\n",
		store.SnapshotLSN(), vs.VersionsChains, vs.VersionsLive, vs.VersionsChainMax,
		vs.VersionsTrimmed, vs.VersionsGcRuns, vs.VersionsPins, vs.VersionsOldestPinLsn)

	// Every subsystem counter, listed generically from the registry: a
	// counter added to storage/txn/lock Stats appears here (and in the
	// server's /metrics) without a hand-written print line.
	reg := obs.NewRegistry()
	core.RegisterSubsystems(reg, store, tm, lm)
	fmt.Printf("\nstats:\n")
	for _, m := range reg.Snapshot() {
		switch m.Kind {
		case obs.KindHistogram:
			fmt.Printf("  %-28s count=%d sum=%d p50=%d p99=%d %s\n", m.Name, m.Count, m.Sum, m.P50, m.P99, m.Unit)
		default:
			fmt.Printf("  %-28s %12d %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// fetchChain collects flat chain events from every address (a router
// answers for its whole fleet; replicas can be listed alongside),
// assembles the tree for the root cause locally, and prints it as
// indented JSON. Assembling client-side instead of trusting one
// server's tree is what lets the chain span processes no single router
// fronts.
func fetchChain(cause string, addrs []string) error {
	if _, ok := obs.ParseCause(cause); !ok {
		return fmt.Errorf(`invalid cause ID %q (want the "%%016x-%%d" form, e.g. 00000000000000a0-17)`, cause)
	}
	var evs []obs.ChainEvent
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		err = func() error {
			defer conn.Close()
			if err := json.NewEncoder(conn).Encode(map[string]any{"op": "trace.chain", "raw": true}); err != nil {
				return err
			}
			line, err := bufio.NewReader(conn).ReadBytes('\n')
			if err != nil {
				return err
			}
			var resp struct {
				OK     bool               `json:"ok"`
				Error  string             `json:"error"`
				Result server.ChainEvents `json:"result"`
			}
			if err := json.Unmarshal(line, &resp); err != nil {
				return err
			}
			if !resp.OK {
				return fmt.Errorf("server %s: %s", addr, resp.Error)
			}
			evs = append(evs, resp.Result.Events...)
			return nil
		}()
		if err != nil {
			return err
		}
	}
	pretty, err := json.MarshalIndent(obs.AssembleChain(cause, evs), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	return nil
}

// fetchVerify runs the repl.verify op and prints the VerifyReport even
// when the audit failed (diverged, lagged, repair exhausted): the report
// is the diagnosis, the error is the verdict.
func fetchVerify(addr string, repair bool, class string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	req := map[string]any{"op": repl.OpVerify}
	if repair {
		req["repair"] = true
	}
	if class != "" {
		req["class"] = class
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp struct {
		OK     bool            `json:"ok"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return err
	}
	if len(resp.Result) > 0 {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, resp.Result, "", "  "); err != nil {
			return err
		}
		pretty.WriteByte('\n')
		if _, err := pretty.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	if !resp.OK {
		return fmt.Errorf("server: %s", resp.Error)
	}
	return nil
}

// fetchWire asks the server's proto op what this very connection
// negotiated, over the binary protocol.
func fetchWire(addr string) error {
	c, err := server.DialOptions(addr, server.ClientOptions{Binary: true})
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Call(&server.Request{Op: "proto"})
	if err != nil {
		return err
	}
	pretty, err := json.MarshalIndent(resp.Result, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	return nil
}

// fetchJSON sends one request to a running ode-server and prints the
// response's result as indented JSON (the -traces/-repl/-flight modes).
func fetchJSON(addr string, req map[string]any) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp struct {
		OK     bool            `json:"ok"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("server: %s", resp.Error)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, resp.Result, "", "  "); err != nil {
		return err
	}
	pretty.WriteByte('\n')
	_, err = pretty.WriteTo(os.Stdout)
	return err
}

func preview(data []byte, full bool) string {
	s := string(data)
	if !full && len(s) > 60 {
		s = s[:57] + "..."
	}
	return strings.Map(func(r rune) rune {
		if r < 32 {
			return '.'
		}
		return r
	}, s)
}
