package eos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"ode/internal/storage"
	"ode/internal/wal"
)

// TestCrashCyclesProperty drives the store through random committed
// batches interleaved with random crashes (reopen without Close, leaving
// dirty pages unflushed and the WAL as the only source of truth) and
// occasional checkpoints. After every reopen, the visible state must
// equal the model of all committed batches.
func TestCrashCyclesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%d.eos", seed))
		m, err := Open(path, Options{CacheSize: 4, NoAutoCheckpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		model := map[storage.OID][]byte{}
		var oids []storage.OID
		txn := uint64(1)

		verify := func() bool {
			for oid, want := range model {
				got, err := m.Read(oid)
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("seed %d: oid %d mismatch after cycle: err=%v", seed, oid, err)
					return false
				}
			}
			count := 0
			m.Iterate(func(storage.OID, []byte) error { count++; return nil })
			if count != len(model) {
				t.Logf("seed %d: %d live objects, model has %d", seed, count, len(model))
				return false
			}
			return true
		}

		for step := 0; step < 30; step++ {
			switch r.Intn(10) {
			case 0: // crash: reopen without Close
				m2, err := Open(path, Options{CacheSize: 4, NoAutoCheckpoint: true})
				if err != nil {
					t.Logf("seed %d: reopen after crash: %v", seed, err)
					return false
				}
				m = m2
				if !verify() {
					return false
				}
			case 1: // clean close + reopen
				if err := m.Close(); err != nil {
					t.Logf("seed %d: close: %v", seed, err)
					return false
				}
				m2, err := Open(path, Options{CacheSize: 4, NoAutoCheckpoint: true})
				if err != nil {
					return false
				}
				m = m2
				if !verify() {
					return false
				}
			case 2: // checkpoint
				if err := m.Checkpoint(); err != nil {
					t.Logf("seed %d: checkpoint: %v", seed, err)
					return false
				}
			default: // committed batch
				var ops []storage.Op
				for i := 0; i < r.Intn(4)+1; i++ {
					switch {
					case len(oids) == 0 || r.Intn(3) == 0:
						oid, err := m.ReserveOID()
						if err != nil {
							return false
						}
						data := make([]byte, r.Intn(5000))
						r.Read(data)
						ops = append(ops, storage.Op{Kind: storage.OpWrite, OID: oid, Data: data})
						oids = append(oids, oid)
					case r.Intn(4) == 0:
						ops = append(ops, storage.Op{Kind: storage.OpFree, OID: oids[r.Intn(len(oids))]})
					default:
						data := make([]byte, r.Intn(5000))
						r.Read(data)
						ops = append(ops, storage.Op{Kind: storage.OpWrite, OID: oids[r.Intn(len(oids))], Data: data})
					}
				}
				if err := m.ApplyCommit(txn, ops); err != nil {
					t.Logf("seed %d: apply: %v", seed, err)
					return false
				}
				txn++
				for _, op := range ops {
					if op.Kind == storage.OpWrite {
						model[op.OID] = append([]byte(nil), op.Data...)
					} else {
						delete(model, op.OID)
					}
				}
			}
		}
		ok := verify()
		m.Close()
		return ok
	}
	// Seeds the property once failed on. 6596715523600417386: an
	// overflow object's stale pre-checkpoint chain on disk pointed into
	// a page since reused for a slotted object and flushed; replaying
	// the object's first rewrite freed that page, and the slotted
	// object read back another object's image.
	for _, seed := range []int64{6596715523600417386} {
		if !f(seed) {
			t.Fatalf("pinned seed %d failed", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryInterleavedLog crafts a WAL by hand in the shape group
// commit produces: records from different transactions interleaved, with
// commit records for only some of them. Recovery must replay exactly the
// committed transactions, applying each at its commit record — so for an
// OID written by two committed transactions, commit-record order decides.
func TestRecoveryInterleavedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "interleaved.eos")
	m, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The store is now checkpointed with an empty WAL. Write an
	// interleaved log directly: txn 1 and txn 3 commit, txn 2 does not.
	l, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Type: wal.RecUpdate, Txn: 1, OID: 1, Data: []byte("one-a")},
		{Type: wal.RecUpdate, Txn: 2, OID: 2, Data: []byte("never-committed")},
		{Type: wal.RecUpdate, Txn: 1, OID: 1, Data: []byte("one-b")},
		{Type: wal.RecUpdate, Txn: 3, OID: 3, Data: []byte("three")},
		{Type: wal.RecCommit, Txn: 1},
		{Type: wal.RecUpdate, Txn: 2, OID: 2, Data: []byte("still-not-committed")},
		// txn 3 also overwrites OID 1; it commits after txn 1, so its
		// image must win even though txn 1's write was logged later than
		// txn 3's first record.
		{Type: wal.RecUpdate, Txn: 3, OID: 1, Data: []byte("three-wins")},
		{Type: wal.RecCommit, Txn: 3},
	}
	for i := range recs {
		if _, err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for oid, want := range map[storage.OID]string{1: "three-wins", 3: "three"} {
		got, err := m2.Read(oid)
		if err != nil {
			t.Fatalf("read %d: %v", oid, err)
		}
		if string(got) != want {
			t.Fatalf("oid %d = %q, want %q", oid, got, want)
		}
	}
	if _, err := m2.Read(2); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("uncommitted txn 2 visible after recovery: err=%v", err)
	}
}

// TestConcurrentCommitsSurviveCrash group-commits from many goroutines,
// then crashes (reopen without Close, dirty pages lost). Every committer's
// last acknowledged write — which interleaved with the others in the log —
// must be visible after recovery.
func TestConcurrentCommitsSurviveCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "concurrent.eos")
	m, err := Open(path, Options{CacheSize: 4, NoAutoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	const committers, per = 8, 20
	oids := make([]storage.OID, committers)
	for i := range oids {
		if oids[i], err = m.ReserveOID(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			for i := 1; i <= per; i++ {
				txn := uint64(w*per + i)
				data := []byte(fmt.Sprintf("w%d-i%d", w, i))
				ops := []storage.Op{{Kind: storage.OpWrite, OID: oids[w], Data: data}}
				if err := m.ApplyCommit(txn, ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(gate)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Crash: reopen without Close.
	m2, err := Open(path, Options{CacheSize: 4, NoAutoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for w := 0; w < committers; w++ {
		want := fmt.Sprintf("w%d-i%d", w, per)
		got, err := m2.Read(oids[w])
		if err != nil {
			t.Fatalf("committer %d: read: %v", w, err)
		}
		if string(got) != want {
			t.Fatalf("committer %d: recovered %q, want %q", w, got, want)
		}
	}
}
