package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/obj"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/wal"
)

// tracer is the benchmark's switch and collection point for the
// layer seams it wraps. While on is false the decorators forward
// without timing, so one process can alternate untraced and traced
// slices over the same store.
type tracer struct {
	on atomic.Bool

	// stateOIDs holds the trigger-state OIDs the workload knows about
	// (every TriggerID it activated), so reads of them can be told
	// apart from object and index reads.
	stateMu   sync.RWMutex
	stateOIDs map[storage.OID]bool

	indexReadBytes  atomic.Uint64
	stateReadBytes  atomic.Uint64
	indexWriteBytes atomic.Uint64
	walWriteBytes   atomic.Uint64

	reads   syncSamples // storage.Manager.Read
	applies syncSamples // storage.Manager.ApplyCommit
	syncs   syncSamples // wal.File.Sync
}

func newTracer() *tracer { return &tracer{stateOIDs: map[storage.OID]bool{}} }

func (t *tracer) noteState(oid storage.OID, live bool) {
	t.stateMu.Lock()
	if live {
		t.stateOIDs[oid] = true
	} else {
		delete(t.stateOIDs, oid)
	}
	t.stateMu.Unlock()
}

func (t *tracer) isState(oid storage.OID) bool {
	t.stateMu.RLock()
	defer t.stateMu.RUnlock()
	return t.stateOIDs[oid]
}

func isBucket(oid storage.OID) bool {
	return oid >= obj.FirstBucketOID && oid < obj.FirstBucketOID+obj.NumBuckets
}

// tracedStore decorates the storage.Manager handed to core.NewDatabase.
type tracedStore struct {
	storage.Manager
	t *tracer
}

func (s *tracedStore) Read(oid storage.OID) ([]byte, error) {
	if !s.t.on.Load() {
		return s.Manager.Read(oid)
	}
	start := time.Now()
	b, err := s.Manager.Read(oid)
	s.t.reads.add(time.Since(start))
	switch {
	case isBucket(oid):
		s.t.indexReadBytes.Add(uint64(len(b)))
	case s.t.isState(oid):
		s.t.stateReadBytes.Add(uint64(len(b)))
	}
	return b, err
}

func (s *tracedStore) ApplyCommit(txn uint64, ops []storage.Op) error {
	if !s.t.on.Load() {
		return s.Manager.ApplyCommit(txn, ops)
	}
	for _, op := range ops {
		if isBucket(op.OID) {
			s.t.indexWriteBytes.Add(uint64(len(op.Data)))
		}
	}
	start := time.Now()
	err := s.Manager.ApplyCommit(txn, ops)
	s.t.applies.add(time.Since(start))
	return err
}

// commitCauser mirrors the optional hook core.Database asserts on its
// store to carry cause notes into WAL commit records.
type commitCauser interface {
	SetCommitCause(txn uint64, self, parent obs.Cause)
	ClearCommitCause(txn uint64)
}

// wrapStore returns m behind a tracedStore that still implements every
// optional interface m implements — storage.Versioned (MVCC snapshot
// transactions) and commitCauser (provenance in commit records) — so
// the traced program takes the same code paths as the untraced one.
func wrapStore(m storage.Manager, t *tracer) storage.Manager {
	ts := &tracedStore{Manager: m, t: t}
	v, isV := m.(storage.Versioned)
	c, isC := m.(commitCauser)
	switch {
	case isV && isC:
		return &struct {
			*tracedStore
			storage.Versioned
			commitCauser
		}{ts, v, c}
	case isV:
		return &struct {
			*tracedStore
			storage.Versioned
		}{ts, v}
	case isC:
		return &struct {
			*tracedStore
			commitCauser
		}{ts, c}
	}
	return ts
}

// tracedWAL decorates the write-ahead log's file (eos.Options.WALFile).
type tracedWAL struct {
	wal.File
	t *tracer
}

func (w *tracedWAL) Write(p []byte) (int, error) {
	n, err := w.File.Write(p)
	if w.t.on.Load() {
		w.t.walWriteBytes.Add(uint64(n))
	}
	return n, err
}

func (w *tracedWAL) Sync() error {
	if !w.t.on.Load() {
		return w.File.Sync()
	}
	start := time.Now()
	err := w.File.Sync()
	w.t.syncs.add(time.Since(start))
	return err
}
