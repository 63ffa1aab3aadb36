package main

import (
	"sync/atomic"
	"time"

	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// storeTap observes one replica's store calls. With a tracer that is on,
// every call becomes a span parented to the replica's window. stall and
// drop exist for the benchmark's own tests: a fixed delay inside every
// write, and a predicate naming writes to discard silently.
type storeTap struct {
	tr      *tracer
	replica int
	stall   time.Duration
	drop    func(key uint64) bool
	userB   atomic.Int64 // key+value bytes written while tracing
}

func (t *storeTap) tracing() bool { return t.tr != nil && t.tr.on.Load() }

// wrapStore wraps st so it keeps exactly the optional capabilities st
// has: the replica type-asserts store.Batcher, store.SyncStatser,
// store.Compactor and store.Scanner, so a lost capability would change
// the pipeline under test and a gained one would report stats the
// backend cannot honestly give. The variants mirror the backends: the
// mem store (Batcher, Scanner), the disk store (SyncStatser, Compactor,
// Scanner) and the sharded store (all four).
func wrapStore(st store.Store, t *storeTap) store.Store {
	base := tappedStore{inner: st, tap: t}
	b, isB := st.(store.Batcher)
	s, isS := st.(store.SyncStatser)
	c, isC := st.(store.Compactor)
	sc, isSc := st.(store.Scanner)
	switch {
	case isB && isS && isC && isSc:
		return &tappedSharded{tappedStore: base, b: b, s: s, c: c, sc: sc}
	case isS && isC && isSc:
		return &tappedDisk{tappedStore: base, s: s, c: c, sc: sc}
	case isB && isSc:
		return &tappedMem{tappedStore: base, b: b, sc: sc}
	default:
		return &base
	}
}

type tappedStore struct {
	inner store.Store
	tap   *storeTap
}

func (w *tappedStore) Put(key uint64, value []byte) error {
	t := w.tap
	tracing := t.tracing()
	var start int64
	if tracing {
		start = t.tr.now()
	}
	if t.stall > 0 {
		time.Sleep(t.stall)
	}
	if t.drop != nil && t.drop(key) {
		return nil
	}
	err := w.inner.Put(key, value)
	if tracing {
		t.tr.replicaSpan(t.replica, lStorePut, start, 1)
		t.userB.Add(int64(8 + len(value)))
	}
	return err
}

func (w *tappedStore) Get(key uint64) ([]byte, error) {
	t := w.tap
	if !t.tracing() {
		return w.inner.Get(key)
	}
	start := t.tr.now()
	v, err := w.inner.Get(key)
	t.tr.replicaSpan(t.replica, lStoreGet, start, 1)
	return v, err
}

func (w *tappedStore) Len() int     { return w.inner.Len() }
func (w *tappedStore) Close() error { return w.inner.Close() }

func (w *tappedStore) putMany(b store.Batcher, kvs []store.KV) error {
	t := w.tap
	tracing := t.tracing()
	var start int64
	if tracing {
		start = t.tr.now()
	}
	if t.stall > 0 {
		time.Sleep(t.stall)
	}
	if t.drop != nil {
		kept := make([]store.KV, 0, len(kvs))
		for _, kv := range kvs {
			if !t.drop(kv.Key) {
				kept = append(kept, kv)
			}
		}
		kvs = kept
	}
	err := b.PutMany(kvs)
	if tracing {
		t.tr.replicaSpan(t.replica, lStorePutMany, start, len(kvs))
		var n int64
		for i := range kvs {
			n += int64(8 + len(kvs[i].Value))
		}
		t.userB.Add(n)
	}
	return err
}

func (w *tappedStore) scan(sc store.Scanner, start, end uint64, fn func(uint64, []byte) bool) error {
	t := w.tap
	if !t.tracing() {
		return sc.Scan(start, end, fn)
	}
	rows := 0
	begin := t.tr.now()
	err := sc.Scan(start, end, func(k uint64, v []byte) bool {
		rows++
		return fn(k, v)
	})
	t.tr.replicaSpan(t.replica, lStoreScan, begin, rows)
	return err
}

type tappedMem struct {
	tappedStore
	b  store.Batcher
	sc store.Scanner
}

func (w *tappedMem) PutMany(kvs []store.KV) error { return w.putMany(w.b, kvs) }
func (w *tappedMem) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return w.scan(w.sc, start, end, fn)
}

type tappedDisk struct {
	tappedStore
	s  store.SyncStatser
	c  store.Compactor
	sc store.Scanner
}

func (w *tappedDisk) SyncStats() store.SyncStats       { return w.s.SyncStats() }
func (w *tappedDisk) MaybeCompact() (int, error)       { return w.c.MaybeCompact() }
func (w *tappedDisk) Compact() error                   { return w.c.Compact() }
func (w *tappedDisk) CompactStats() store.CompactStats { return w.c.CompactStats() }
func (w *tappedDisk) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return w.scan(w.sc, start, end, fn)
}

type tappedSharded struct {
	tappedStore
	b  store.Batcher
	s  store.SyncStatser
	c  store.Compactor
	sc store.Scanner
}

func (w *tappedSharded) PutMany(kvs []store.KV) error     { return w.putMany(w.b, kvs) }
func (w *tappedSharded) SyncStats() store.SyncStats       { return w.s.SyncStats() }
func (w *tappedSharded) MaybeCompact() (int, error)       { return w.c.MaybeCompact() }
func (w *tappedSharded) Compact() error                   { return w.c.Compact() }
func (w *tappedSharded) CompactStats() store.CompactStats { return w.c.CompactStats() }
func (w *tappedSharded) Scan(start, end uint64, fn func(uint64, []byte) bool) error {
	return w.scan(w.sc, start, end, fn)
}

// netTap counts and times one node's sends while tracing is on. Replica
// endpoints record spans parented to the replica's window; client-side
// endpoints (replica < 0) only count, because the load generator times
// its own sends.
type netTap struct {
	tr      *tracer
	replica int
	msgs    atomic.Int64
	bytes   atomic.Int64
}

type tappedEndpoint struct {
	transport.Endpoint
	tap *netTap
}

func wrapEndpoint(ep transport.Endpoint, t *netTap) transport.Endpoint {
	return &tappedEndpoint{Endpoint: ep, tap: t}
}

func (e *tappedEndpoint) Send(env *types.Envelope) error {
	t := e.tap
	if !t.tr.on.Load() {
		return e.Endpoint.Send(env)
	}
	n := len(env.Body) + len(env.Auth)
	t.msgs.Add(1)
	t.bytes.Add(int64(n))
	if t.replica < 0 {
		return e.Endpoint.Send(env)
	}
	start := t.tr.now()
	err := e.Endpoint.Send(env)
	t.tr.replicaSpan(t.replica, lNetSend, start, n)
	return err
}
