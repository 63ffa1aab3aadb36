package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one boundary the benchmark records spans at. Every span
// comes from the benchmark's own files: the load generator times its
// calls into the workload, crypto and transport APIs, and the store and
// endpoint wrappers time the replicas' calls into those layers.
type layer uint8

const (
	lRequest layer = iota // root: due time to accepted reply
	lDraw                 // workload draw
	lSign                 // client request + envelope signatures
	lEncode               // body or session-frame encoding
	lSend                 // client-side transport send
	lReply                // reply verify, decode and quorum step
	lNetSend              // replica-side transport send
	lStorePut
	lStorePutMany
	lStoreGet
	lStoreScan
	lWindow // root: one replica's traced window
	layerCount
)

var layerNames = [layerCount]string{
	"request.wait", "workload.draw", "loadgen.sign", "loadgen.encode",
	"loadgen.send", "loadgen.reply", "transport.send", "store.put",
	"store.putmany", "store.get", "store.scan", "replica.window",
}

// span is one timed call. Spans of one request share its id; replica-side
// spans carry the id of that replica's window span, their parent, since
// the store and endpoint APIs carry no request id. n counts the items the
// call handled: kvs for PutMany, rows for Scan, bytes for sends.
type span struct {
	id         uint64
	start, end int64 // ns since the tracer's epoch
	n          int32
	layer      layer
	replica    int8 // -1 on the load generator side
}

// windowID is the id of replica r's window span.
func windowID(r int) uint64 { return 1<<63 | uint64(r) }

// maxSpans caps what one traced window keeps in memory; spans past it
// are counted, not stored.
const maxSpans = 1 << 21

// tracer keeps spans in memory until the run ends. Load-generator
// workers buffer their own spans and hand them over in one call;
// replica-side wrappers append under a per-replica lock.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	kept    atomic.Int64
	dropped atomic.Int64

	shards [8]struct {
		mu    sync.Mutex
		spans []span
	}
	mu     sync.Mutex
	loaded []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) reserve(n int) bool {
	if t.kept.Add(int64(n)) > maxSpans {
		t.kept.Add(int64(-n))
		t.dropped.Add(int64(n))
		return false
	}
	return true
}

// replicaSpan records one replica-side call.
func (t *tracer) replicaSpan(r int, l layer, start int64, n int) {
	end := t.now()
	if !t.reserve(1) {
		return
	}
	sh := &t.shards[r%len(t.shards)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{id: windowID(r), start: start, end: end, n: int32(n), layer: l, replica: int8(r)})
	sh.mu.Unlock()
}

// addBatch takes over a worker's buffered spans.
func (t *tracer) addBatch(sp []span) {
	if len(sp) == 0 || !t.reserve(len(sp)) {
		return
	}
	t.mu.Lock()
	t.loaded = append(t.loaded, sp...)
	t.mu.Unlock()
}

// all returns every kept span.
func (t *tracer) all() []span {
	t.mu.Lock()
	out := append([]span(nil), t.loaded...)
	t.mu.Unlock()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name   string
	calls  int64
	selfNS int64
	items  int64
}

// reduce folds spans into per-layer rows. A root span's self time is its
// duration minus the part of it its children cover; child spans have no
// children of their own, so their self time is their duration.
func reduce(spans []span) [layerCount]layerRow {
	var rows [layerCount]layerRow
	for l := range rows {
		rows[l].name = layerNames[l]
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		return spans[i].start < spans[j].start
	})
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].id == spans[i].id {
			j++
		}
		group := spans[i:j]
		var root *span
		for k := range group {
			if l := group[k].layer; l == lRequest || l == lWindow {
				root = &group[k]
			}
		}
		var covered, cursor int64
		for k := range group {
			s := &group[k]
			if s == root {
				continue
			}
			rows[s.layer].calls++
			rows[s.layer].selfNS += s.end - s.start
			rows[s.layer].items += int64(s.n)
			if root == nil {
				continue
			}
			// Children are sorted by start: union their intervals,
			// clipped to the root's.
			st, en := max(s.start, cursor, root.start), min(s.end, root.end)
			if en > st {
				covered += en - st
				cursor = en
			}
		}
		if root != nil {
			rows[root.layer].calls++
			rows[root.layer].selfNS += root.end - root.start - covered
		}
		i = j
	}
	return rows
}

// writeSpans writes every span as one tab-separated line: id, layer,
// replica, start and end in ns since the run's epoch, and item count.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tlayer\treplica\tstart_ns\tend_ns\tn")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.id, layerNames[s.layer], s.replica, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
