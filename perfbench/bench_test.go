package main

import (
	"encoding/json"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/store"
	"resilientdb/internal/workload"
)

// smallDirect is direct-write shrunk for tests: a 2000-record table and
// a light open-loop rate.
func smallDirect(t *testing.T) spec {
	t.Helper()
	sp, err := specByName("direct-write")
	if err != nil {
		t.Fatal(err)
	}
	sp.table.Records, sp.mix.Records = 2000, 2000
	sp.rate, sp.slots = 300, 16
	return sp
}

func openFor(r *rig, d time.Duration, salt uint64) tally {
	return runPhase(r.workers, openPhase(r.sp.rate, d, salt))
}

func TestWrapStoreKeepsCapabilities(t *testing.T) {
	caps := func(st store.Store) [4]bool {
		_, b := st.(store.Batcher)
		_, s := st.(store.SyncStatser)
		_, c := st.(store.Compactor)
		_, sc := st.(store.Scanner)
		return [4]bool{b, s, c, sc}
	}
	for _, backend := range []string{"mem", "disk", "sharded"} {
		inner, err := store.OpenBackend(store.BackendConfig{Backend: backend, Dir: t.TempDir(), ExecShards: 2})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		wrapped := wrapStore(inner, &storeTap{})
		if got, want := caps(wrapped), caps(inner); got != want {
			t.Errorf("%s: wrapped capabilities %v, inner %v (Batcher, SyncStatser, Compactor, Scanner)", backend, got, want)
		}
		if err := wrapped.Close(); err != nil {
			t.Fatalf("close %s: %v", backend, err)
		}
	}
}

// TestChecksCatchDroppedWrite silently drops one write on one replica's
// store and expects the correctness checks to notice; the same run
// without the drop must pass them.
func TestChecksCatchDroppedWrite(t *testing.T) {
	for _, drop := range []bool{false, true} {
		// The tenth write, not the first: the first request's value
		// happens to equal the preloaded one.
		var writes atomic.Int64
		o := rigOptions{seed: 3}
		if drop {
			o.storeTap = func(tp *storeTap) {
				if tp.replica == 2 {
					tp.drop = func(uint64) bool { return writes.Add(1) == 10 }
				}
			}
		}
		// Uniform keys over a larger table, so no later write is likely to
		// overwrite the dropped one and hide it.
		sp := smallDirect(t)
		sp.table.Records, sp.mix.Records = 50000, 50000
		sp.mix.Distribution = workload.Uniform
		r, err := newRig(sp, o)
		if err != nil {
			t.Fatal(err)
		}
		tl := openFor(r, 300*time.Millisecond, 1)
		bad := checkCluster(r.c, r.sp.opts.N, r.gw, r.acks())
		r.close()
		if tl.completed == 0 || tl.wrong != 0 {
			t.Fatalf("drop=%v: %d completed, %d wrong answers", drop, tl.completed, tl.wrong)
		}
		if drop && (writes.Load() < 10 || len(bad) == 0) {
			t.Errorf("a dropped write passed the checks (%d writes seen)", writes.Load())
		}
		if !drop && len(bad) != 0 {
			t.Errorf("clean run failed the checks: %v", bad)
		}
	}
}

// TestSessionClientAgainstGateway drives a live gateway through the
// benchmark's own session wire encoding: a submit is answered OK with a
// sequence above 0, and a retry of the same nonce is answered with the
// same reply without executing the transaction again.
func TestSessionClientAgainstGateway(t *testing.T) {
	sp, err := specByName("gateway-durable")
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(sp, rigOptions{seed: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	conn, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ops := r.slanes[0].wl.NextTransaction(0, 1).Ops
	const session = 1 << 40
	submit := func() sessReply {
		t.Helper()
		if _, err := conn.Write(frame(1, appendSubmit(nil, session, 1, ops))); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		p, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := decodeReplies(p)
		if err != nil || len(rs) != 1 {
			t.Fatalf("replies %v, err %v", rs, err)
		}
		return rs[0]
	}
	first := submit()
	if first.status != statusOK || first.seq == 0 || first.session != session || first.nonce != 1 {
		t.Fatalf("first reply %+v, want OK with seq > 0", first)
	}
	if !r.c.WaitForQuiesce(10*time.Second, nil) {
		t.Fatal("cluster did not quiesce")
	}
	executed := r.c.Replica(1).Stats().TxnsExecuted
	retry := submit()
	if retry.status != statusOK || retry.seq != first.seq {
		t.Fatalf("retry reply %+v, want OK with seq %d", retry, first.seq)
	}
	if !r.c.WaitForQuiesce(10*time.Second, nil) {
		t.Fatal("cluster did not quiesce")
	}
	if got := r.c.Replica(1).Stats().TxnsExecuted; got != executed {
		t.Errorf("retry executed again: %d txns executed, was %d", got, executed)
	}
	if st := r.gw.Stats(); st.DupReplayed != 1 {
		t.Errorf("gateway DupReplayed = %d, want 1", st.DupReplayed)
	}
}

// TestStoreStallAttributedToStore injects a fixed stall before every
// write through the store wrapper. The traced store rows must gain
// self time per transaction, and the transport row must not.
func TestStoreStallAttributedToStore(t *testing.T) {
	const stall = 500 * time.Microsecond
	measure := func(d time.Duration) perLayer {
		r, err := newRig(smallDirect(t), rigOptions{seed: 5, tr: newTracer(), storeTap: func(tp *storeTap) { tp.stall = d }})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		openFor(r, 300*time.Millisecond, 1)
		pl, tl, _, _ := traceWindow(r, time.Second)
		if tl.completed == 0 {
			t.Fatal("nothing completed")
		}
		return pl
	}
	storeUS := func(pl perLayer) float64 {
		var ns int64
		for _, l := range []layer{lStorePut, lStorePutMany, lStoreGet, lStoreScan} {
			ns += pl.rows[l].selfNS
		}
		return float64(ns) / 1e3 / pl.txns
	}
	sendUS := func(pl perLayer) float64 { return float64(pl.rows[lNetSend].selfNS) / 1e3 / pl.txns }
	base, stalled := measure(0), measure(stall)
	if got, floor := storeUS(stalled)-storeUS(base), float64(stall.Microseconds())/4; got < floor {
		t.Errorf("store self time per txn rose by %.1f us, want at least %.1f (base %.1f, stalled %.1f)",
			got, floor, storeUS(base), storeUS(stalled))
	}
	b, s := sendUS(base), sendUS(stalled)
	if s > 2*b+1 || s < b/2-1 {
		t.Errorf("transport self time per txn moved from %.2f us to %.2f us", b, s)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs() {
		want = append(want, s.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%d metrics in BENCHMARK.json, %d reported", len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], program reports %s [%s]", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
