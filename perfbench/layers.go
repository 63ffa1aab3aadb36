package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"resilientdb/internal/gateway"
	"resilientdb/internal/replica"
	"resilientdb/internal/types"
)

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is every counter the per-layer metrics difference over the
// traced window.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	reps     []replica.Stats
	heights  []uint64
	lens     []int
	gw       gateway.Stats
	mem      runtime.MemStats
	gcCPU    float64
	totalCPU float64
	storeB   int64
	userB    int64
	netMsgs  int64
	netBytes int64
	primary  int
}

func takeSnapshot(r *rig) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuNow(), storeB: r.storeBytes()}
	n := r.sp.opts.N
	for i := 0; i < n; i++ {
		rep := r.c.Replica(i)
		st := rep.Stats()
		s.reps = append(s.reps, st)
		s.heights = append(s.heights, rep.Ledger().Height())
		s.lens = append(s.lens, r.c.Store(i).Len())
		if rep.IsPrimary() {
			s.primary = i
		}
	}
	if r.gw != nil {
		s.gw = r.gw.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sm[0].Value.Float64()
	}
	if sm[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = sm[1].Value.Float64()
	}
	for _, t := range r.storeTaps {
		s.userB += t.userB.Load()
	}
	for _, t := range append(append([]*netTap(nil), r.netTaps...), r.clientNet) {
		if t != nil {
			s.netMsgs += t.msgs.Load()
			s.netBytes += t.bytes.Load()
		}
	}
	return s
}

// queueSampler averages the replicas' queue-depth gauges over a window.
type queueSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	sum  [5]float64 // primary input, primary batch, backup work, backup exec backlog, out
	n    int
}

const queueSampleEvery = 10 * time.Millisecond

func startSampler(r *rig, primary int) *queueSampler {
	q := &queueSampler{stop: make(chan struct{})}
	q.done.Add(1)
	go func() {
		defer q.done.Done()
		tick := time.NewTicker(queueSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
			}
			n := r.sp.opts.N
			var work, exec, out float64
			for i := 0; i < n; i++ {
				st := r.c.Replica(i).Stats()
				out += float64(st.OutQueueDepth) / float64(n)
				if i == primary {
					q.sum[0] += float64(st.InputQueueDepth)
					q.sum[1] += float64(st.BatchQueueDepth)
					continue
				}
				work += float64(st.WorkQueueDepth) / float64(n-1)
				exec += float64(st.ExecBacklog) / float64(n-1)
			}
			q.sum[2] += work
			q.sum[3] += exec
			q.sum[4] += out
			q.n++
		}
	}()
	return q
}

func (q *queueSampler) finish() [5]float64 {
	close(q.stop)
	q.done.Wait()
	var m [5]float64
	if q.n > 0 {
		for i := range m {
			m[i] = q.sum[i] / float64(q.n)
		}
	}
	return m
}

// stageNames are the replica pipeline stages, in replica.Stage order.
var stageNames = []string{"input", "batch", "worker", "execute", "checkpoint", "output"}

// perLayer derives the per-layer metrics of one traced window.
type perLayer struct {
	vals  map[string]float64
	rows  [layerCount]layerRow
	stage [2][]float64 // [primary, backup mean] busy ns per stage
	wall  float64      // seconds
	txns  float64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func computeLayers(r *rig, a, b snapshot, t *tally, spans []span, queues [5]float64, cal calibration) perLayer {
	p := perLayer{vals: map[string]float64{}}
	v := p.vals
	T := b.at.Sub(a.at).Seconds()
	p.wall = T
	txns := float64(t.completed)
	p.txns = txns
	nproc := float64(runtime.NumCPU())
	reqs := float64(t.requests)
	nw := float64(len(r.workers))

	v["loadgen.busy_frac"] = div(float64(t.busyNS)/1e9, T*nw)
	v["loadgen.sign_us_per_req"] = div(float64(t.signNS)/1e3, reqs)
	v["loadgen.reply_us_per_req"] = div(float64(t.replyNS)/1e3, reqs)
	v["loadgen.replies_per_req"] = div(float64(t.replies), reqs)
	v["loadgen.late_p99_ms"] = t.late.quantileMS(0.99)
	v["loadgen.retries_per_kreq"] = div(float64(t.retries)*1000, reqs)
	v["workload.draw_us_per_req"] = div(float64(t.drawNS)/1e3, reqs)

	v["crypto.ed25519_sign_us"] = cal.edSign
	v["crypto.ed25519_verify_us"] = cal.edVerify
	v["crypto.cmac_us"] = cal.cmac
	var batched, msgsIn, drops, localReads, localDrops float64
	for i := range b.reps {
		batched += float64(b.reps[i].VerifyBatched - a.reps[i].VerifyBatched)
		msgsIn += float64(b.reps[i].MsgsIn - a.reps[i].MsgsIn)
		drops += float64(b.reps[i].NetDrops - a.reps[i].NetDrops)
		localReads += float64(b.reps[i].LocalReads - a.reps[i].LocalReads)
		localDrops += float64(b.reps[i].LocalReadDrops - a.reps[i].LocalReadDrops)
	}
	v["crypto.verify_batched_frac"] = div(batched, msgsIn)

	p.rows = reduce(spans)
	v["transport.msgs_per_txn"] = div(float64(b.netMsgs-a.netMsgs), txns)
	v["transport.bytes_per_txn"] = div(float64(b.netBytes-a.netBytes), txns)
	ns := p.rows[lNetSend]
	v["transport.send_us_per_msg"] = div(float64(ns.selfNS)/1e3, float64(ns.calls))
	v["transport.inbox_drops"] = drops

	n := len(b.reps)
	pr := a.primary
	p.stage[0] = make([]float64, len(stageNames))
	p.stage[1] = make([]float64, len(stageNames))
	for s, name := range stageNames {
		pb := float64(b.reps[pr].BusyNS[s] - a.reps[pr].BusyNS[s])
		var bb float64
		for i := 0; i < n; i++ {
			if i != pr {
				bb += float64(b.reps[i].BusyNS[s]-a.reps[i].BusyNS[s]) / float64(n-1)
			}
		}
		p.stage[0][s], p.stage[1][s] = pb, bb
		v["replica.primary."+name+".busy_frac"] = pb / 1e9 / T
		v["replica.backup."+name+".busy_frac"] = bb / 1e9 / T
	}
	v["replica.txns_per_batch"] = div(float64(b.reps[pr].TxnsExecuted-a.reps[pr].TxnsExecuted),
		float64(b.reps[pr].BatchesExecuted-a.reps[pr].BatchesExecuted))
	v["replica.primary.input_queue_mean"] = queues[0]
	v["replica.primary.batch_queue_mean"] = queues[1]
	v["replica.backup.work_queue_mean"] = queues[2]
	v["replica.backup.exec_backlog_mean"] = queues[3]
	v["replica.out_queue_mean"] = queues[4]
	var shardBusy, skew float64
	shards := 0
	for i := 0; i < n; i++ {
		if i == pr || len(b.reps[i].ExecShardBusyNS) == 0 {
			continue
		}
		var sum, mx float64
		for s := range b.reps[i].ExecShardBusyNS {
			d := float64(b.reps[i].ExecShardBusyNS[s] - a.reps[i].ExecShardBusyNS[s])
			sum += d
			mx = math.Max(mx, d)
		}
		k := float64(len(b.reps[i].ExecShardBusyNS))
		shardBusy += sum / 1e9 / T / k
		skew += div(mx, sum/k)
		shards++
	}
	v["replica.backup.exec_shard_busy_frac"] = div(shardBusy, float64(shards))
	v["replica.backup.exec_shard_skew"] = div(skew, float64(shards))
	v["replica.local_reads_per_s"] = localReads / T
	v["replica.local_read_drops"] = localDrops
	v["client.stale_fallback_frac"] = div(float64(t.stale), float64(t.localReads+t.stale))

	var view types.View
	for i := range b.reps {
		if b.reps[i].View > view {
			view = b.reps[i].View
		}
	}
	v["consensus.view_changes"] = float64(view)
	v["ledger.blocks_per_ktxn"] = div(float64(b.heights[0]-a.heights[0])*1000, txns)
	v["ledger.checkpoints_per_s"] = float64(b.reps[pr].Checkpoints-a.reps[pr].Checkpoints) / T

	put, pm, get, scan := p.rows[lStorePut], p.rows[lStorePutMany], p.rows[lStoreGet], p.rows[lStoreScan]
	v["store.put_us"] = div(float64(put.selfNS)/1e3, float64(put.calls))
	v["store.get_us"] = div(float64(get.selfNS)/1e3, float64(get.calls))
	v["store.putmany_us_per_kv"] = div(float64(pm.selfNS)/1e3, float64(pm.items))
	v["store.scan_us_per_row"] = div(float64(scan.selfNS)/1e3, float64(scan.items))
	calls := float64(put.calls + pm.calls + get.calls + scan.calls)
	storeNS := float64(put.selfNS + pm.selfNS + get.selfNS + scan.selfNS)
	v["store.calls_per_txn"] = div(calls, txns)
	v["store.busy_frac"] = storeNS / 1e9 / (T * nproc)
	var fsyncs, stall, compactions, cstall, reclaimed float64
	for i := range b.reps {
		fsyncs += float64(b.reps[i].StoreFsyncs - a.reps[i].StoreFsyncs)
		stall += float64(b.reps[i].StoreFsyncStallNS - a.reps[i].StoreFsyncStallNS)
		compactions += float64(b.reps[i].StoreCompactions - a.reps[i].StoreCompactions)
		cstall += float64(b.reps[i].StoreCompactStallNS - a.reps[i].StoreCompactStallNS)
		reclaimed += float64(b.reps[i].StoreCompactReclaimedBytes - a.reps[i].StoreCompactReclaimedBytes)
	}
	v["store.fsyncs_per_ktxn"] = div(fsyncs*1000, txns)
	v["store.fsync_stall_us_per_txn"] = div(stall/1e3, txns)
	v["store.compactions"] = compactions
	v["store.compact_stall_ms"] = cstall / 1e6
	v["store.log_bytes_per_user_byte"] = div(float64(b.storeB-a.storeB)+reclaimed, float64(b.userB-a.userB))
	var live float64
	for _, l := range b.lens {
		live += float64(l) * float64(8+r.sp.mix.ValueSize)
	}
	v["store.space_amp"] = div(float64(b.storeB), live)
	if r.dir == "" {
		v["store.space_amp"] = 0
	}

	v["gateway.txns_per_request"] = div(float64(b.gw.Completed-a.gw.Completed), float64(b.gw.Requests-a.gw.Requests))
	v["gateway.busy_rejected_frac"] = div(float64(b.gw.BusyRejected-a.gw.BusyRejected),
		float64(b.gw.Accepted-a.gw.Accepted+b.gw.BusyRejected-a.gw.BusyRejected))
	v["gateway.upstream_retransmits"] = float64(b.gw.Retransmits - a.gw.Retransmits)
	v["gateway.dup_absorbed"] = float64(b.gw.DupAbsorbed - a.gw.DupAbsorbed)

	v["runtime.alloc_bytes_per_txn"] = div(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), txns)
	v["runtime.gc_cpu_frac"] = div(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	var pauses []float64
	for g := a.mem.NumGC + 1; g <= b.mem.NumGC && b.mem.NumGC-g < 256; g++ {
		pauses = append(pauses, float64(b.mem.PauseNs[(g+255)%256])/1e3)
	}
	v["runtime.gc_pause_p99_us"] = 0
	if len(pauses) > 0 {
		sort.Float64s(pauses)
		v["runtime.gc_pause_p99_us"] = pauses[int(math.Ceil(0.99*float64(len(pauses))))-1]
	}
	return p
}
