package main

import (
	"fmt"
	"runtime"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/workload"
)

// spec is one workload: the cluster it runs on, the request mix, and the
// load the two phases offer. Every number here is a constant of the
// benchmark, calibrated once; none moves with the code under test.
type spec struct {
	name string
	// opts is the cluster template; table is the preloaded record set.
	opts  cluster.Options
	table workload.Config
	// mix draws the requests; the seed argument replaces mix.Seed.
	mix workload.Config
	// peakMix, when set, draws the peak phase's requests instead of mix.
	peakMix *workload.Config
	// gateway sends the load through the gateway's session wire instead
	// of direct signed clients; local sends write-free direct requests to
	// one replica without consensus.
	gateway bool
	local   bool
	// rate is the nominal phase's offered load in transactions per
	// second; slots the client identities (or sessions) in the pool.
	rate  float64
	slots int
	// peak is the peak phase's outstanding request count, at most slots;
	// 0 means slots.
	peak int
	// gwBatch and gwUpstreams size the gateway's edge batching; they are
	// pinned here so that a change of the gateway's defaults does not
	// move the benchmark.
	gwBatch, gwUpstreams int
}

// clusterSeed fixes the key material; only the workload takes --seed.
const clusterSeed = 1

// fsyncLinger is gateway-durable's group-commit fsync linger.
const fsyncLinger = 500 * time.Microsecond

// gwKeys is gateway-durable's key space. It is preloaded, so the store
// runs in steady state from the first request, and it is small enough
// that every shard log compacts every few seconds: with a larger live
// set, compactions are rarer and longer, and whether one falls into a
// sub-window decides that sub-window's tail.
const gwKeys = 16384

// specs are the benchmark's workloads. Each nominal rate keeps the
// process near a quarter of a 2-core machine's CPU: at higher load,
// latencies on a machine shared with other tenants amplify the
// neighbours' noise from run to run.
func specs() []spec {
	nproc := runtime.NumCPU()
	paperTable := workload.Default() // 600K records, 100 B values
	return []spec{
		{
			name:  "direct-write",
			opts:  cluster.Options{N: 4, StoreBackend: "mem", PreloadTable: true},
			table: paperTable,
			mix: workload.Config{Records: paperTable.Records, OpsPerTxn: 1, ValueSize: 100,
				Distribution: workload.Zipf, ReadFraction: 0.2, ScanFraction: 0.2, ScanLength: 16},
			rate:  1000,
			slots: 256,
		},
		{
			name: "gateway-durable",
			opts: cluster.Options{N: 4, StoreBackend: "sharded", ExecuteThreads: nproc,
				ExecPipelineDepth: 2, StoreSync: fsyncLinger, CheckpointInterval: 16},
			table: workload.Config{Records: gwKeys, OpsPerTxn: 8, ValueSize: 256, Distribution: workload.Zipf},
			mix: workload.Config{Records: gwKeys, OpsPerTxn: 8, ValueSize: 256,
				Distribution: workload.Zipf, ReadFraction: 0.2, ScanFraction: 0.2, ScanLength: 16},
			gateway:     true,
			rate:        300,
			slots:       1024,
			gwBatch:     128,
			gwUpstreams: 4,
		},
		{
			name:  "local-read-scan",
			opts:  cluster.Options{N: 4, StoreBackend: "mem", PreloadTable: true, ReadMode: "local"},
			table: paperTable,
			mix: workload.Config{Records: paperTable.Records, OpsPerTxn: 1, ValueSize: 100,
				Distribution: workload.Zipf, ReadFraction: 0.5, ScanFraction: 0.45, ScanLength: 16},
			// The peak phase offers the same reads and scans without the
			// writes, 8 at a time. With writes in the loop the slots wait
			// on consensus (at 256 outstanding the writes' median was
			// over 100 ms against the reads' 0.2 ms), so capacity
			// followed the writes' queueing. With 32 or more reads
			// outstanding, each peak round settled into one of two
			// regimes, a read p90 of 0.2 ms or one of 15 to 60 ms, at
			// capacities up to 1.5x apart. Eight in flight reach the
			// faster regime's capacity without forming those queues.
			peakMix: &workload.Config{Records: paperTable.Records, OpsPerTxn: 1, ValueSize: 100,
				Distribution: workload.Zipf, ReadFraction: 0.5 / 0.95, ScanFraction: 1 - 0.5/0.95, ScanLength: 16},
			local: true,
			rate:  2000,
			slots: 256,
			peak:  8,
		},
	}
}

// peakOutstanding is the peak phase's outstanding request count.
func (s spec) peakOutstanding() int {
	if s.peak > 0 {
		return s.peak
	}
	return s.slots
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
