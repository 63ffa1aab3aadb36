// Command perfbench is the repository benchmark. It runs one named
// workload on the real replica pipeline, measures it from outside, checks
// that the cluster's answers are correct, and prints one JSON result as
// its last line of output.
//
//	perfbench --workload direct-write --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: set-up time, request
// latency by class in an open-loop nominal phase, capacity in a
// closed-loop peak phase, CPU and live heap. With --trace 1 it runs the
// nominal phase twice, untraced then traced, and reports the per-layer
// metrics, a per-layer table and how much tracing perturbed the run.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"resilientdb/internal/types"
)

// Run shape. The nominal phase gets nominalShare of --seconds and the
// peak phase the rest; a traced run splits --seconds between an untraced
// and a traced nominal phase.
const (
	// minSeconds is the shortest run whose phase rounds still hold a
	// sub-window each after settling.
	minSeconds   = 12
	setupReps    = 3
	warmup       = 2 * time.Second
	nominalShare = 0.5
	drainTimeout = 10 * time.Second
	// rounds is how many nominal/peak pairs an end-to-end run alternates
	// through. On a shared machine the processor's speed drifts over
	// seconds; spreading each phase over the whole run averages more of
	// that drift into every metric than one contiguous phase would.
	rounds = 4
	// settleBuckets is how many throughput buckets at the start of a
	// round no metric counts: a peak round's while the queues fill, and a
	// later nominal round's while the replicas finish the peak's work.
	settleBuckets = 1
	// windowBuckets is the width, in throughput buckets, of the
	// sub-windows cpu_us_per_txn takes its median over.
	windowBuckets = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: direct-write, gateway-durable or local-read-scan")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	out := flag.String("out", ".bench_build", "directory for durable stores and span files")
	commit := flag.String("commit", "unknown", "commit of the code under test, recorded in the output")
	flag.Parse()
	sp, err := specByName(*name)
	if err == nil && (*seconds < minSeconds || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds of at least %d and --trace 0 or 1", minSeconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(os.Stdout, sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w io.Writer, sp spec, seed int64, seconds time.Duration, traced bool, outDir, commit string) (result, error) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%.0f trace=%v\n", sp.name, seed, seconds.Seconds(), traced)
	fmt.Fprintf(w, "nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
	fmt.Fprintf(w, "offered: nominal %.0f txn/s open loop over %d identities or sessions; peak %d outstanding closed loop\n",
		sp.rate, sp.slots, sp.peakOutstanding())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	storeDir := func(i int) string {
		if sp.opts.StoreBackend == "mem" {
			return ""
		}
		return filepath.Join(outDir, fmt.Sprintf("stores-%d-%d", os.Getpid(), i))
	}
	var tr *tracer
	reps := setupReps
	if traced {
		tr = newTracer()
		reps = 1
	}
	var setups []float64
	var r *rig
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		r, err = newRig(sp, rigOptions{seed: seed, tr: tr, dir: storeDir(i)})
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if err := r.firstReply(); err != nil {
			r.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			r.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	defer r.close()

	// A forced collection before the warmup starts every measured phase
	// from the same heap state, so the collector's cycles fall at the
	// same points of the phase from run to run.
	runtime.GC()
	runPhase(r.workers, openPhase(sp.rate, warmup, 2))
	cal := calibrate(r)
	fmt.Fprintf(w, "machine check through Directory.NodeAuth: ed25519 sign %.1f us, verify %.1f us, cmac %.2f us\n",
		cal.edSign, cal.edVerify, cal.cmac)

	var res result
	if traced {
		var err error
		if res, err = tracedRun(w, r, seconds, outDir); err != nil {
			return res, err
		}
	} else {
		res = endToEndRun(w, r, seconds, median(setups))
		fmt.Fprintf(w, "set-up times: %v s\n", setups)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}

	bad := checkCluster(r.c, sp.opts.N, r.gw, r.acks())
	for _, b := range bad {
		fmt.Fprintln(w, "CHECK FAILED:", b)
	}
	if len(bad) > 0 {
		res.Correct = false
	} else {
		fmt.Fprintln(w, "checks: ledgers valid and equal, stores identical, acknowledged requests deduplicated, no auth/decode/evidence/store/read-mismatch failures")
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no requests attempted")
	}
	return res, nil
}

// openPhase is an open-loop phase at rate that starts now and lasts d,
// with its completions counted in throughput buckets.
func openPhase(rate float64, d time.Duration, salt uint64) *phase {
	now := time.Now()
	return &phase{open: true, rate: rate, start: now, stop: now.Add(d), drainBy: now.Add(d + drainTimeout),
		salt: salt, buckets: make([]atomic.Int64, int(d/bucketDur))}
}

// endToEndRun measures the end-to-end metrics. It alternates rounds of
// an open-loop nominal phase, for latency, CPU and live heap, with rounds
// of a closed-loop peak phase, for capacity.
func endToEndRun(w io.Writer, r *rig, seconds time.Duration, setupS float64) result {
	sp := r.sp
	nomDur := time.Duration(float64(seconds) * nominalShare)
	nomRound, peakRound := nomDur/rounds, (seconds-nomDur)/rounds
	settle := settleBuckets * bucketDur
	var nom, peak tally
	// lat holds the nominal rounds' latencies after settling, timed from
	// the start of the rounds laid end to end.
	var lat [classCount]samples
	var kept time.Duration
	var cpu, tps []float64
	// peakTxns counts the transactions answered in the peak rounds'
	// buckets after settling, over peakKept.
	var peakTxns int64
	var peakKept time.Duration
	var m0, ms, g0, g1 runtime.MemStats
	var peakGC uint32
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		skip := 0
		if i > 0 {
			skip = settleBuckets
		}
		nph := openPhase(sp.rate, nomRound, uint64(3+2*i))
		track := trackCPU(nph)
		t := runPhase(r.workers, nph)
		cw := track.perTxnUS(nph, skip, windowBuckets)
		cpu = append(cpu, cw...)
		fmt.Fprintf(w, "nominal round %d: CPU us per txn per %v: %.0f\n", i+1, windowBuckets*bucketDur, cw)
		from := time.Duration(skip) * bucketDur
		for c := range lat {
			lat[c].mergeFrom(&t.lat[c], from, kept)
		}
		kept += nomRound - from
		nom.merge(&t)
		// A forced collection before each peak round starts every round
		// from the same heap state, so how many collections fall into a
		// round does not depend on where the last one happened to end.
		runtime.GC()
		if i == 0 {
			// The live heap is read after the first nominal round, before
			// any peak round has filled the gateway's reply caches. A
			// second collection frees what the first left in the
			// sync.Pool victim caches.
			runtime.GC()
			runtime.ReadMemStats(&ms)
		}
		pph := openPhase(0, peakRound, uint64(4+2*i))
		pph.open = false
		pph.window = sp.peakOutstanding() / len(r.workers)
		runtime.ReadMemStats(&g0)
		t = runPhase(r.workers, pph)
		runtime.ReadMemStats(&g1)
		peakGC += g1.NumGC - g0.NumGC
		peak.merge(&t)
		var bs []int64
		for j := range pph.buckets {
			bs = append(bs, pph.buckets[j].Load())
		}
		for j := settleBuckets; j+windowBuckets <= len(bs); j += windowBuckets {
			var n int64
			for _, b := range bs[j : j+windowBuckets] {
				n += b
			}
			tps = append(tps, float64(n)/(windowBuckets*bucketDur).Seconds())
			peakTxns += n
			peakKept += windowBuckets * bucketDur
		}
		fmt.Fprintf(w, "peak round %d: txns per %v: %v\n", i+1, bucketDur, bs)
	}
	cpuUS := median(cpu)
	// Capacity is the mean over every kept window, not a median: the
	// gateway answers in batches of up to gwBatch transactions, which
	// would round a median of one-second windows to whole batches.
	peakTPS := float64(peakTxns) / peakKept.Seconds()
	fmt.Fprintf(w, "run: %d GC cycles, %d of them in peak rounds; %.0f MiB allocated from a %.0f MiB heap\n",
		g1.NumGC-m0.NumGC, peakGC, float64(g1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(m0.HeapAlloc)/(1<<20))
	fmt.Fprintf(w, "nominal: %.0f txn/s offered in %d rounds of %v, the first %v of later rounds left out; CPU per txn median over %d windows of %v (min %.1f, max %.1f us)\n",
		sp.rate, rounds, nomRound, settle, len(cpu), windowBuckets*bucketDur, slices.Min(cpu), slices.Max(cpu))
	fmt.Fprintf(w, "peak: %d outstanding in %d rounds of %v, the first %v of each left out; %.1f txn/s over %d windows of %v (min %.0f, max %.0f); %d GC cycles\n",
		sp.peakOutstanding(), rounds, peakRound, settle, peakTPS, len(tps), windowBuckets*bucketDur, slices.Min(tps), slices.Max(tps), peakGC)

	// Only the median is a gated metric. On a small machine shared with
	// other tenants, the tails of these millisecond latencies move with
	// the neighbours' load from run to run far beyond any usable bound,
	// even as medians over sub-windows; they are printed, with their
	// sample support, for reading a run.
	fmt.Fprintln(w, "nominal-phase latency, due time to accepted reply; tails are medians over sub-windows:")
	var p50 [classCount]float64
	for c := class(0); c < classCount; c++ {
		s := &lat[c]
		p50[c] = s.quantileMS(0.5)
		p90, _ := s.windowedMS(0.90, kept)
		p95, wins95 := s.windowedMS(0.95, kept)
		p99, wins99 := s.windowedMS(0.99, kept)
		fmt.Fprintf(w, "  %-5s p50 %8.3f ms  p90 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms  samples %d\n",
			classNames[c], p50[c], p90, p95, p99, s.count())
		fmt.Fprintf(w, "        p95 over %d sub-windows of ~%d: %.3f ms\n", len(wins95), s.count()/len(wins95), wins95)
		fmt.Fprintf(w, "        p99 over %d sub-windows of ~%d: %.3f ms\n", len(wins99), s.count()/len(wins99), wins99)
		if s.count()/len(wins95) < minSamples(0.95) {
			fmt.Fprintf(w, "  warning: %s p95 rests on fewer than %d samples beyond it\n", classNames[c], tailSupport)
		}
	}
	fmt.Fprintf(w, "generator lateness p99 %.3f ms, max %.3f ms\n", nom.late.quantileMS(0.99), nom.late.quantileMS(1))
	res := result{
		Correct:   nom.wrong+peak.wrong == 0,
		Attempted: nom.attempted + peak.attempted,
		Failed:    nom.failed + peak.failed,
		Metrics:   map[string]metric{},
	}
	vals := map[string]float64{
		"setup_s":        setupS,
		"write_p50_ms":   p50[cWrite],
		"read_p50_ms":    p50[cRead],
		"scan_p50_ms":    p50[cScan],
		"peak_tps":       peakTPS,
		"cpu_us_per_txn": cpuUS,
		"success_frac":   1 - div(float64(res.Failed), float64(res.Attempted)),
		"heap_live_mb":   float64(ms.HeapAlloc) / (1 << 20),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	if !res.Correct {
		fmt.Fprintf(w, "CHECK FAILED: %d replies with impossible read results\n", nom.wrong+peak.wrong)
	}
	return res
}

// tracedRun measures the per-layer metrics: half of the time runs the
// nominal load untraced, for the tracing overhead's baseline, and half
// traced. It prints the per-layer table and writes the spans out.
func tracedRun(w io.Writer, r *rig, seconds time.Duration, outDir string) (result, error) {
	half := seconds / 2
	c0 := cpuNow()
	base := runPhase(r.workers, openPhase(r.sp.rate, half, 3))
	cpuBase := div(float64(cpuNow()-c0)/1e3, float64(base.completed))
	pl, t, spans, cpuTraced := traceWindow(r, half)
	pl.vals["trace.overhead_frac"] = div(cpuTraced-cpuBase, cpuBase)
	printLayerTable(w, pl, r)
	path := filepath.Join(outDir, "spans-"+r.sp.name+".tsv")
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "spans: %d kept, %d over the cap, written to %s\n", len(spans), r.tr.dropped.Load(), path)
	res := result{
		Correct:   base.wrong+t.wrong == 0,
		Attempted: base.attempted + t.attempted,
		Failed:    base.failed + t.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{pl.vals[m.name], m.unit}
	}
	if !res.Correct {
		fmt.Fprintf(w, "CHECK FAILED: %d replies with impossible read results\n", base.wrong+t.wrong)
	}
	return res, nil
}

// traceWindow runs one traced open phase of length d and reduces it to
// per-layer metrics. It also returns the phase's tally, its spans and
// the window's process CPU per transaction in microseconds.
func traceWindow(r *rig, d time.Duration) (perLayer, tally, []span, float64) {
	tr := r.tr
	a := takeSnapshot(r)
	q := startSampler(r, a.primary)
	tr.on.Store(true)
	for i := 0; i < r.sp.opts.N; i++ {
		tr.replicaSpan(i, lWindow, a.at.Sub(tr.epoch).Nanoseconds(), 0)
	}
	ph := openPhase(r.sp.rate, d, 4)
	ph.traced = true
	t := runPhase(r.workers, ph)
	tr.on.Store(false)
	b := takeSnapshot(r)
	queues := q.finish()
	// Window spans end when tracing stops.
	spans := tr.all()
	for i := range spans {
		if spans[i].layer == lWindow {
			spans[i].end = b.at.Sub(tr.epoch).Nanoseconds()
		}
	}
	pl := computeLayers(r, a, b, &t, spans, queues, calibrate(r))
	return pl, t, spans, div(float64(b.cpu-a.cpu)/1e3, float64(t.completed))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// calibration is the timed cost of one call through the key directory.
type calibration struct{ edSign, edVerify, cmac float64 }

// calibrate times signing and verification through Directory.NodeAuth:
// a client's ed25519 request signature and a replica's CMAC envelope
// authenticator.
func calibrate(r *rig) calibration {
	dir := r.c.Directory()
	cl := types.ClientNode(types.ClientID(directBaseClient))
	client := dir.NodeAuth(cl)
	rep := dir.NodeAuth(types.ReplicaNode(0))
	msg := make([]byte, 256)
	per := func(n int, f func()) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	var sig []byte
	var cal calibration
	cal.edSign = per(500, func() { sig, _ = client.Sign(types.ReplicaNode(0), msg) })
	cal.edVerify = per(500, func() { _ = rep.Verify(cl, msg, sig) })
	cal.cmac = per(5000, func() { _, _ = rep.Sign(types.ReplicaNode(1), msg) })
	return cal
}

// printLayerTable prints the traced window's per-layer table: calls,
// calls and self time per transaction, and the share of wall time ×
// cores. Replica stage rows come from the replicas' own busy counters.
func printLayerTable(w io.Writer, pl perLayer, r *rig) {
	nproc := float64(runtime.NumCPU())
	cap := pl.wall * nproc * 1e9
	fmt.Fprintf(w, "per-layer table: %.0f txns in %.2f s traced window, %d cores\n", pl.txns, pl.wall, runtime.NumCPU())
	fmt.Fprintf(w, "  %-28s %10s %10s %14s %8s\n", "layer", "calls", "calls/txn", "self us/txn", "share")
	type row struct {
		name    string
		calls   int64
		selfNS  float64
		replica bool
	}
	var rows []row
	for l := layer(0); l < layerCount; l++ {
		lr := pl.rows[l]
		if l == lWindow || lr.calls == 0 {
			continue
		}
		rows = append(rows, row{lr.name, lr.calls, float64(lr.selfNS), l >= lNetSend})
	}
	n := float64(r.sp.opts.N)
	for s, name := range stageNames {
		rows = append(rows, row{"replica.primary." + name, -1, pl.stage[0][s], true})
		rows = append(rows, row{"replica.backup." + name, -1, pl.stage[1][s] * (n - 1), true})
	}
	var top row
	for _, rw := range rows {
		calls, per := "-", "-"
		if rw.calls >= 0 {
			calls = fmt.Sprint(rw.calls)
			per = fmt.Sprintf("%.3f", div(float64(rw.calls), pl.txns))
		}
		fmt.Fprintf(w, "  %-28s %10s %10s %14.3f %8.4f\n", rw.name, calls, per, div(rw.selfNS/1e3, pl.txns), rw.selfNS/cap)
		if rw.replica && rw.selfNS > top.selfNS {
			top = rw
		}
	}
	fmt.Fprintf(w, "largest replica-side cost: %s (%.4f of wall time × cores)\n", top.name, top.selfNS/cap)
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the code under test where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.Walk(".", func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && strings.HasPrefix(fi.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
