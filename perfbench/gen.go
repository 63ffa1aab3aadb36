package main

import (
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/types"
)

// class is the latency class of a request, write > scan > read: a
// request carrying any write is a write, otherwise any scan makes it a
// scan, otherwise it is a point read.
type class uint8

const (
	cRead class = iota
	cScan
	cWrite
	classCount
)

var classNames = [classCount]string{"read", "scan", "write"}

func classOf(ops []types.Op) class {
	c := cRead
	for i := range ops {
		switch ops[i].Kind {
		case types.OpScan:
			c = cScan
		case types.OpRead:
		default:
			return cWrite
		}
	}
	return c
}

// phase describes one load window. An open phase issues requests on a
// fixed schedule at rate transactions per second across the whole pool,
// timing each from its due time; a closed phase keeps every slot busy.
// Requests stop being due at stop; the phase ends once every issued
// request is answered, or at drainBy, when the rest count as failed.
type phase struct {
	open    bool
	rate    float64
	start   time.Time
	stop    time.Time
	drainBy time.Time
	traced  bool
	salt    uint64 // distinguishes request ids across phases
	limit   int    // if > 0, worker 0 issues this many requests and the rest none
	// window, if > 0, caps a closed phase's outstanding requests per
	// worker.
	window int
	// buckets, when set, counts transactions answered OK per bucketDur
	// since start.
	buckets []atomic.Int64
}

// bucketDur is the width of a throughput bucket.
const bucketDur = 500 * time.Millisecond

// due returns when the pool's k-th request of the phase is due.
func (ph *phase) due(k uint64) time.Time {
	return ph.start.Add(time.Duration(float64(k) / ph.rate * 1e9))
}

// tally is what one worker observed in one phase.
type tally struct {
	lat        [classCount]samples // due time to accepted reply
	late       samples             // due time to send
	attempted  int64               // transactions issued
	completed  int64               // transactions answered OK
	failed     int64               // transactions refused or unanswered
	requests   int64               // requests sent (one per issue)
	retries    int64               // timeouts and busy retries
	replies    int64               // inbound messages handled
	busyNS     int64               // time the worker spent working
	drawNS     int64
	signNS     int64
	replyNS    int64
	wrong      int64 // replies whose contents failed a check
	localReads int64
	stale      int64 // local reads that fell back to the quorum path
}

func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c].merge(&o.lat[c])
	}
	t.late.merge(&o.late)
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	t.requests += o.requests
	t.retries += o.retries
	t.replies += o.replies
	t.busyNS += o.busyNS
	t.drawNS += o.drawNS
	t.signNS += o.signNS
	t.replyNS += o.replyNS
	t.wrong += o.wrong
	t.localReads += o.localReads
	t.stale += o.stale
}

// lane is the protocol side of one worker: the direct signed-client pool
// or the gateway session connection. Slots are client identities or
// sessions, each with at most one request outstanding.
type lane interface {
	// issue starts request k on a free slot; it reports false when every
	// slot is busy.
	issue(w *worker, k uint64, due time.Time) bool
	// flush sends anything issue buffered.
	flush(w *worker)
	// handle processes one inbound item.
	handle(w *worker, m any)
	// expire retransmits or retries overdue requests.
	expire(w *worker, now time.Time)
	// outstanding is the number of busy slots.
	outstanding() int
	// abandon frees every busy slot at the end of a drain, counting its
	// request as failed.
	abandon(w *worker)
}

// slotQueue hands out free slots oldest first, so load spreads over
// every client identity or session rather than reusing the last freed.
type slotQueue struct{ q []int }

func (s *slotQueue) put(i int) { s.q = append(s.q, i) }

func (s *slotQueue) get() (int, bool) {
	if len(s.q) == 0 {
		return 0, false
	}
	i := s.q[0]
	s.q = s.q[1:]
	return i, true
}

// expireEvery is how often a worker checks its slots' deadlines.
const expireEvery = 5 * time.Millisecond

// worker is one load-generating goroutine's state. A pool has at most
// nproc of them; all drawing, signing, encoding and reply handling
// happens on them.
type worker struct {
	idx, of int
	in      chan any
	lane    lane
	tr      *tracer
	ph      *phase
	t       tally
	spans   []span
}

// reqID is the trace id of the phase's k-th request.
func (w *worker) reqID(k uint64) uint64 { return w.ph.salt<<40 | k }

// span records a child span of request id when the phase is traced.
func (w *worker) span(id uint64, l layer, start time.Time, n int) {
	if !w.ph.traced {
		return
	}
	w.spans = append(w.spans, span{id: id, start: int64(start.Sub(w.tr.epoch)), end: w.tr.now(), n: int32(n), layer: l, replica: -1})
}

// done books one answered request.
func (w *worker) done(id uint64, c class, txns int, due time.Time, ok bool) {
	now := time.Now()
	if ok {
		w.t.lat[c].add(now.Sub(due), now.Sub(w.ph.start))
		w.t.completed += int64(txns)
		if i := int(now.Sub(w.ph.start) / bucketDur); i < len(w.ph.buckets) {
			w.ph.buckets[i].Add(int64(txns))
		}
	} else {
		w.t.failed += int64(txns)
	}
	if w.ph.traced {
		w.spans = append(w.spans, span{id: id, start: int64(due.Sub(w.tr.epoch)), end: int64(now.Sub(w.tr.epoch)), layer: lRequest, replica: -1})
	}
}

type dueReq struct {
	k   uint64
	due time.Time
}

// run drives one phase to its end.
func (w *worker) run(ph *phase) {
	w.ph = ph
	w.t = tally{}
	w.spans = w.spans[:0]
	k := uint64(w.idx)
	step := uint64(w.of)
	issued := 0
	var backlog []dueReq
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	lastExpire := time.Now()
	for {
		now := time.Now()
		issuing := now.Before(ph.stop)
		if ph.limit > 0 {
			issuing = w.idx == 0 && issued < ph.limit
		}
		if ph.open && issuing {
			for {
				due := ph.due(k)
				if due.After(now) || !due.Before(ph.stop) {
					break
				}
				backlog = append(backlog, dueReq{k, due})
				k += step
			}
		}
		for len(backlog) > 0 && w.lane.issue(w, backlog[0].k, backlog[0].due) {
			backlog = backlog[1:]
		}
		if !ph.open && issuing {
			for (ph.limit == 0 || issued < ph.limit) && (ph.window == 0 || w.lane.outstanding() < ph.window) && w.lane.issue(w, k, now) {
				k += step
				issued++
			}
		}
		w.lane.flush(w)
		if now.Sub(lastExpire) >= expireEvery {
			w.lane.expire(w, now)
			lastExpire = now
		}
		if !issuing && len(backlog) == 0 && w.lane.outstanding() == 0 {
			break
		}
		if now.After(ph.drainBy) {
			w.lane.abandon(w)
			w.t.failed += int64(len(backlog))
			w.t.attempted += int64(len(backlog))
			break
		}
		wait := expireEvery
		if ph.open && issuing && len(backlog) == 0 {
			if d := ph.due(k).Sub(now); d < wait {
				wait = d
			}
		}
		w.t.busyNS += int64(time.Since(now))
		timer.Reset(wait)
		select {
		case m := <-w.in:
			start := time.Now()
			w.lane.handle(w, m)
			for more := true; more; {
				select {
				case m := <-w.in:
					w.lane.handle(w, m)
				default:
					more = false
				}
			}
			w.t.busyNS += int64(time.Since(start))
		case <-timer.C:
		}
	}
	w.tr.addBatch(w.spans)
}

// cpuTrack samples the process CPU time at every bucket boundary of a
// phase, so CPU per transaction can be taken per sub-window.
type cpuTrack struct {
	at   []time.Duration // CPU time at the start of each bucket, and at the end
	done chan struct{}
}

func trackCPU(ph *phase) *cpuTrack {
	c := &cpuTrack{at: []time.Duration{cpuNow()}, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for i := 1; i <= len(ph.buckets); i++ {
			time.Sleep(time.Until(ph.start.Add(time.Duration(i) * bucketDur)))
			c.at = append(c.at, cpuNow())
		}
	}()
	return c
}

// perTxnUS returns, for each sub-window of per buckets after the first
// skip buckets, the process CPU microseconds per transaction answered.
func (c *cpuTrack) perTxnUS(ph *phase, skip, per int) []float64 {
	<-c.done
	var vals []float64
	for i := skip; i+per <= len(ph.buckets); i += per {
		var txns int64
		for j := i; j < i+per; j++ {
			txns += ph.buckets[j].Load()
		}
		if txns > 0 {
			vals = append(vals, float64(c.at[i+per]-c.at[i])/1e3/float64(txns))
		}
	}
	return vals
}

// runPhase runs every worker through ph and merges their tallies.
func runPhase(ws []*worker, ph *phase) tally {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ph)
		}(w)
	}
	wg.Wait()
	var t tally
	for _, w := range ws {
		t.merge(&w.t)
	}
	return t
}
