package main

import (
	"fmt"
	"sync"
	"time"

	"resilientdb/internal/consensus"
	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// directClientTimeout is the retransmission delay of the direct signed
// clients, the cluster's default.
const directClientTimeout = 500 * time.Millisecond

// dclient is one direct client identity: the paper's §5.1 client, with
// its own key, endpoint and quorum engine. It is bookkeeping, not a
// goroutine; its worker drives it.
type dclient struct {
	idx   int // position in its lane
	id    types.ClientID
	ep    transport.Endpoint
	auth  crypto.Authenticator
	eng   *clientengine.Engine
	seq   uint64 // next client sequence number
	attSq uint64 // highest quorum-attested consensus seq: local reads' MinSeq
	// acked is the highest client sequence acknowledged through
	// consensus: every replica's dedup high-water mark must reach it.
	acked uint64

	busy     bool
	id64     uint64 // trace id of the request in flight
	due      time.Time
	class    class
	ops      []types.Op
	txnSeq   uint64
	deadline time.Time
	local    *types.ReadRequest // in flight on the local read path
	target   int
	refusals int
}

// inbound is one envelope a client endpoint received.
type inbound struct {
	c   int
	env *types.Envelope
}

// directLane drives a worker's share of the direct client pool.
type directLane struct {
	n       int
	local   bool // write-free requests take the local read path
	wl      *workload.Workload
	peakWL  *workload.Workload // if set, draws closed-loop phases' requests
	check   readCheck
	clients []*dclient
	free    slotQueue
	busyN   int
	bufs    pool.BytePool
	encHint int
}

// newDirectLane attaches clients ids to the fabric through attach and
// starts one forwarder per endpoint that hands inbound envelopes to the
// worker's channel; the forwarders end when the endpoints close.
func newDirectLane(w *worker, ids []types.ClientID, n int, local bool, dir *crypto.Directory,
	attach func(types.ClientID) transport.Endpoint, wl *workload.Workload, check readCheck, stop <-chan struct{}, wg *sync.WaitGroup) (*directLane, error) {
	l := &directLane{n: n, local: local, wl: wl, check: check}
	for i, id := range ids {
		eng, err := clientengine.New(id, n, clientengine.PBFT)
		if err != nil {
			return nil, err
		}
		c := &dclient{idx: i, id: id, ep: attach(id), auth: dir.NodeAuth(types.ClientNode(id)), eng: eng, seq: 1}
		l.clients = append(l.clients, c)
		l.free.put(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			forward(i, c.ep.Inbox(0), w.in, stop)
		}()
	}
	return l, nil
}

func forward(c int, inbox <-chan *types.Envelope, out chan<- any, stop <-chan struct{}) {
	for env := range inbox {
		select {
		case out <- inbound{c, env}:
		case <-stop:
			env.Release()
		}
	}
}

func (l *directLane) outstanding() int { return l.busyN }

func (l *directLane) flush(*worker) {}

func (l *directLane) issue(w *worker, k uint64, due time.Time) bool {
	ci, ok := l.free.get()
	if !ok {
		return false
	}
	c := l.clients[ci]
	id := w.reqID(k)
	t0 := time.Now()
	w.t.late.add(t0.Sub(due), t0.Sub(w.ph.start))
	// The transaction's content depends only on the worker's stream and
	// k, never on which identity happens to be free.
	wl := l.wl
	if !w.ph.open && l.peakWL != nil {
		wl = l.peakWL
	}
	txn := wl.NextTransaction(0, k)
	w.t.drawNS += int64(time.Since(t0))
	w.span(id, lDraw, t0, 1)
	txn.Client, txn.ClientSeq = c.id, c.seq
	c.busy, c.id64, c.due, c.ops, c.txnSeq = true, id, due, txn.Ops, c.seq
	c.class = classOf(txn.Ops)
	c.refusals, c.local = 0, nil
	c.seq++
	l.busyN++
	w.t.attempted++
	w.t.requests++
	c.deadline = time.Now().Add(directClientTimeout)
	if l.local && c.class != cWrite {
		msg := &types.ReadRequest{Client: c.id, ClientSeq: c.txnSeq, MinSeq: types.SeqNum(c.attSq)}
		for _, op := range txn.Ops {
			if op.Kind == types.OpScan {
				msg.Scans = append(msg.Scans, types.Op{Kind: types.OpScan, Key: op.Key, EndKey: op.EndKey, Limit: op.Limit})
			} else {
				msg.Keys = append(msg.Keys, op.Key)
			}
		}
		c.local = msg
		c.target = int(uint32(c.id)) % l.n
		l.transmit(w, c, types.ReplicaNode(types.ReplicaID(c.target)), msg)
		return true
	}
	l.submit(w, c, types.ClientRequest{Client: c.id, FirstSeq: c.txnSeq, Txns: []types.Transaction{txn}})
	return true
}

// submit signs req and starts it on the consensus path.
func (l *directLane) submit(w *worker, c *dclient, req types.ClientRequest) {
	t0 := time.Now()
	sig, err := c.auth.Sign(types.ReplicaNode(0), req.SigningBytes())
	w.t.signNS += int64(time.Since(t0))
	w.span(c.id64, lSign, t0, 1)
	if err != nil {
		l.finish(w, c, false)
		return
	}
	req.Sig = sig
	l.dispatch(w, c, c.eng.Submit(req))
}

func (l *directLane) dispatch(w *worker, c *dclient, acts []consensus.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Send:
			l.transmit(w, c, act.To, act.Msg)
		case consensus.Broadcast:
			for r := 0; r < l.n; r++ {
				l.transmit(w, c, types.ReplicaNode(types.ReplicaID(r)), act.Msg)
			}
		}
	}
}

// transmit encodes, signs and sends one message, as the cluster's own
// client runtime does: pooled body encoding, envelope authenticator.
func (l *directLane) transmit(w *worker, c *dclient, to types.NodeID, msg types.Message) {
	t0 := time.Now()
	body, arena := types.MarshalBodyArena(msg, &l.bufs, l.encHint)
	if len(body) > l.encHint {
		l.encHint = len(body)
	}
	w.span(c.id64, lEncode, t0, len(body))
	t1 := time.Now()
	sig, err := c.auth.Sign(to, body)
	w.t.signNS += int64(time.Since(t1))
	w.span(c.id64, lSign, t1, 1)
	if err != nil {
		arena.Release()
		return
	}
	env := types.AcquireEnvelope()
	env.From, env.To, env.Type, env.Body, env.Auth = types.ClientNode(c.id), to, msg.Type(), body, sig
	env.Attach(arena)
	t2 := time.Now()
	if err := c.ep.Send(env); err != nil {
		env.Release()
	}
	w.span(c.id64, lSend, t2, len(body)+len(sig))
	arena.Release()
}

func (l *directLane) handle(w *worker, m any) {
	in := m.(inbound)
	c := l.clients[in.c]
	env := in.env
	w.t.replies++
	t0 := time.Now()
	if c.busy {
		id := c.id64
		defer w.span(id, lReply, t0, 1)
	}
	defer func() { w.t.replyNS += int64(time.Since(t0)) }()
	if err := c.auth.Verify(env.From, env.Body, env.Auth); err != nil {
		env.Release()
		return
	}
	from := env.From
	msg, err := types.DecodeBody(env.Type, env.Body)
	env.Release()
	if err != nil || !c.busy {
		return
	}
	if rr, ok := msg.(*types.ReadReply); ok {
		l.onReadReply(w, c, rr)
		return
	}
	out, acts := c.eng.OnMessage(from, msg)
	l.dispatch(w, c, acts)
	if out == nil {
		return
	}
	if s := uint64(out.Seq); s > c.attSq {
		c.attSq = s
	}
	c.acked = out.ClientSeq
	if err := l.check(c.ops, out.ReadResults); err != nil {
		w.t.wrong++
	}
	l.finish(w, c, true)
}

func (l *directLane) onReadReply(w *worker, c *dclient, rr *types.ReadReply) {
	if c.local == nil || rr.Client != c.id || rr.ClientSeq != c.txnSeq {
		return
	}
	if len(rr.Results) == 0 {
		// The replica's executed state trails the client's staleness
		// bound; after every replica refused, the request takes the
		// quorum path.
		c.refusals++
		if c.refusals < l.n {
			c.target = (c.target + 1) % l.n
			l.transmit(w, c, types.ReplicaNode(types.ReplicaID(c.target)), c.local)
			return
		}
		c.local = nil
		w.t.stale++
		c.deadline = time.Now().Add(directClientTimeout)
		l.submit(w, c, types.ClientRequest{Client: c.id, FirstSeq: c.txnSeq,
			Txns: []types.Transaction{{Client: c.id, ClientSeq: c.txnSeq, Ops: c.ops}}})
		return
	}
	if err := l.check(c.ops, readOrder(c.ops, rr.Results)); err != nil {
		w.t.wrong++
	}
	w.t.localReads++
	l.finish(w, c, true)
}

// readOrder maps a ReadReply's results (point keys first, then scans)
// back to the request's op order.
func readOrder(ops []types.Op, res []types.ReadResult) []types.ReadResult {
	var keys, scans int
	for _, op := range ops {
		if op.Kind == types.OpScan {
			scans++
		} else {
			keys++
		}
	}
	if len(res) != keys+scans {
		return nil
	}
	out := make([]types.ReadResult, 0, len(res))
	ki, si := 0, keys
	for _, op := range ops {
		if op.Kind == types.OpScan {
			out = append(out, res[si])
			si++
		} else {
			out = append(out, res[ki])
			ki++
		}
	}
	return out
}

func (l *directLane) finish(w *worker, c *dclient, ok bool) {
	w.done(c.id64, c.class, 1, c.due, ok)
	c.busy, c.local, c.ops = false, nil, nil
	l.busyN--
	l.free.put(c.idx)
}

func (l *directLane) expire(w *worker, now time.Time) {
	for _, c := range l.clients {
		if !c.busy || now.Before(c.deadline) {
			continue
		}
		w.t.retries++
		c.deadline = now.Add(directClientTimeout)
		if c.local != nil {
			c.target = (c.target + 1) % l.n
			l.transmit(w, c, types.ReplicaNode(types.ReplicaID(c.target)), c.local)
			continue
		}
		l.dispatch(w, c, c.eng.OnTimeout())
	}
}

func (l *directLane) abandon(w *worker) {
	for _, c := range l.clients {
		if c.busy {
			l.finish(w, c, false)
		}
	}
}

func (l *directLane) close() {
	for _, c := range l.clients {
		c.ep.Close()
	}
}

// ackedSeqs returns each client's highest sequence acknowledged through
// consensus.
func (l *directLane) ackedSeqs(into map[types.ClientID]uint64) {
	for _, c := range l.clients {
		if c.acked > 0 {
			into[c.id] = c.acked
		}
	}
}

// readCheck validates a request's read results against what the table
// can hold; a nil error means the answer is possible.
type readCheck func(ops []types.Op, res []types.ReadResult) error

// fullTableCheck is the check for a table preloaded with every key below
// records and written with values of valueSize bytes: every point read
// finds a value and every scan returns its whole span, in key order.
func fullTableCheck(records uint64, valueSize int) readCheck {
	return func(ops []types.Op, res []types.ReadResult) error {
		return checkReads(ops, res, records, valueSize, true)
	}
}

// sparseTableCheck is the check for a table built from its own writes:
// a read may miss, but what it finds must have the written size, and a
// scan's rows must lie in its range, in key order, within its limit.
func sparseTableCheck(valueSize int) readCheck {
	return func(ops []types.Op, res []types.ReadResult) error {
		return checkReads(ops, res, 0, valueSize, false)
	}
}

func checkReads(ops []types.Op, res []types.ReadResult, records uint64, valueSize int, full bool) error {
	reads := 0
	for _, op := range ops {
		if op.Kind == types.OpRead || op.Kind == types.OpScan {
			reads++
		}
	}
	if len(res) != reads {
		return fmt.Errorf("%d read results for %d read ops", len(res), reads)
	}
	i := 0
	for _, op := range ops {
		switch op.Kind {
		case types.OpRead:
			r := &res[i]
			i++
			if r.Scan || (full && !r.Found) || (r.Found && len(r.Value) != valueSize) {
				return fmt.Errorf("key %d: found=%v len=%d", op.Key, r.Found, len(r.Value))
			}
		case types.OpScan:
			r := &res[i]
			i++
			if !r.Scan || len(r.Rows) > int(op.Limit) {
				return fmt.Errorf("scan %d..%d: %d rows", op.Key, op.EndKey, len(r.Rows))
			}
			want := op.EndKey - op.Key + 1
			if full {
				if op.Key >= records {
					want = 0
				} else if op.EndKey >= records {
					want = records - op.Key
				}
				if uint64(len(r.Rows)) != want {
					return fmt.Errorf("scan %d..%d: %d rows, want %d", op.Key, op.EndKey, len(r.Rows), want)
				}
			}
			prev := op.Key
			for j, row := range r.Rows {
				if row.Key < op.Key || row.Key > op.EndKey || (j > 0 && row.Key <= prev) || len(row.Value) != valueSize {
					return fmt.Errorf("scan %d..%d: bad row %d (key %d, %d bytes)", op.Key, op.EndKey, j, row.Key, len(row.Value))
				}
				if full && row.Key != op.Key+uint64(j) {
					return fmt.Errorf("scan %d..%d: row %d has key %d", op.Key, op.EndKey, j, row.Key)
				}
				prev = row.Key
			}
		}
	}
	return nil
}
