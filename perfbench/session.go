package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// Session wire constants, as internal/gateway/wire.go lays them out:
//
//	frame:  [u32 payload length][u32 message count][message...]
//	submit: 0x01 [u64 session][u64 nonce][u32 ops](op)...
//	op:     [u8 kind][u64 key]([u64 end][u32 limit] if scan)[u32 len][value]
//	reply:  0x02 [u64 session][u64 nonce][u8 status][u64 seq][u8 busy]
//	        [u32 reads](read)...
//	read:   [u8 0|1 found][u32 len][value] or [u8 2][u32 rows]([u64 key][u32 len][value])...
const (
	msgSubmit = 0x01
	msgReply  = 0x02

	statusOK       = 1
	statusBusy     = 2
	statusRejected = 3

	maxFrame = 1 << 24
)

const (
	// sessionTimeout is how long a session waits for a reply before it
	// resends the same nonce.
	sessionTimeout = 2 * time.Second
	// busyBackoff is how long a session waits after StatusBusy before it
	// resends the same nonce.
	busyBackoff = 2 * time.Millisecond
)

// sessReply is one decoded reply.
type sessReply struct {
	session, nonce, seq uint64
	status              uint8
	reads               []types.ReadResult
}

// appendSubmit appends one submit message.
func appendSubmit(b []byte, session, nonce uint64, ops []types.Op) []byte {
	b = append(b, msgSubmit)
	b = binary.BigEndian.AppendUint64(b, session)
	b = binary.BigEndian.AppendUint64(b, nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(len(ops)))
	for i := range ops {
		b = append(b, uint8(ops[i].Kind))
		b = binary.BigEndian.AppendUint64(b, ops[i].Key)
		if ops[i].Kind == types.OpScan {
			b = binary.BigEndian.AppendUint64(b, ops[i].EndKey)
			b = binary.BigEndian.AppendUint32(b, ops[i].Limit)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(ops[i].Value)))
		b = append(b, ops[i].Value...)
	}
	return b
}

// frame wraps count messages in a session frame header.
func frame(count int, msgs []byte) []byte {
	out := make([]byte, 8, 8+len(msgs))
	binary.BigEndian.PutUint32(out[0:], uint32(4+len(msgs)))
	binary.BigEndian.PutUint32(out[4:], uint32(count))
	return append(out, msgs...)
}

// readFrame reads one frame's payload (message count and messages).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 4 || n > maxFrame {
		return nil, fmt.Errorf("session frame of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

var errShort = errors.New("short session frame")

// decoder walks a frame payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.err = errShort
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) u8() uint8 {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (d *decoder) blob() []byte {
	n := d.u32()
	if n > uint32(len(d.b)) {
		d.err = errShort
		return nil
	}
	return d.take(int(n))
}

// decodeReplies decodes a frame payload of reply messages.
func decodeReplies(payload []byte) ([]sessReply, error) {
	d := &decoder{b: payload}
	count := int(d.u32())
	if count > len(payload)/27+1 {
		return nil, fmt.Errorf("session frame count %d", count)
	}
	out := make([]sessReply, 0, count)
	for i := 0; i < count && d.err == nil; i++ {
		if kind := d.u8(); kind != msgReply {
			return nil, fmt.Errorf("session message kind %#x, want reply", kind)
		}
		r := sessReply{session: d.u64(), nonce: d.u64(), status: d.u8(), seq: d.u64()}
		d.u8() // busy gauge
		reads := int(d.u32())
		if reads > len(d.b)/5+1 {
			return nil, fmt.Errorf("reply with %d reads", reads)
		}
		for j := 0; j < reads && d.err == nil; j++ {
			switch marker := d.u8(); marker {
			case 0, 1:
				r.reads = append(r.reads, types.ReadResult{Found: marker == 1, Value: d.blob()})
			case 2:
				rows := int(d.u32())
				if rows > len(d.b)/12+1 {
					return nil, fmt.Errorf("scan result with %d rows", rows)
				}
				res := types.ReadResult{Scan: true, Rows: make([]types.ScanRow, 0, rows)}
				for k := 0; k < rows && d.err == nil; k++ {
					res.Rows = append(res.Rows, types.ScanRow{Key: d.u64(), Value: d.blob()})
				}
				r.reads = append(r.reads, res)
			default:
				return nil, fmt.Errorf("read marker %d", marker)
			}
		}
		out = append(out, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("session frame with %d trailing bytes", len(d.b))
	}
	return out, nil
}

// sess is one gateway session: bookkeeping with at most one submit
// outstanding.
type sess struct {
	idx      int
	id       uint64
	nonce    uint64
	busy     bool
	id64     uint64
	due      time.Time
	class    class
	ops      []types.Op
	deadline time.Time
	retryAt  time.Time // nonzero while waiting out a StatusBusy
}

// sessLane drives a worker's sessions over one TCP connection.
type sessLane struct {
	conn     net.Conn
	wl       *workload.Workload
	check    readCheck
	sessions []*sess
	byID     map[uint64]*sess
	free     slotQueue
	busyN    int
	out      []byte // submits encoded since the last flush
	outN     int
	lastID   uint64
	// maxSeq is the highest consensus sequence an OK reply carried;
	// zeroSeq counts OK replies with sequence 0.
	maxSeq  uint64
	zeroSeq int64
}

// newSessLane opens sessions first..first+count-1 on conn and starts
// the connection's reader, which hands raw frame payloads to the worker
// and ends when the connection closes.
func newSessLane(w *worker, conn net.Conn, first uint64, count int, wl *workload.Workload, check readCheck, stop <-chan struct{}, wg *sync.WaitGroup) *sessLane {
	l := &sessLane{conn: conn, wl: wl, check: check, byID: make(map[uint64]*sess)}
	for i := 0; i < count; i++ {
		s := &sess{idx: i, id: first + uint64(i), nonce: 1}
		l.sessions = append(l.sessions, s)
		l.byID[s.id] = s
		l.free.put(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			p, err := readFrame(conn)
			if err != nil {
				return
			}
			select {
			case w.in <- p:
			case <-stop:
				return
			}
		}
	}()
	return l
}

func (l *sessLane) outstanding() int { return l.busyN }

func (l *sessLane) issue(w *worker, k uint64, due time.Time) bool {
	si, ok := l.free.get()
	if !ok {
		return false
	}
	s := l.sessions[si]
	id := w.reqID(k)
	t0 := time.Now()
	w.t.late.add(t0.Sub(due), t0.Sub(w.ph.start))
	txn := l.wl.NextTransaction(0, k)
	w.t.drawNS += int64(time.Since(t0))
	w.span(id, lDraw, t0, 1)
	s.busy, s.id64, s.due, s.ops, s.class = true, id, due, txn.Ops, classOf(txn.Ops)
	s.retryAt = time.Time{}
	s.deadline = time.Now().Add(sessionTimeout)
	l.busyN++
	w.t.attempted++
	w.t.requests++
	l.encode(w, s)
	return true
}

func (l *sessLane) encode(w *worker, s *sess) {
	t0 := time.Now()
	n := len(l.out)
	l.out = appendSubmit(l.out, s.id, s.nonce, s.ops)
	l.outN++
	l.lastID = s.id64
	w.span(s.id64, lEncode, t0, len(l.out)-n)
}

// flush writes every submit encoded since the last flush as one frame.
func (l *sessLane) flush(w *worker) {
	if l.outN == 0 {
		return
	}
	t0 := time.Now()
	f := frame(l.outN, l.out)
	if _, err := l.conn.Write(f); err != nil {
		// The connection is gone; the sessions' deadlines fail them at
		// the end of the drain.
		w.t.retries++
	}
	w.span(l.lastID, lSend, t0, len(f))
	l.out, l.outN = l.out[:0], 0
}

func (l *sessLane) handle(w *worker, m any) {
	t0 := time.Now()
	replies, err := decodeReplies(m.([]byte))
	if err != nil {
		w.t.wrong++
		return
	}
	w.t.replyNS += int64(time.Since(t0))
	for i := range replies {
		r := &replies[i]
		w.t.replies++
		s := l.byID[r.session]
		if s == nil || !s.busy || r.nonce != s.nonce {
			continue // a late duplicate of an answered submit
		}
		t1 := time.Now()
		switch r.status {
		case statusOK:
			if r.seq == 0 {
				l.zeroSeq++
			}
			if r.seq > l.maxSeq {
				l.maxSeq = r.seq
			}
			if err := l.check(s.ops, r.reads); err != nil {
				w.t.wrong++
			}
			w.span(s.id64, lReply, t1, 1)
			l.finish(w, s, true)
		case statusBusy:
			w.t.retries++
			s.retryAt = t1.Add(busyBackoff)
			w.span(s.id64, lReply, t1, 1)
		default:
			w.span(s.id64, lReply, t1, 1)
			l.finish(w, s, false)
		}
		w.t.replyNS += int64(time.Since(t1))
	}
}

func (l *sessLane) finish(w *worker, s *sess, ok bool) {
	w.done(s.id64, s.class, 1, s.due, ok)
	s.busy, s.ops = false, nil
	s.nonce++
	l.busyN--
	l.free.put(s.idx)
}

func (l *sessLane) expire(w *worker, now time.Time) {
	for _, s := range l.sessions {
		if !s.busy {
			continue
		}
		switch {
		case !s.retryAt.IsZero() && !now.Before(s.retryAt):
		case now.After(s.deadline):
			w.t.retries++
		default:
			continue
		}
		s.retryAt = time.Time{}
		s.deadline = now.Add(sessionTimeout)
		l.encode(w, s)
	}
	l.flush(w)
}

func (l *sessLane) abandon(w *worker) {
	for _, s := range l.sessions {
		if s.busy {
			l.finish(w, s, false)
		}
	}
}
