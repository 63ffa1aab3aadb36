package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/gateway"
	"resilientdb/internal/store"
	"resilientdb/internal/types"
)

// quiesceTimeout bounds how long the checks wait for the replicas to
// agree on one executed height after the load stops.
const quiesceTimeout = 30 * time.Second

// acks is what the load generator saw acknowledged.
type acks struct {
	// direct maps each direct client to its highest sequence acknowledged
	// through consensus.
	direct map[types.ClientID]uint64
	// gwMaxSeq is the highest sequence an OK gateway reply carried: the
	// gateway numbers a reply with its upstream worker's client sequence
	// for that transaction, so some upstream identity's dedup mark must
	// reach it on every replica. gwZeroSeq counts OK gateway replies with
	// sequence 0.
	gwMaxSeq  uint64
	gwZeroSeq int64
	// upstreams are the gateway's upstream client identities.
	upstreams []types.ClientID
}

// acks gathers what the load generator saw acknowledged.
func (r *rig) acks() acks {
	a := acks{direct: map[types.ClientID]uint64{}}
	for _, l := range r.dlanes {
		l.ackedSeqs(a.direct)
	}
	for _, l := range r.slanes {
		a.gwMaxSeq = max(a.gwMaxSeq, l.maxSeq)
		a.gwZeroSeq += l.zeroSeq
	}
	if r.gw != nil {
		for i := 0; i < r.sp.gwUpstreams; i++ {
			a.upstreams = append(a.upstreams, gateway.DefaultBaseClient+types.ClientID(i))
		}
	}
	return a
}

// checkCluster runs the correctness checks on a stopped-load cluster and
// returns every violation found.
func checkCluster(c *cluster.Cluster, n int, gw *gateway.Gateway, a acks) []string {
	var bad []string
	if !c.WaitForQuiesce(quiesceTimeout, nil) {
		bad = append(bad, "replicas did not quiesce on one executed height")
	}
	if err := c.VerifyLedgers(nil); err != nil {
		bad = append(bad, fmt.Sprintf("ledgers: %v", err))
	}
	var ref [32]byte
	var refN int
	for i := 0; i < n; i++ {
		d, rows, err := storeDigest(c.Store(i))
		if err != nil {
			bad = append(bad, fmt.Sprintf("replica %d store walk: %v", i, err))
			continue
		}
		if i == 0 {
			ref, refN = d, rows
		} else if d != ref {
			bad = append(bad, fmt.Sprintf("replica %d store (%d rows) differs from replica 0 (%d rows)", i, rows, refN))
		}
	}
	for i := 0; i < n; i++ {
		rep := c.Replica(i)
		snap := rep.DedupSnapshot()
		for id, seq := range a.direct {
			if snap[id] < seq {
				bad = append(bad, fmt.Sprintf("replica %d dedup mark %d for client %d below acknowledged %d", i, snap[id], id, seq))
			}
		}
		var upMark uint64
		for _, id := range a.upstreams {
			upMark = max(upMark, snap[id])
		}
		if upMark < a.gwMaxSeq {
			bad = append(bad, fmt.Sprintf("replica %d gateway dedup marks reach %d, below acknowledged gateway seq %d", i, upMark, a.gwMaxSeq))
		}
		st := rep.Stats()
		for _, f := range []struct {
			name string
			v    uint64
		}{
			{"AuthFailures", st.AuthFailures},
			{"DecodeFailures", st.DecodeFailures},
			{"Evidence", st.Evidence},
			{"StoreWriteFailures", st.StoreWriteFailures},
		} {
			if f.v != 0 {
				bad = append(bad, fmt.Sprintf("replica %d %s = %d", i, f.name, f.v))
			}
		}
	}
	if gw != nil {
		if m := gw.Stats().ReadMismatches; m != 0 {
			bad = append(bad, fmt.Sprintf("gateway ReadMismatches = %d", m))
		}
	}
	if a.gwZeroSeq != 0 {
		bad = append(bad, fmt.Sprintf("%d OK gateway replies carried seq 0", a.gwZeroSeq))
	}
	return bad
}

// storeDigest walks every record of st in key order and hashes it.
func storeDigest(st store.Store) ([32]byte, int, error) {
	sc, ok := st.(store.Scanner)
	if !ok {
		return [32]byte{}, 0, fmt.Errorf("store is not a Scanner")
	}
	h := sha256.New()
	rows := 0
	var hdr [12]byte
	err := sc.Scan(0, math.MaxUint64, func(k uint64, v []byte) bool {
		binary.BigEndian.PutUint64(hdr[:8], k)
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(v)))
		h.Write(hdr[:])
		h.Write(v)
		rows++
		return true
	})
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, rows, err
}
