package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/gateway"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// directBaseClient is the first direct client identity; it stays clear
// of the cluster's own client ids.
const directBaseClient = 1000

// rig is one running system under test and the load generator attached
// to it.
type rig struct {
	sp       spec
	c        *cluster.Cluster
	gw       *gateway.Gateway
	ln       net.Listener
	serveErr chan error
	conns    []net.Conn
	workers  []*worker
	dlanes   []*directLane
	slanes   []*sessLane
	tr       *tracer
	stop     chan struct{}
	wg       sync.WaitGroup
	dir      string // store root, removed on close
	owned    []store.Store

	storeTaps []*storeTap
	netTaps   []*netTap // one per replica
	clientNet *netTap   // every client-side endpoint (direct or upstream)
}

// rigOptions are what a run varies beyond the spec.
type rigOptions struct {
	seed int64
	tr   *tracer // non-nil: wrap stores and endpoints with taps
	dir  string  // directory for durable stores
	// storeTap, when set, adjusts each replica's store tap (tests use it
	// to stall or drop writes).
	storeTap func(*storeTap)
}

// newRig builds the cluster (and gateway) and the load generator.
func newRig(sp spec, o rigOptions) (r *rig, err error) {
	tr := o.tr
	if tr == nil {
		tr = newTracer()
	}
	r = &rig{sp: sp, tr: tr, stop: make(chan struct{}), dir: o.dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	opts := sp.opts
	opts.Clients = 1 // the cluster's own closed-loop client stays idle
	opts.Seed = clusterSeed
	opts.Workload = sp.table
	if opts.StoreBackend != "mem" && sp.table.Records > 0 {
		// Preloading through the cluster pays one group-commit wait per
		// record; the benchmark loads each durable store itself, in
		// batches, before the replicas start.
		opts.StoreFactory = func(id types.ReplicaID) (store.Store, error) {
			st, err := preloadedStore(opts, sp.table, filepath.Join(o.dir, fmt.Sprintf("replica-%d", id)))
			if st != nil {
				r.owned = append(r.owned, st)
			}
			return st, err
		}
	}
	if o.tr != nil || o.storeTap != nil {
		for i := 0; i < opts.N; i++ {
			t := &storeTap{tr: o.tr, replica: i}
			if o.storeTap != nil {
				o.storeTap(t)
			}
			r.storeTaps = append(r.storeTaps, t)
		}
		opts.StoreWrapper = func(id types.ReplicaID, st store.Store) store.Store {
			return wrapStore(st, r.storeTaps[id])
		}
	}
	if o.tr != nil {
		for i := 0; i < opts.N; i++ {
			r.netTaps = append(r.netTaps, &netTap{tr: o.tr, replica: i})
		}
		r.clientNet = &netTap{tr: o.tr, replica: -1}
		opts.EndpointWrapper = func(id types.ReplicaID, ep transport.Endpoint, _ *crypto.Directory) transport.Endpoint {
			return wrapEndpoint(ep, r.netTaps[id])
		}
	}
	c, err := cluster.New(opts)
	if err != nil {
		return r, err
	}
	r.c = c
	c.Start()
	attach := func(id types.ClientID) transport.Endpoint {
		ep := c.AttachClient(id, 0)
		if r.clientNet != nil {
			ep = wrapEndpoint(ep, r.clientNet)
		}
		return ep
	}

	// At most nproc goroutines generate load. A worker's inbound channel
	// holds a burst of replies for all its slots (four per direct request
	// in flight), so the forwarders rarely wait on it.
	nw := runtime.NumCPU()
	for i := 0; i < nw; i++ {
		r.workers = append(r.workers, &worker{idx: i, of: nw, in: make(chan any, 4096), tr: tr})
	}
	mix := sp.mix
	mix.Seed = o.seed
	wls := make([]*workload.Workload, nw)
	for i := range wls {
		if wls[i], err = workload.New(mix, int64(i)); err != nil {
			return r, err
		}
	}
	var peakWLs []*workload.Workload
	if sp.peakMix != nil {
		pm := *sp.peakMix
		pm.Seed = o.seed
		for i := 0; i < nw; i++ {
			wl, err := workload.New(pm, int64(nw+i))
			if err != nil {
				return r, err
			}
			peakWLs = append(peakWLs, wl)
		}
	}
	if sp.gateway {
		return r, r.startGateway(attach, wls)
	}
	check := fullTableCheck(sp.table.Records, sp.mix.ValueSize)
	for i, w := range r.workers {
		var ids []types.ClientID
		for j := i; j < sp.slots; j += nw {
			ids = append(ids, types.ClientID(directBaseClient+j))
		}
		l, err := newDirectLane(w, ids, opts.N, sp.local, c.Directory(), attach, wls[i], check, r.stop, &r.wg)
		if err != nil {
			return r, err
		}
		if peakWLs != nil {
			l.peakWL = peakWLs[i]
		}
		r.dlanes = append(r.dlanes, l)
		w.lane = l
	}
	return r, nil
}

func (r *rig) startGateway(attach func(types.ClientID) transport.Endpoint, wls []*workload.Workload) error {
	gw, err := gateway.New(gateway.Config{
		N:         r.sp.opts.N,
		Directory: r.c.Directory(),
		Endpoint: func(id types.ClientID) (transport.Endpoint, error) {
			return attach(id), nil
		},
		Upstreams: r.sp.gwUpstreams,
		Batch:     r.sp.gwBatch,
	})
	if err != nil {
		return err
	}
	r.gw = gw
	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- gw.Serve(r.ln) }()
	check := sparseTableCheck(r.sp.mix.ValueSize)
	per := r.sp.slots / len(r.workers)
	for i, w := range r.workers {
		conn, err := net.Dial("tcp", r.ln.Addr().String())
		if err != nil {
			return err
		}
		r.conns = append(r.conns, conn)
		l := newSessLane(w, conn, uint64(1+i*per), per, wls[i], check, r.stop, &r.wg)
		r.slanes = append(r.slanes, l)
		w.lane = l
	}
	return nil
}

// firstReply sends one request and waits for its accepted reply.
func (r *rig) firstReply() error {
	now := time.Now()
	t := runPhase(r.workers, &phase{limit: 1, start: now, stop: now.Add(time.Hour), drainBy: now.Add(30 * time.Second), salt: 1})
	if t.completed != 1 {
		return fmt.Errorf("first request not answered")
	}
	return nil
}

// close stops the load generator, the gateway and the cluster, and
// waits for every goroutine the rig started.
func (r *rig) close() {
	close(r.stop)
	for _, conn := range r.conns {
		conn.Close()
	}
	if r.gw != nil {
		r.gw.Close()
		if r.serveErr != nil {
			<-r.serveErr
		}
	}
	for _, l := range r.dlanes {
		l.close()
	}
	if r.c != nil {
		r.c.Stop()
	}
	for _, st := range r.owned {
		st.Close()
	}
	r.wg.Wait()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// preloadBatch is how many records one preload PutMany writes.
const preloadBatch = 4096

// preloadedStore opens a durable store as the cluster would for opts and
// writes the table's records into it, the values workload.InitTable
// writes.
func preloadedStore(opts cluster.Options, table workload.Config, dir string) (store.Store, error) {
	st, err := store.OpenBackend(store.BackendConfig{
		Backend:    opts.StoreBackend,
		Dir:        dir,
		ExecShards: opts.ExecuteThreads,
		SyncLinger: opts.StoreSync,
		ReadIndex:  true,
	})
	if err != nil {
		return nil, err
	}
	b, ok := st.(store.Batcher)
	if !ok {
		return st, fmt.Errorf("preload: %s store cannot batch writes", opts.StoreBackend)
	}
	val := make([]byte, table.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	kvs := make([]store.KV, 0, preloadBatch)
	for k := uint64(0); k < table.Records; k++ {
		kvs = append(kvs, store.KV{Key: k, Value: val})
		if len(kvs) == preloadBatch || k == table.Records-1 {
			if err := b.PutMany(kvs); err != nil {
				return st, fmt.Errorf("preload: %w", err)
			}
			kvs = kvs[:0]
		}
	}
	return st, nil
}

// storeBytes sums the files under the durable stores' directories.
func (r *rig) storeBytes() int64 {
	if r.dir == "" {
		return 0
	}
	var n int64
	filepath.Walk(r.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
