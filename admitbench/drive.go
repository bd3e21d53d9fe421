package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
)

// outcome is the server's answer to one arrival.
type outcome struct {
	done     chan struct{}
	accepted bool
	// rejected marks a 422 capacity rejection.
	rejected         bool
	id               int64
	cost, backupCost float64
	latency          time.Duration
	timed            bool
	// traced marks an admission sent inside a traced window.
	traced   bool
	departed bool
}

// logEntry is one operation in the order the client issued it: the
// sequence the reference replays. Requests are not kept: the reference
// draws them again from the seed (regenerate), so the client's own
// bookkeeping stays small next to the server's heap.
type logEntry struct {
	kind uint8
	flow int32
	edge int32
}

// faultRecord is one fault cycle as the server played it.
type faultRecord struct {
	edge  graph.EdgeID
	timed bool
	// events is the server's repair log for the cycle and table the
	// digest of its flow table once the fault settled, both in arrival
	// indices.
	events  []refFaultEvent
	table   uint64
	apply   time.Duration
	restore time.Duration
	settle  time.Duration
}

// flowState is one live flow as the fault check compares it.
type flowState struct {
	flow             int
	cost, backupCost float64
	backup           bool
}

// flowDigest hashes a flow table in arrival order (FNV-1a).
func flowDigest(table []flowState) uint64 {
	sort.Slice(table, func(i, k int) bool { return table[i].flow < table[k].flow })
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, f := range table {
		mix(uint64(f.flow))
		mix(math.Float64bits(f.cost))
		mix(math.Float64bits(f.backupCost))
		if f.backup {
			mix(1)
		}
	}
	mix(uint64(len(table)))
	return h
}

// runner drives one server through one trace.
type runner struct {
	w      *workload
	net    *network.Network
	srv    *server.Server
	cl     *client.Client
	hs     *http.Server
	walDir string
	tr     *trace
	sem    chan struct{}
	ctx    context.Context

	flows  []*outcome
	log    []logEntry
	faults []faultRecord
	// seed is the residual network before the first flow; traceSeed
	// drew the trace.
	seed      server.NetworkState
	traceSeed int64

	// timed marks operations of the timed phase; traced marks the
	// current window as traced.
	timed  bool
	traced bool

	attempted int
	mu        sync.Mutex
	failed    int
	problems  []string
	// releases holds DELETE round trips of the timed phase; ids maps
	// server flow IDs to arrival indices.
	releases []time.Duration
	ids      map[int64]int
}

// networkSeed draws every workload's substrate. The network is one fixed
// draw so that runs under different trace seeds measure the same system:
// a fresh random network per seed moves per-admission cost by a quarter.
const networkSeed = 1

// startRunner builds the workload's network and an in-process server
// listening on a loopback port, and probes the seed residuals.
func startRunner(ctx context.Context, w *workload, seed int64, walDir string) (*runner, error) {
	nw, err := w.newNet(rand.New(rand.NewSource(networkSeed)))
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	cfg := server.Config{Net: nw, Seed: seed}
	if w.wal {
		cfg.WALDir, cfg.WALSync = walDir, "off"
	}
	if w.protect {
		cfg.RepairBackoff, cfg.RepairBackoffCap = time.Millisecond, 4*time.Millisecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	tr, err := newTrace(w, nw, seed)
	if err != nil {
		_ = hs.Close()
		srv.Close()
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: w.inFlight + 2, DisableCompression: true}
	r := &runner{
		w: w, net: nw, srv: srv, hs: hs, walDir: walDir, tr: tr, ctx: ctx, traceSeed: seed,
		cl:  client.New("http://"+ln.Addr().String(), &http.Client{Transport: transport}),
		sem: make(chan struct{}, w.inFlight),
		ids: make(map[int64]int),
	}
	if r.seed, err = r.cl.Network(ctx); err != nil {
		r.close()
		return nil, fmt.Errorf("probe seed network: %w", err)
	}
	return r, nil
}

// close stops the HTTP listener and drains the server. A durable run's
// log directory is removed afterwards.
func (r *runner) close() {
	_ = r.hs.Close()
	r.srv.Close()
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir)
	}
}

// fail records one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// quiesce waits until no request is in flight; resume lets them flow.
func (r *runner) quiesce() {
	for i := 0; i < cap(r.sem); i++ {
		r.sem <- struct{}{}
	}
}

func (r *runner) resume() {
	for i := 0; i < cap(r.sem); i++ {
		<-r.sem
	}
}

// phase plays the trace until stop says so at the end of a round.
func (r *runner) phase(stop func(arrivals int) bool) error {
	arrivals := 0
	for {
		ev, endsRound, err := r.tr.Next()
		if err != nil {
			return err
		}
		if ev.kind == evArrival {
			arrivals++
		}
		if err := r.handle(ev); err != nil {
			return err
		}
		if endsRound && stop(arrivals) {
			r.quiesce()
			r.resume()
			return nil
		}
	}
}

func (r *runner) handle(ev event) error {
	switch ev.kind {
	case evArrival:
		o := &outcome{done: make(chan struct{}), timed: r.timed, traced: r.traced}
		r.flows = append(r.flows, o)
		r.log = append(r.log, logEntry{kind: evArrival, flow: int32(ev.flow)})
		r.sem <- struct{}{}
		r.attempted++
		go r.post(o, ev.flow, ev.req)
	case evDeparture:
		o := r.flows[ev.flow]
		<-o.done
		o.done = nil
		r.depart(ev.flow, o, true)
	case evFault:
		r.quiesce()
		defer r.resume()
		return r.faultCycle(ev.edge)
	}
	return nil
}

func (r *runner) post(o *outcome, flow int, req server.FlowRequest) {
	defer func() { <-r.sem }()
	defer close(o.done)
	begin := time.Now()
	info, err := r.cl.CreateFlow(r.ctx, req)
	o.latency = time.Since(begin)
	var apiErr *client.APIError
	switch {
	case err == nil:
		o.accepted, o.id = true, info.ID
		r.mu.Lock()
		r.ids[info.ID] = flow
		r.mu.Unlock()
		o.cost, o.backupCost = info.Cost.Total, info.BackupCost.Total
	case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusUnprocessableEntity:
		o.rejected = true
	default:
		r.fail("POST flow %d: %v", flow, err)
	}
	if o.traced && o.accepted {
		// Tracing: fetch the admission's journal timeline, as an
		// operator explaining one flow would.
		if _, err := r.cl.FlowEvents(r.ctx, o.id, 0); err != nil {
			r.fail("GET flow %d events: %v", flow, err)
		}
	}
}

// depart logs a departure and deletes the flow if the server admitted
// it. async sends the DELETE through the in-flight window.
func (r *runner) depart(flow int, o *outcome, async bool) {
	r.log = append(r.log, logEntry{kind: evDeparture, flow: int32(flow)})
	o.departed = true
	if !o.accepted {
		return
	}
	r.sem <- struct{}{}
	r.attempted++
	del := func() {
		defer func() { <-r.sem }()
		begin := time.Now()
		_, err := r.cl.ReleaseFlow(r.ctx, o.id)
		rtt := time.Since(begin)
		if err != nil {
			r.fail("DELETE flow %d: %v", flow, err)
			return
		}
		r.mu.Lock()
		delete(r.ids, o.id)
		if o.timed {
			r.releases = append(r.releases, rtt)
		}
		r.mu.Unlock()
	}
	if async {
		go del()
	} else {
		del()
	}
}

// faultCycle takes one edge down over HTTP, waits until every failover,
// re-protect and repair it caused has finished, restores the edge and
// settles again. Nothing else is in flight.
func (r *runner) faultCycle(e graph.EdgeID) error {
	rec := faultRecord{edge: e, timed: r.timed}
	protected := make(map[int64]bool)
	for _, info := range r.srv.Flows() {
		if info.State == server.FlowStateActive && info.BackupActive {
			protected[info.ID] = true
		}
	}
	logFrom := len(r.srv.RepairLog())
	req := server.FaultRequest{Kind: network.FaultEdgeDown.String(), Link: int(e)}
	r.log = append(r.log, logEntry{kind: evFault, edge: int32(e)})
	r.attempted += 2

	begin := time.Now()
	_, err := r.cl.ApplyFault(r.ctx, req)
	rec.apply = time.Since(begin)
	if err != nil {
		r.fail("apply edge-down %d: %v", e, err)
	}
	settle := time.Now()
	if err := r.settle(); err != nil {
		return err
	}
	rec.settle = time.Since(settle)
	repairs, flows := r.srv.RepairLog()[logFrom:], r.srv.Flows()
	if err := survived(protected, repairs, flows); err != nil {
		r.fail("edge-down %d: %v", e, err)
	}
	// Only a digest of the settled table is kept, in flow indices: the
	// client's bookkeeping must not grow the heap it measures.
	r.mu.Lock()
	for _, ev := range repairs {
		rec.events = append(rec.events, refFaultEvent{flow: r.ids[ev.Flow], outcome: ev.Outcome})
	}
	var table []flowState
	for _, info := range flows {
		if info.State == server.FlowStateActive {
			table = append(table, flowState{flow: r.ids[info.ID], cost: info.Cost.Total,
				backup: info.BackupActive, backupCost: info.BackupCost.Total})
		}
	}
	r.mu.Unlock()
	rec.table = flowDigest(table)

	begin = time.Now()
	_, err = r.cl.RestoreFault(r.ctx, req)
	rec.restore = time.Since(begin)
	if err != nil {
		r.fail("restore edge-down %d: %v", e, err)
	}
	settle = time.Now()
	if err := r.settle(); err != nil {
		return err
	}
	rec.settle += time.Since(settle)
	r.faults = append(r.faults, rec)
	return nil
}

// settle waits until the repair controller is idle, then checks that
// every committed flow still fits the residual network.
func (r *runner) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for r.srv.PendingRepairs() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("repairs did not settle within 30s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if bad := r.srv.RevalidateFlows(); len(bad) > 0 {
		r.fail("settle: %d flows no longer fit the residual network (first %d)", len(bad), bad[0])
	}
	return nil
}

// record ends a run for the checks: it snapshots the network, checks
// that every committed flow still fits, deletes every flow still held,
// reads the final network over HTTP and draws the requests again.
func (r *runner) record(timedFrom, firstTimed int) (*runRecord, error) {
	rec := &runRecord{
		w: r.w, flows: r.flows, faults: r.faults, seed: r.seed,
		timedFrom: timedFrom, midAt: len(r.log), mid: r.srv.NetworkState(),
	}
	if bad := r.srv.RevalidateFlows(); len(bad) > 0 {
		r.fail("end of timed phase: %d flows no longer fit the residual network", len(bad))
	}
	r.drain()
	var err error
	if rec.final, err = r.cl.Network(r.ctx); err != nil {
		return nil, fmt.Errorf("final network: %w", err)
	}
	rec.log = r.log
	for i := firstTimed; i < firstTimed+r.w.window && i < len(r.flows); i++ {
		rec.window = append(rec.window, i)
	}
	if rec.reqs, err = regenerate(r.w, r.net, r.traceSeed, len(r.flows)); err != nil {
		return nil, err
	}
	return rec, nil
}

// drain deletes every flow still held, in arrival order.
func (r *runner) drain() {
	for i, o := range r.flows {
		if !o.departed {
			r.depart(i, o, false)
		}
	}
}

// scrape reads the server's telemetry registry as JSON.
func (r *runner) scrape() (metricsSnap, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.cl.BaseURL()+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels []struct{ Key, Value string } `json:"labels"`
				Value  float64                       `json:"value"`
				Sum    float64                       `json:"sum"`
				Count  float64                       `json:"count"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	snap := make(metricsSnap)
	for _, f := range body.Families {
		for _, s := range f.Series {
			key := f.Name
			for _, l := range s.Labels {
				key += "," + l.Key + "=" + l.Value
			}
			snap[key] = series{value: s.Value, sum: s.Sum, count: s.Count}
		}
	}
	return snap, nil
}

// metricsSnap maps "family,label=value,..." to one series reading.
type metricsSnap map[string]series

type series struct{ value, sum, count float64 }

// delta returns b minus a for one series.
func delta(a, b metricsSnap, key string) series {
	return series{value: b[key].value - a[key].value, sum: b[key].sum - a[key].sum, count: b[key].count - a[key].count}
}

// walDirFor returns a fresh durable-state directory under the checkout's
// build directory.
func walDirFor(run int) string {
	return filepath.Join(".bench_build", fmt.Sprintf("admitbench-wal-%d-%d", os.Getpid(), run))
}

// quantile returns the q-quantile of durations by the nearest-rank rule.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
