package main

import (
	"container/heap"
	"fmt"
	"math/rand"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/topo"
)

// workload is one traffic mix: a seeded network, a seeded flow trace in
// logical time, and the server configuration and checks that go with it.
type workload struct {
	name string
	// inFlight is the most requests the client keeps outstanding.
	inFlight int
	// population is the mean flow holding time in arrivals: with one
	// arrival per logical time unit, the offered steady population.
	population float64
	// warmup is the number of untimed arrivals that fill the network to
	// its steady population before the timed phase.
	warmup int
	// round is the number of arrivals in one round; a run times whole
	// rounds only. protect workloads end each round with one fault cycle.
	round int
	// window is the number of timed arrivals accepted_flows and mean_cost
	// are read over; a run never stops before it has timed them all.
	window int
	// protect sends every flow with protection "backup" and ends each
	// round with an edge-down, settle, restore, settle cycle.
	protect bool
	// wal turns durability on (fsync policy off).
	wal bool
	// exact demands that every accept/reject and cost equal the
	// sequential reference replay float-exactly; otherwise the accepted
	// share and mean cost must agree within shareTol and costTol.
	exact    bool
	shareTol float64
	costTol  float64
	// newNet builds the substrate from the run's seed.
	newNet func(rng *rand.Rand) (*network.Network, error)
	// newFlow draws one flow request for a network of n nodes.
	newFlow func(rng *rand.Rand, n int) (server.FlowRequest, error)
}

// workloads lists the benchmark's traffic mixes by name.
var workloads = map[string]*workload{
	"hybrid-knee":    hybridKnee(),
	"chain-durable":  chainDurable(),
	"protect-faults": protectFaults(),
}

// hybridKnee is a 200-node Table 2 network with capacities lowered until
// the steady population of size-6, width-3 hybrid SFCs sits at the knee
// of the acceptance curve.
func hybridKnee() *workload {
	return &workload{
		name:       "hybrid-knee",
		inFlight:   1,
		population: 240,
		warmup:     720,
		round:      50,
		window:     3000,
		exact:      true,
		newNet: func(rng *rand.Rand) (*network.Network, error) {
			cfg := netgen.Default()
			cfg.Nodes = 200
			cfg.LinkCapacity = 10
			cfg.InstanceCapacity = 6
			return netgen.Generate(cfg, rng)
		},
		newFlow: hybridFlow(sfcgen.Config{Size: 6, LayerWidth: 3, VNFKinds: 10}, ""),
	}
}

// chainDurable is a 50-node network with ample capacity, sequential
// 3-VNF chains standardized server-side, a WAL without fsync and two
// requests in flight: the per-request layers around the embed dominate.
func chainDurable() *workload {
	return &workload{
		name:       "chain-durable",
		inFlight:   2,
		population: 200,
		warmup:     600,
		round:      100,
		window:     3000,
		wal:        true,
		shareTol:   0.01,
		costTol:    0.01,
		newNet: func(rng *rand.Rand) (*network.Network, error) {
			cfg := netgen.Default()
			cfg.Nodes = 50
			return netgen.Generate(cfg, rng)
		},
		newFlow: func(rng *rand.Rand, n int) (server.FlowRequest, error) {
			perm := rng.Perm(10)
			src, dst := endpoints(rng, n)
			return server.FlowRequest{
				Chain: []int{perm[0] + 1, perm[1] + 1, perm[2] + 1}, MaxWidth: 1,
				Src: src, Dst: dst, Rate: 1, Size: 1,
			}, nil
		},
	}
}

// protectFaults is a k=8 fat-tree populated with the Table 2 VNF
// deployment, protected size-4, width-2 hybrid SFCs, and one seeded
// edge-down per round.
func protectFaults() *workload {
	return &workload{
		name:       "protect-faults",
		inFlight:   1,
		population: 120,
		warmup:     360,
		round:      40,
		window:     2000,
		protect:    true,
		exact:      true,
		newNet: func(rng *rand.Rand) (*network.Network, error) {
			cfg := netgen.Default()
			g, err := topo.FatTree(8, cfg.LinkPricer(rng), 16)
			if err != nil {
				return nil, err
			}
			cfg.InstanceCapacity = 16
			return netgen.Populate(g, cfg, rng)
		},
		newFlow: hybridFlow(sfcgen.Config{Size: 4, LayerWidth: 2, VNFKinds: 10}, server.ProtectionBackup),
	}
}

// hybridFlow draws sfcgen DAG-SFCs sent in the layered "1,2;3" syntax.
func hybridFlow(cfg sfcgen.Config, protection string) func(*rand.Rand, int) (server.FlowRequest, error) {
	return func(rng *rand.Rand, n int) (server.FlowRequest, error) {
		dag, err := sfcgen.Generate(cfg, rng)
		if err != nil {
			return server.FlowRequest{}, err
		}
		src, dst := endpoints(rng, n)
		return server.FlowRequest{
			SFC: sfc.Format(dag), Src: src, Dst: dst, Rate: 1, Size: 1,
			Protection: protection,
		}, nil
	}
}

// endpoints draws a distinct source and destination.
func endpoints(rng *rand.Rand, n int) (int, int) {
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// Trace events. An arrival posts flow Flow; a departure deletes it (if it
// was admitted); a fault cycle takes edge Edge down and restores it.
const (
	evArrival = iota
	evDeparture
	evFault
)

type event struct {
	kind int
	flow int
	req  server.FlowRequest
	edge graph.EdgeID
}

// trace generates a workload's event stream lazily in logical time:
// Poisson arrivals at rate 1, exponential holding times with mean
// population, departures merged in time order, and for protect
// workloads one fault cycle after every round of arrivals. The stream
// depends on the seed alone, never on the server's answers.
type trace struct {
	w        *workload
	nodes    int
	edges    int
	rng      *rand.Rand
	faultRng *rand.Rand
	now      float64
	arrivals int
	pending  depHeap
	// next is the upcoming arrival, drawn ahead so departures due before
	// it are emitted first.
	next     event
	nextAt   float64
	faultDue bool
}

func newTrace(w *workload, net *network.Network, seed int64) (*trace, error) {
	t := &trace{
		w: w, nodes: net.G.NumNodes(), edges: net.G.NumEdges(),
		rng:      rand.New(rand.NewSource(seed)),
		faultRng: rand.New(rand.NewSource(seed ^ 0x6661756c74)),
	}
	if err := t.drawArrival(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *trace) drawArrival() error {
	req, err := t.w.newFlow(t.rng, t.nodes)
	if err != nil {
		return fmt.Errorf("trace: draw flow: %w", err)
	}
	t.nextAt = t.now + t.rng.ExpFloat64()
	hold := t.rng.ExpFloat64() * t.w.population
	t.next = event{kind: evArrival, flow: t.arrivals, req: req}
	heap.Push(&t.pending, departure{at: t.nextAt + hold, flow: t.arrivals})
	t.arrivals++
	return nil
}

// Next returns the next event and whether it closes a round (the last
// event of a round: its final arrival, or the fault cycle after it).
func (t *trace) Next() (event, bool, error) {
	if t.faultDue {
		t.faultDue = false
		return event{kind: evFault, edge: graph.EdgeID(t.faultRng.Intn(t.edges))}, true, nil
	}
	if len(t.pending) > 0 && t.pending[0].at < t.nextAt {
		d := heap.Pop(&t.pending).(departure)
		return event{kind: evDeparture, flow: d.flow}, false, nil
	}
	ev := t.next
	t.now = t.nextAt
	if err := t.drawArrival(); err != nil {
		return event{}, false, err
	}
	endsRound := (ev.flow+1)%t.w.round == 0
	if endsRound && t.w.protect {
		t.faultDue = true
		endsRound = false
	}
	return ev, endsRound, nil
}

// regenerate draws the first n arrivals' requests of a seed's trace
// again: the stream depends on the seed alone.
func regenerate(w *workload, net *network.Network, seed int64, n int) ([]server.FlowRequest, error) {
	t, err := newTrace(w, net, seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]server.FlowRequest, 0, n)
	for len(reqs) < n {
		ev, _, err := t.Next()
		if err != nil {
			return nil, err
		}
		if ev.kind == evArrival {
			reqs = append(reqs, ev.req)
		}
	}
	return reqs, nil
}

type departure struct {
	at   float64
	flow int
}

// depHeap orders pending departures by logical time.
type depHeap []departure

func (h depHeap) Len() int            { return len(h) }
func (h depHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h depHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x interface{}) { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
