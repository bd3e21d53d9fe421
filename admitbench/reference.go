package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
)

// The reference is a sequential model of the server built on the core
// library alone: each logged operation is replayed in order through
// core.Embed, core.Commit and core.Release on a private ledger, with the
// server's default MBBE options. Protection and faults follow the
// server's documented semantics: a protected admission reserves a
// primary plus a link-disjoint (node-disjoint when possible) backup or
// nothing; an edge-down fails over a hit primary to its surviving
// backup, drops a hit backup, strands a flow with neither, then
// re-protects and repairs in FIFO order. Every placement the model makes
// is also re-priced and capacity-checked by this file's own eq. 1-3
// accounting, which shares no code with core.

// refFlow is one flow the model holds.
type refFlow struct {
	p      *core.Problem
	sol    *core.Solution
	backup *core.Solution
	// cost and backupCost are core.Commit's totals, the figures the
	// server reports.
	cost, backupCost float64
	protect          bool
}

// refOutcome is the model's answer to one arrival.
type refOutcome struct {
	accepted         bool
	cost, backupCost float64
}

// refFaultEvent is one flow the model's fault handling touched.
type refFaultEvent struct {
	flow    int
	outcome string // revalidated, failover, backup-lost, repaired, evicted
}

// model is the sequential reference.
type model struct {
	net    *network.Network
	ledger *network.Ledger
	opts   core.Options
	flows  map[int]*refFlow
	// own is the independent usage accounting.
	own *ownUsage
	// down is the set of edges an active edge-down pins to zero.
	down map[graph.EdgeID]bool
	// probe, when set, times core calls and observes every embed.
	probe *corePhases
}

func newModel(net *network.Network, probe *corePhases) *model {
	opts := core.MBBEOptions()
	if probe != nil {
		opts.Workers = 1
		opts.Observer = probe
	}
	return &model{
		net: net, ledger: network.NewLedger(net), opts: opts,
		flows: make(map[int]*refFlow), own: newOwnUsage(net),
		down: make(map[graph.EdgeID]bool), probe: probe,
	}
}

// problem builds the core instance for a wire request, standardizing a
// chain the way the server does (stock rules, default width 3).
func (m *model) problem(req server.FlowRequest) (*core.Problem, error) {
	var dag sfc.DAGSFC
	if req.SFC != "" {
		parsed, err := sfc.Parse(req.SFC)
		if err != nil {
			return nil, err
		}
		dag = parsed
	} else {
		chain := make([]network.VNFID, len(req.Chain))
		for i, id := range req.Chain {
			chain[i] = network.VNFID(id)
		}
		width := req.MaxWidth
		if width == 0 {
			width = 3
		}
		dag = sfc.ChainToDAG(chain, sfc.StockRules(), width)
	}
	return &core.Problem{
		Net: m.net, Ledger: m.ledger, SFC: dag,
		Src: graph.NodeID(req.Src), Dst: graph.NodeID(req.Dst),
		Rate: req.Rate, Size: req.Size,
	}, nil
}

// embed runs one search; ErrNoEmbedding comes back as (nil, nil).
func (m *model) embed(p *core.Problem, opts core.Options) (*core.Result, error) {
	if m.probe != nil {
		m.probe.begin()
	}
	res, err := core.Embed(p, opts)
	if m.probe != nil {
		m.probe.end()
	}
	if errors.Is(err, core.ErrNoEmbedding) {
		return nil, nil
	}
	return res, err
}

// embedBackup searches a backup disjoint from primary on p's ledger
// (which must already hold the primary): node-disjoint first, then
// link-disjoint only.
func (m *model) embedBackup(p *core.Problem, primary *core.Solution) (*core.Result, error) {
	edges := make(map[graph.EdgeID]bool)
	nodes := make(map[graph.NodeID]bool)
	primary.VisitEdges(func(e graph.EdgeID) {
		edges[e] = true
		ed := m.net.G.Edge(e)
		nodes[ed.A], nodes[ed.B] = true, true
	})
	primary.VisitNodes(func(v graph.NodeID) { nodes[v] = true })
	delete(nodes, p.Src)
	delete(nodes, p.Dst)
	opts := m.opts
	opts.BannedEdges, opts.BannedNodes = edges, nodes
	res, err := m.embed(p, opts)
	if res != nil || err != nil {
		return res, err
	}
	opts.BannedNodes = nil
	return m.embed(p, opts)
}

// commit reserves a solution on the model ledger and in the own
// accounting, returning core's priced total.
func (m *model) commit(p *core.Problem, s *core.Solution) (float64, error) {
	var begin time.Time
	if m.probe != nil {
		begin = time.Now()
	}
	cb, err := core.Commit(p, s)
	if m.probe != nil && m.probe.on {
		m.probe.commit.add(time.Since(begin))
	}
	if err != nil {
		return 0, fmt.Errorf("reference commit: %w", err)
	}
	if err := m.own.place(p, s, m.down); err != nil {
		return 0, err
	}
	return cb.Total(), nil
}

func (m *model) release(p *core.Problem, s *core.Solution) error {
	var begin time.Time
	if m.probe != nil {
		begin = time.Now()
	}
	err := core.Release(p, s)
	if m.probe != nil && m.probe.on {
		m.probe.release.add(time.Since(begin))
	}
	if err != nil {
		return fmt.Errorf("reference release: %w", err)
	}
	m.own.remove(p, s)
	return nil
}

// arrive admits one flow the way the server would.
func (m *model) arrive(flow int, req server.FlowRequest) (refOutcome, error) {
	p, err := m.problem(req)
	if err != nil {
		return refOutcome{}, err
	}
	res, err := m.embed(p, m.opts)
	if err != nil || res == nil {
		return refOutcome{}, err
	}
	f := &refFlow{p: p, sol: res.Solution, protect: req.Protection == server.ProtectionBackup}
	var backup *core.Result
	if f.protect {
		trial := *p
		trial.Ledger = m.ledger.Overlay()
		if _, err := core.Commit(&trial, res.Solution); err != nil {
			return refOutcome{}, fmt.Errorf("reference: primary does not fit its own ledger: %w", err)
		}
		backup, err = m.embedBackup(&trial, res.Solution)
		trial.Ledger.Discard()
		if err != nil || backup == nil {
			return refOutcome{}, err
		}
	}
	if f.cost, err = m.commit(p, res.Solution); err != nil {
		return refOutcome{}, err
	}
	if backup != nil {
		f.backup = backup.Solution
		if f.backupCost, err = m.commit(p, backup.Solution); err != nil {
			return refOutcome{}, err
		}
	}
	m.flows[flow] = f
	return refOutcome{accepted: true, cost: f.cost, backupCost: f.backupCost}, nil
}

// depart releases a flow's primary and backup, if the model holds it.
func (m *model) depart(flow int) error {
	f, ok := m.flows[flow]
	if !ok {
		return nil
	}
	delete(m.flows, flow)
	if err := m.release(f.p, f.sol); err != nil {
		return err
	}
	if f.backup != nil {
		return m.release(f.p, f.backup)
	}
	return nil
}

// edgeDown applies an edge-down and settles it: every hit flow is judged
// against the post-fault ledger net of its own reservations, then acted
// on in flow order, then re-protects and repairs run first in, first out.
func (m *model) edgeDown(e graph.EdgeID) ([]refFaultEvent, error) {
	fault := network.Fault{Kind: network.FaultEdgeDown, Link: e}
	if err := m.ledger.ApplyFault(fault); err != nil {
		return nil, fmt.Errorf("reference: apply %v: %w", fault, err)
	}
	m.down[e] = true
	ids := make([]int, 0, len(m.flows))
	for id := range m.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	type verdict struct {
		id           int
		priOK, bakOK bool
	}
	var verdicts []verdict
	for _, id := range ids {
		f := m.flows[id]
		if !faults.Hits(m.net, f.sol, fault) && (f.backup == nil || !faults.Hits(m.net, f.backup, fault)) {
			continue
		}
		v := verdict{id: id}
		trial := *f.p
		trial.Ledger = m.ledger.Overlay()
		_ = core.Release(&trial, f.sol)
		if f.backup != nil {
			_ = core.Release(&trial, f.backup)
		}
		v.priOK = core.Validate(&trial, f.sol) == nil
		if f.backup != nil {
			if v.priOK {
				if _, err := core.Commit(&trial, f.sol); err != nil {
					v.priOK = false
				}
			}
			v.bakOK = core.Validate(&trial, f.backup) == nil
		}
		trial.Ledger.Discard()
		verdicts = append(verdicts, v)
	}

	var events []refFaultEvent
	type task struct {
		id     int
		repair bool
	}
	var queue, repairs []task
	for _, v := range verdicts {
		f := m.flows[v.id]
		switch {
		case v.priOK && (f.backup == nil || v.bakOK):
			events = append(events, refFaultEvent{v.id, "revalidated"})
		case v.priOK:
			if err := m.release(f.p, f.backup); err != nil {
				return nil, err
			}
			f.backup, f.backupCost = nil, 0
			events = append(events, refFaultEvent{v.id, "backup-lost"})
			queue = append(queue, task{id: v.id})
		case f.backup != nil && v.bakOK:
			if err := m.release(f.p, f.sol); err != nil {
				return nil, err
			}
			f.sol, f.cost = f.backup, f.backupCost
			f.backup, f.backupCost = nil, 0
			events = append(events, refFaultEvent{v.id, "failover"})
			queue = append(queue, task{id: v.id})
		default:
			if err := m.release(f.p, f.sol); err != nil {
				return nil, err
			}
			if f.backup != nil {
				if err := m.release(f.p, f.backup); err != nil {
					return nil, err
				}
			}
			f.sol, f.backup, f.cost, f.backupCost = nil, nil, 0, 0
			repairs = append(repairs, task{id: v.id, repair: true})
		}
	}
	queue = append(queue, repairs...)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		f := m.flows[t.id]
		if !t.repair {
			if f.sol == nil || f.backup != nil {
				continue
			}
			res, err := m.embedBackup(f.p, f.sol)
			if err != nil {
				return nil, err
			}
			if res != nil {
				f.backup = res.Solution
				if f.backupCost, err = m.commit(f.p, res.Solution); err != nil {
					return nil, err
				}
			}
			continue
		}
		res, err := m.embed(f.p, m.opts)
		if err != nil {
			return nil, err
		}
		if res == nil {
			delete(m.flows, t.id)
			events = append(events, refFaultEvent{t.id, "evicted"})
			continue
		}
		f.sol = res.Solution
		if f.cost, err = m.commit(f.p, res.Solution); err != nil {
			return nil, err
		}
		events = append(events, refFaultEvent{t.id, "repaired"})
		if f.protect {
			queue = append(queue, task{id: t.id})
		}
	}
	if used := m.own.edge[e]; used != 0 {
		return nil, fmt.Errorf("reference: %v settled with %v still reserved on the downed link", fault, used)
	}
	return events, nil
}

// edgeUp restores an edge-down.
func (m *model) edgeUp(e graph.EdgeID) error {
	delete(m.down, e)
	return m.ledger.RestoreFault(network.Fault{Kind: network.FaultEdgeDown, Link: e})
}

// residuals lists the model ledger's link and instance residuals in the
// order GET /v1/network reports them.
func (m *model) residuals() ([]float64, []float64) {
	links := make([]float64, 0, m.net.G.NumEdges())
	for _, e := range m.net.G.Edges() {
		links = append(links, m.ledger.EdgeResidual(e.ID))
	}
	var insts []network.Instance
	m.net.Instances(func(inst network.Instance) { insts = append(insts, inst) })
	sort.Slice(insts, func(i, k int) bool {
		if insts[i].Node != insts[k].Node {
			return insts[i].Node < insts[k].Node
		}
		return insts[i].VNF < insts[k].VNF
	})
	res := make([]float64, len(insts))
	for i, inst := range insts {
		res[i] = m.ledger.InstanceResidual(inst.Node, inst.VNF)
	}
	return links, res
}

// ownUsage is the benchmark's own capacity accounting (eqs. 2-3 with
// the reuse counts of eqs. 7-10), kept beside the model ledger.
type ownUsage struct {
	net  *network.Network
	edge []float64
	inst map[core.InstanceUseKey]float64
}

func newOwnUsage(net *network.Network) *ownUsage {
	return &ownUsage{net: net, edge: make([]float64, net.G.NumEdges()), inst: make(map[core.InstanceUseKey]float64)}
}

// place checks a solution's path continuity, adds its demands and checks
// every touched link and instance against its capacity (a downed link
// has none).
func (u *ownUsage) place(p *core.Problem, s *core.Solution, down map[graph.EdgeID]bool) error {
	if err := checkContinuity(p, s); err != nil {
		return err
	}
	edges, insts, err := reuseCounts(p, s)
	if err != nil {
		return err
	}
	for e, n := range edges {
		u.edge[e] += float64(n) * p.Rate
		limit := u.net.G.Edge(e).Capacity
		if down[e] {
			limit = 0
		}
		if u.edge[e] > limit {
			return fmt.Errorf("capacity: link %d carries %v of %v", e, u.edge[e], limit)
		}
	}
	for k, n := range insts {
		u.inst[k] += float64(n) * p.Rate
		inst, _ := u.net.Instance(k.Node, k.VNF)
		if u.inst[k] > inst.Capacity {
			return fmt.Errorf("capacity: instance f(%d)@%d carries %v of %v", k.VNF, k.Node, u.inst[k], inst.Capacity)
		}
	}
	return nil
}

func (u *ownUsage) remove(p *core.Problem, s *core.Solution) {
	edges, insts, _ := reuseCounts(p, s)
	for e, n := range edges {
		u.edge[e] -= float64(n) * p.Rate
	}
	for k, n := range insts {
		u.inst[k] -= float64(n) * p.Rate
	}
}

// empty reports the first link or instance still carrying load.
func (u *ownUsage) empty() error {
	for e, v := range u.edge {
		if v != 0 {
			return fmt.Errorf("link %d still carries %v", e, v)
		}
	}
	for k, v := range u.inst {
		if v != 0 {
			return fmt.Errorf("instance f(%d)@%d still carries %v", k.VNF, k.Node, v)
		}
	}
	return nil
}

// reuseCounts derives α per link and per instance: every VNF and merger
// rental counts (eq. 7); a layer's inter-layer paths pay each link once
// (multicast, eq. 9); every inner-layer traversal pays (eq. 10); the tail
// path pays each link once.
func reuseCounts(p *core.Problem, s *core.Solution) (map[graph.EdgeID]int, map[core.InstanceUseKey]int, error) {
	if len(s.Layers) != len(p.SFC.Layers) {
		return nil, nil, fmt.Errorf("solution has %d layers, SFC %d", len(s.Layers), len(p.SFC.Layers))
	}
	edges := make(map[graph.EdgeID]int)
	insts := make(map[core.InstanceUseKey]int)
	merger := p.Net.Catalog.Merger()
	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		if len(le.Nodes) != len(spec.VNFs) {
			return nil, nil, fmt.Errorf("layer %d places %d of %d VNFs", li+1, len(le.Nodes), len(spec.VNFs))
		}
		for i, v := range le.Nodes {
			insts[core.InstanceUseKey{Node: v, VNF: spec.VNFs[i]}]++
		}
		if len(spec.VNFs) > 1 {
			insts[core.InstanceUseKey{Node: le.MergerNode, VNF: merger}]++
		}
		seen := make(map[graph.EdgeID]bool)
		for _, path := range le.InterPaths {
			for _, e := range path.Edges {
				if !seen[e] {
					seen[e] = true
					edges[e]++
				}
			}
		}
		for _, path := range le.InnerPaths {
			for _, e := range path.Edges {
				edges[e]++
			}
		}
	}
	seen := make(map[graph.EdgeID]bool)
	for _, e := range s.TailPath.Edges {
		if !seen[e] {
			seen[e] = true
			edges[e]++
		}
	}
	return edges, insts, nil
}

// ownPrice is eq. 1 evaluated from the reuse counts: instance prices
// times α plus link prices times α, scaled by the flow size.
func ownPrice(p *core.Problem, s *core.Solution) (float64, error) {
	edges, insts, err := reuseCounts(p, s)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for k, n := range insts {
		inst, ok := p.Net.Instance(k.Node, k.VNF)
		if !ok {
			return 0, fmt.Errorf("no instance f(%d) on node %d", k.VNF, k.Node)
		}
		total += inst.Price * float64(n) * p.Size
	}
	for e, n := range edges {
		total += p.Net.G.Edge(e).Price * float64(n) * p.Size
	}
	return total, nil
}

// checkContinuity walks every path link by link: inter-layer paths run
// from the previous layer's end node to their VNF's node, inner-layer
// paths from their VNF's node to the merger, the tail path from the last
// end node to the destination; every hosting node offers its category.
func checkContinuity(p *core.Problem, s *core.Solution) error {
	g := p.Net.G
	walk := func(path graph.Path, from, to graph.NodeID, what string) error {
		if path.From != from {
			return fmt.Errorf("continuity: %s starts at %d, want %d", what, path.From, from)
		}
		at := from
		for _, id := range path.Edges {
			if int(id) < 0 || int(id) >= g.NumEdges() {
				return fmt.Errorf("continuity: %s uses unknown link %d", what, id)
			}
			ed := g.Edge(id)
			switch at {
			case ed.A:
				at = ed.B
			case ed.B:
				at = ed.A
			default:
				return fmt.Errorf("continuity: %s link %d does not touch node %d", what, id, at)
			}
		}
		if at != to {
			return fmt.Errorf("continuity: %s ends at %d, want %d", what, at, to)
		}
		return nil
	}
	merger := p.Net.Catalog.Merger()
	prev := p.Src
	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		if len(le.InterPaths) != len(le.Nodes) {
			return fmt.Errorf("continuity: layer %d has %d inter-layer paths for %d VNFs", li+1, len(le.InterPaths), len(le.Nodes))
		}
		for i, v := range le.Nodes {
			if !p.Net.HasVNF(v, spec.VNFs[i]) {
				return fmt.Errorf("continuity: node %d does not host f(%d)", v, spec.VNFs[i])
			}
			if err := walk(le.InterPaths[i], prev, v, fmt.Sprintf("layer %d inter-path %d", li+1, i)); err != nil {
				return err
			}
		}
		end := le.Nodes[0]
		if len(le.Nodes) > 1 {
			end = le.MergerNode
			if !p.Net.HasVNF(end, merger) {
				return fmt.Errorf("continuity: node %d does not host the merger", end)
			}
			if len(le.InnerPaths) != len(le.Nodes) {
				return fmt.Errorf("continuity: layer %d has %d inner-layer paths for %d VNFs", li+1, len(le.InnerPaths), len(le.Nodes))
			}
			for i, v := range le.Nodes {
				if err := walk(le.InnerPaths[i], v, end, fmt.Sprintf("layer %d inner-path %d", li+1, i)); err != nil {
					return err
				}
			}
		}
		prev = end
	}
	return walk(s.TailPath, prev, p.Dst, "tail path")
}

// sameCost reports whether two eq. 1 totals agree to a relative 1e-9.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
