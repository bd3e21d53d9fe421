package main

import (
	"fmt"
	"math"

	"dagsfc/internal/graph"
	"dagsfc/internal/server"
)

// verdict is what the checks concluded about one run.
type verdict struct {
	// failed counts operations whose answers a check rejected.
	failed int
	// problems lists every failed check; the run is correct only when it
	// stays empty.
	problems []string
	// refAccepted and refMeanCost are the reference's figures over the
	// quality window.
	refAccepted int
	refMeanCost float64
}

func (v *verdict) problem(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// runRecord is everything a run saw that the checks judge.
type runRecord struct {
	w      *workload
	flows  []*outcome
	log    []logEntry
	faults []faultRecord
	seed   server.NetworkState
	// mid is the network at the end of the timed phase, midAt the number
	// of log entries played by then; final is the network after the last
	// departure.
	mid   server.NetworkState
	midAt int
	// timedFrom is the first log entry of the timed phase.
	timedFrom int
	final     server.NetworkState
	// window lists the arrival indices the quality figures cover.
	window []int
	// reqs holds every arrival's request, drawn again from the seed.
	reqs []server.FlowRequest
}

// verify replays the run's operation log through the reference model and
// judges every server answer against it.
func verify(rec *runRecord, m *model) (verdict, error) {
	var v verdict
	exact := rec.w.exact
	ref := make([]refOutcome, len(rec.flows))
	faultIdx := 0
	for at, entry := range rec.log {
		if m.probe != nil {
			m.probe.on = at >= rec.timedFrom && at < rec.midAt
		}
		if at == rec.midAt && exact {
			links, insts := m.residuals()
			if err := sameResiduals(rec.mid, links, insts); err != nil {
				v.problem("end of timed phase: server and reference ledgers differ: %v", err)
			}
		}
		flow := int(entry.flow)
		switch entry.kind {
		case evArrival:
			out, err := m.arrive(flow, rec.reqs[flow])
			if err != nil {
				return v, fmt.Errorf("reference arrival %d: %w", flow, err)
			}
			ref[flow] = out
			if f := m.flows[flow]; f != nil {
				if err := priceCheck(f, out); err != nil {
					v.failed++
					v.problem("flow %d: %v", flow, err)
				}
			}
			if exact {
				if err := sameAnswer(rec.flows[flow], out); err != nil {
					v.failed++
					v.problem("flow %d: %v", flow, err)
				}
			}
		case evDeparture:
			if err := m.depart(flow); err != nil {
				return v, err
			}
		case evFault:
			edge := graph.EdgeID(entry.edge)
			events, err := m.edgeDown(edge)
			if err != nil {
				return v, err
			}
			if faultIdx >= len(rec.faults) {
				return v, fmt.Errorf("fault %d missing from the run record", faultIdx)
			}
			fr := rec.faults[faultIdx]
			faultIdx++
			if exact {
				if err := sameFaultHandling(fr, events, m); err != nil {
					v.failed++
					v.problem("edge-down %d: %v", fr.edge, err)
				}
			}
			if err := m.edgeUp(edge); err != nil {
				return v, err
			}
		}
	}
	if err := m.own.empty(); err != nil {
		v.problem("reference after the last departure: %v", err)
	}
	links, insts := m.residuals()
	if err := sameResiduals(rec.seed, links, insts); err != nil {
		v.problem("reference after the last departure: %v", err)
	}
	seedLinks, seedInsts := residualsOf(rec.seed)
	if err := sameResiduals(rec.final, seedLinks, seedInsts); err != nil {
		v.problem("server after the last departure: %v", err)
	}
	if rec.final.ActiveFlows != 0 {
		v.problem("server after the last departure: %d active flows", rec.final.ActiveFlows)
	}

	var srvAcc, refAcc int
	var srvCost, refCost float64
	for _, i := range rec.window {
		if rec.flows[i].accepted {
			srvAcc++
			srvCost += rec.flows[i].cost
		}
		if ref[i].accepted {
			refAcc++
			refCost += ref[i].cost
		}
	}
	v.refAccepted = refAcc
	if refAcc > 0 {
		v.refMeanCost = refCost / float64(refAcc)
	}
	if !exact && len(rec.window) > 0 {
		share := math.Abs(float64(srvAcc-refAcc)) / float64(len(rec.window))
		if share > rec.w.shareTol {
			v.problem("accepted share differs from the reference by %.4f (tolerance %v)", share, rec.w.shareTol)
		}
		if srvAcc > 0 && refAcc > 0 {
			rel := math.Abs(srvCost/float64(srvAcc)-v.refMeanCost) / v.refMeanCost
			if rel > rec.w.costTol {
				v.problem("mean cost differs from the reference by %.4f relative (tolerance %v)", rel, rec.w.costTol)
			}
		}
	}
	return v, nil
}

// priceCheck re-prices a reference flow with the benchmark's own eq. 1
// and compares it with the total core reported.
func priceCheck(f *refFlow, out refOutcome) error {
	c, err := ownPrice(f.p, f.sol)
	if err != nil {
		return err
	}
	if !sameCost(c, out.cost) {
		return fmt.Errorf("eq. 1 re-pricing gives %v, core priced %v", c, out.cost)
	}
	if f.backup != nil {
		c, err := ownPrice(f.p, f.backup)
		if err != nil {
			return err
		}
		if !sameCost(c, out.backupCost) {
			return fmt.Errorf("backup: eq. 1 re-pricing gives %v, core priced %v", c, out.backupCost)
		}
	}
	return nil
}

// sameAnswer demands the server's accept/reject and costs equal the
// reference's exactly.
func sameAnswer(o *outcome, ref refOutcome) error {
	switch {
	case o.accepted != ref.accepted:
		return fmt.Errorf("server accepted=%v, reference accepted=%v", o.accepted, ref.accepted)
	case !o.accepted && !o.rejected:
		return nil // a failed request, already counted
	case o.cost != ref.cost:
		return fmt.Errorf("server cost %v, reference %v", o.cost, ref.cost)
	case o.backupCost != ref.backupCost:
		return fmt.Errorf("server backup cost %v, reference %v", o.backupCost, ref.backupCost)
	}
	return nil
}

// survived checks that no flow holding an active backup when the fault
// landed (protected) was stranded or evicted by it: its repair-log
// outcomes and its state once the fault settled.
func survived(protected map[int64]bool, repairs []server.RepairEvent, flows []server.FlowInfo) error {
	for _, ev := range repairs {
		if protected[ev.Flow] && (ev.Outcome == "repaired" || ev.Outcome == "evicted") {
			return fmt.Errorf("protected flow %d was stranded (%s)", ev.Flow, ev.Outcome)
		}
	}
	for _, info := range flows {
		if protected[info.ID] && info.State != server.FlowStateActive {
			return fmt.Errorf("protected flow %d is %s after the fault", info.ID, info.State)
		}
	}
	return nil
}

// sameFaultHandling compares the server's repair log and settled flow
// table for one fault with the reference's.
func sameFaultHandling(fr faultRecord, events []refFaultEvent, m *model) error {
	if len(fr.events) != len(events) {
		return fmt.Errorf("server logged %d fault outcomes, reference %d", len(fr.events), len(events))
	}
	for i, ev := range fr.events {
		if ev != events[i] {
			return fmt.Errorf("outcome %d: server flow %d %s, reference flow %d %s",
				i, ev.flow, ev.outcome, events[i].flow, events[i].outcome)
		}
	}
	table := make([]flowState, 0, len(m.flows))
	for i, f := range m.flows {
		table = append(table, flowState{flow: i, cost: f.cost, backup: f.backup != nil, backupCost: f.backupCost})
	}
	if flowDigest(table) != fr.table {
		return fmt.Errorf("settled flow table (costs, backups) differs from the reference")
	}
	return nil
}

// sameResiduals compares a server network snapshot with expected link
// and instance residuals (in GET /v1/network order) exactly.
func sameResiduals(st server.NetworkState, links, insts []float64) error {
	if len(st.Links) != len(links) || len(st.Instances) != len(insts) {
		return fmt.Errorf("network shape differs")
	}
	for i, l := range st.Links {
		if l.Residual != links[i] {
			return fmt.Errorf("link %d residual %v, expected %v", l.ID, l.Residual, links[i])
		}
	}
	for i, in := range st.Instances {
		if in.Residual != insts[i] {
			return fmt.Errorf("instance f(%d)@%d residual %v, expected %v", in.VNF, in.Node, in.Residual, insts[i])
		}
	}
	return nil
}

// residualsOf lists a snapshot's link and instance residuals.
func residualsOf(st server.NetworkState) ([]float64, []float64) {
	links := make([]float64, len(st.Links))
	for i, l := range st.Links {
		links[i] = l.Residual
	}
	insts := make([]float64, len(st.Instances))
	for i, in := range st.Instances {
		insts[i] = in.Residual
	}
	return links, insts
}
