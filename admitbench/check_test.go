package main

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
)

// playTiny runs a workload on a tiny trace (two rounds of warm-up, two
// timed) against a live server and returns the record the checks judge,
// plus the runner, still open, for tests that act on the server.
func playTiny(t *testing.T, name string) (*runRecord, *runner) {
	t.Helper()
	w := *workloads[name]
	w.warmup, w.window = 2*w.round, 2*w.round
	r, err := startRunner(context.Background(), &w, 7, filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	if err := r.phase(func(a int) bool { return a >= w.warmup }); err != nil {
		t.Fatal(err)
	}
	timedFrom, firstTimed := len(r.log), len(r.flows)
	r.timed = true
	if err := r.phase(func(a int) bool { return a >= w.window }); err != nil {
		t.Fatal(err)
	}
	rec, err := r.record(timedFrom, firstTimed)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 {
		t.Fatalf("%s: %d operations failed: %v", name, r.failed, r.problems)
	}
	return rec, r
}

func judge(t *testing.T, rec *runRecord, net *network.Network) verdict {
	t.Helper()
	v, err := verify(rec, newModel(net, nil))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func rejected(v verdict, want string) bool {
	for _, p := range v.problems {
		if strings.Contains(p, want) {
			return true
		}
	}
	return false
}

var names = []string{"hybrid-knee", "chain-durable", "protect-faults"}

func TestTinyTracesPassEveryCheck(t *testing.T) {
	for _, name := range names {
		rec, r := playTiny(t, name)
		v := judge(t, rec, r.net)
		if v.failed != 0 || len(v.problems) != 0 {
			t.Errorf("%s: %d failed, problems %v", name, v.failed, v.problems)
		}
		if v.refAccepted == 0 {
			t.Errorf("%s: the reference accepted nothing", name)
		}
	}
}

// windowAccepted returns the quality window's admitted arrivals.
func windowAccepted(rec *runRecord) []int {
	var out []int
	for _, i := range rec.window {
		if rec.flows[i].accepted {
			out = append(out, i)
		}
	}
	return out
}

func TestPerturbedCostIsRejected(t *testing.T) {
	for _, name := range names {
		rec, r := playTiny(t, name)
		acc := windowAccepted(rec)
		if rec.w.exact {
			// One unit in the last place on one answer.
			o := rec.flows[acc[0]]
			o.cost = math.Nextafter(o.cost, math.Inf(1))
			if v := judge(t, rec, r.net); v.failed != 1 || !rejected(v, "reference") {
				t.Errorf("%s: one perturbed cost gave %d failed, problems %v", name, v.failed, v.problems)
			}
			continue
		}
		// Beyond the stated mean-cost tolerance.
		for _, i := range acc {
			rec.flows[i].cost *= 1 + 2*rec.w.costTol
		}
		if v := judge(t, rec, r.net); !rejected(v, "mean cost differs") {
			t.Errorf("%s: inflated costs passed: %v", name, v.problems)
		}
	}
}

func TestWrongAnswerIsRejected(t *testing.T) {
	for _, name := range names {
		rec, r := playTiny(t, name)
		acc := windowAccepted(rec)
		if rec.w.exact {
			o := rec.flows[acc[0]]
			o.accepted, o.rejected = false, true
			if v := judge(t, rec, r.net); v.failed == 0 || !rejected(v, "accepted=false, reference accepted=true") {
				t.Errorf("%s: a flipped answer gave %d failed, problems %v", name, v.failed, v.problems)
			}
			continue
		}
		// Beyond the stated accepted-share tolerance.
		n := int(2*rec.w.shareTol*float64(len(rec.window))) + 1
		for _, i := range acc[:n] {
			rec.flows[i].accepted, rec.flows[i].rejected = false, true
		}
		if v := judge(t, rec, r.net); !rejected(v, "accepted share differs") {
			t.Errorf("%s: %d flipped answers passed: %v", name, n, v.problems)
		}
	}
}

func TestLeakedReservationIsRejected(t *testing.T) {
	for _, name := range names {
		rec, r := playTiny(t, name)
		// A flow the trace never asked for holds capacity after the last
		// departure.
		req := rec.reqs[windowAccepted(rec)[0]]
		if _, err := r.cl.CreateFlow(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		final, err := r.cl.Network(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rec.final = final
		if v := judge(t, rec, r.net); !rejected(v, "server after the last departure") {
			t.Errorf("%s: leaked reservation passed: %v", name, v.problems)
		}
	}
}

func TestMidRunLedgerIsCompared(t *testing.T) {
	rec, r := playTiny(t, "hybrid-knee")
	rec.mid.Links[3].Residual--
	if v := judge(t, rec, r.net); !rejected(v, "server and reference ledgers differ") {
		t.Errorf("a mid-run ledger difference passed: %v", v.problems)
	}
}

func TestStrandedProtectedFlowIsRejected(t *testing.T) {
	protected := map[int64]bool{5: true}
	if err := survived(protected, []server.RepairEvent{{Flow: 5, Outcome: "failover"}},
		[]server.FlowInfo{{ID: 5, State: server.FlowStateActive}}); err != nil {
		t.Errorf("a failover was rejected: %v", err)
	}
	if err := survived(protected, []server.RepairEvent{{Flow: 5, Outcome: "repaired"}}, nil); err == nil {
		t.Error("a stranded protected flow passed")
	}
	if err := survived(protected, nil, []server.FlowInfo{{ID: 5, State: server.FlowStateEvicted}}); err == nil {
		t.Error("an evicted protected flow passed")
	}
}

func TestFaultHandlingIsCompared(t *testing.T) {
	rec, r := playTiny(t, "protect-faults")
	for k := range rec.faults {
		for i, ev := range rec.faults[k].events {
			if ev.outcome != "failover" {
				continue
			}
			rec.faults[k].events[i].outcome = "backup-lost"
			if v := judge(t, rec, r.net); v.failed != 1 || !rejected(v, "reference flow") {
				t.Errorf("a changed fault outcome gave %d failed, problems %v", v.failed, v.problems)
			}
			rec.faults[k].events[i].outcome = "failover"
			rec.faults[k].table++
			if v := judge(t, rec, r.net); v.failed != 1 || !rejected(v, "settled flow table") {
				t.Errorf("a changed flow table gave %d failed, problems %v", v.failed, v.problems)
			}
			return
		}
	}
	t.Fatal("the tiny protect-faults trace saw no failover")
}

func TestOwnAccountingRejectsBadPlacements(t *testing.T) {
	rec, r := playTiny(t, "hybrid-knee")
	m := newModel(r.net, nil)
	var f *refFlow
	for _, i := range rec.window {
		out, err := m.arrive(i, rec.reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if out.accepted {
			f = m.flows[i]
			if err := priceCheck(f, out); err != nil {
				t.Fatal(err)
			}
			// The re-pricing sums in its own order, so it allows a
			// relative 1e-9; a millionth is far outside that.
			out.cost *= 1 + 1e-6
			if err := priceCheck(f, out); err == nil {
				t.Error("eq. 1 re-pricing accepted a perturbed cost")
			}
			break
		}
	}
	if f == nil {
		t.Fatal("no flow accepted")
	}
	// Placing the same solution over and over must overrun a capacity.
	u := newOwnUsage(r.net)
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = u.place(f.p, f.sol, nil)
	}
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("repeated placement never overran a capacity: %v", err)
	}
	// A path with a link cut out is discontinuous.
	broken := *f.sol
	broken.TailPath = graph.Path{From: f.sol.TailPath.From, Edges: append([]graph.EdgeID{}, f.sol.TailPath.Edges...)}
	if len(broken.TailPath.Edges) == 0 {
		broken.TailPath.Edges = []graph.EdgeID{0}
	} else {
		broken.TailPath.Edges = broken.TailPath.Edges[1:]
	}
	if err := checkContinuity(f.p, &broken); err == nil {
		t.Error("a broken tail path passed the continuity check")
	}
}
