package main

import (
	"fmt"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
)

// durStat accumulates a count of timed calls and their total duration.
type durStat struct {
	total time.Duration
	n     int
}

func (d *durStat) add(x time.Duration) {
	d.total += x
	d.n++
}

// mean returns the mean duration in the given unit.
func (d durStat) mean(unit time.Duration) float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.total) / float64(d.n) / float64(unit)
}

// corePhases is a core.Observer that splits each reference embed into
// its phases from the hooks' timestamps. With Workers=1 the search and
// candidate-generation events of a layer are delivered together after
// the layer's build finishes, so they bound one combined phase:
//
//	build   LayerStart → last ExtensionsBuilt (FST/BST searches and
//	        candidate generation)
//	screen  last ExtensionsBuilt → LayerDone (capacity screening, Xd and
//	        end-node selection)
//	closure last LayerDone → Embed returns (tail paths, validation)
//
// It also counts search-tree sizes and candidates: extensions generated
// per start node, parent×extension pairs screened, and sub-solutions
// kept after selection (their ratio is the candidate work that survives
// to the next layer). The model times core.Commit and core.Release next
// to it. Only calls made while on is set are counted.
type corePhases struct {
	on bool

	embed, build, screen, closure time.Duration
	embeds                        int
	fstNodes, bstNodes            int
	generated, screened, kept     int
	capRejected                   int
	commit, release               durStat

	start, layerStart, lastBuilt, filteredAt, lastLayerDone time.Time
}

func (c *corePhases) begin() {
	c.start = time.Now()
	c.lastLayerDone = time.Time{}
}

func (c *corePhases) end() {
	if !c.on {
		return
	}
	now := time.Now()
	c.embeds++
	c.embed += now.Sub(c.start)
	if !c.lastLayerDone.IsZero() {
		c.closure += now.Sub(c.lastLayerDone)
	}
}

// LayerStart implements core.Observer.
func (c *corePhases) LayerStart(core.LayerSpec, int) {
	c.layerStart = time.Now()
	c.lastBuilt = c.layerStart
	c.lastLayerDone = time.Time{}
}

// SearchStart implements core.Observer.
func (c *corePhases) SearchStart(int, graph.NodeID, bool) {}

// SearchDone implements core.Observer.
func (c *corePhases) SearchDone(_ int, _ graph.NodeID, forward bool, treeSize int, _ bool) {
	if !c.on {
		return
	}
	if forward {
		c.fstNodes += treeSize
	} else {
		c.bstNodes += treeSize
	}
}

// ExtensionsBuilt implements core.Observer.
func (c *corePhases) ExtensionsBuilt(_ int, _ graph.NodeID, generated, _ int) {
	c.lastBuilt = time.Now()
	if c.on {
		c.generated += generated
	}
}

// CandidatesFiltered implements core.Observer.
func (c *corePhases) CandidatesFiltered(_ int, considered, capacityRejected, _ int) {
	c.filteredAt = time.Now()
	if c.on {
		c.screened += considered
		c.build += c.lastBuilt.Sub(c.layerStart)
		c.screen += c.filteredAt.Sub(c.lastBuilt)
		c.capRejected += capacityRejected
	}
}

// LayerDone implements core.Observer.
func (c *corePhases) LayerDone(_ core.LayerSpec, kept int, _ float64) {
	c.lastLayerDone = time.Now()
	if c.on {
		c.kept += kept
		c.screen += c.lastLayerDone.Sub(c.filteredAt)
	}
}

// Leaf implements core.Observer.
func (c *corePhases) Leaf(float64) {}

// layerInputs carries the timed phase's own figures into layerMetrics.
type layerInputs struct {
	answered, timedArrivals float64
	gcCPU                   time.Duration
	gcCycles                float64
	traced, untraced        []time.Duration
	// p99 is the median over windows of the window p99, in ms.
	p99 float64
}

// layerMetrics derives the per-layer metrics of a traced run from the
// telemetry scrapes around the timed phase (s0, s1), the client's own
// timings, the reference replay's core probe, and the run's fault cycles.
func layerMetrics(res *result, r *runner, reqs []server.FlowRequest, s0, s1 metricsSnap, c *corePhases, in layerInputs) {
	perAdmit := func(key string) float64 { return delta(s0, s1, key).value / in.answered }
	meanMs := func(key string) float64 {
		d := delta(s0, s1, key)
		if d.count == 0 {
			return 0
		}
		return d.sum / d.count * 1e3
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var rtt durStat
	for _, l := range append(append([]time.Duration(nil), in.traced...), in.untraced...) {
		rtt.add(l)
	}
	request := meanMs("dagsfc_server_request_latency_seconds,route=flows.create")
	res.set("http.overhead_ms", rtt.mean(time.Millisecond)-request, "ms")
	var release durStat
	for _, d := range r.releases {
		release.add(d)
	}
	res.set("http.release_ms", release.mean(time.Millisecond), "ms")

	res.set("server.request_ms", request, "ms")
	res.set("server.queue_wait_ms", meanMs("dagsfc_server_stage_seconds,stage=queue_wait"), "ms")
	res.set("server.embed_ms", meanMs("dagsfc_server_stage_seconds,stage=embed"), "ms")
	res.set("server.commit_wait_ms", meanMs("dagsfc_server_stage_seconds,stage=commit_wait"), "ms")
	res.set("server.commit_retries", delta(s0, s1, "dagsfc_online_commit_failures_total").value, "count")

	res.set("sfc.prepare_us", prepareMicros(reqs), "us")

	embeds := float64(c.embeds)
	per := func(d time.Duration) float64 { return ratio(float64(d)/float64(time.Millisecond), embeds) }
	res.set("core.embed_ms", per(c.embed), "ms")
	res.set("core.build_ms", per(c.build), "ms")
	res.set("core.screen_ms", per(c.screen), "ms")
	res.set("core.closure_ms", per(c.closure), "ms")
	res.set("core.fst_nodes", ratio(float64(c.fstNodes), embeds), "count")
	res.set("core.bst_nodes", ratio(float64(c.bstNodes), embeds), "count")
	res.set("core.candidates_generated", ratio(float64(c.generated), embeds), "count")
	res.set("core.candidates_screened", ratio(float64(c.screened), embeds), "count")
	res.set("core.candidates_kept", ratio(float64(c.kept), embeds), "count")
	res.set("core.kept_ratio", ratio(float64(c.kept), float64(c.screened)), "ratio")
	res.set("core.capacity_rejected", ratio(float64(c.capRejected), embeds), "count")
	res.set("core.embeds_per_admit", embeds/in.timedArrivals, "count")

	hits := delta(s0, s1, "dagsfc_path_cache_hits_total").value
	misses := delta(s0, s1, "dagsfc_path_cache_misses_total").value
	builds := delta(s0, s1, "dagsfc_costview_builds_total").value
	reuses := delta(s0, s1, "dagsfc_costview_reuses_total").value
	res.set("graph.trees_built_per_admit", misses/in.answered, "count")
	res.set("graph.tree_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("graph.views_built_per_admit", builds/in.answered, "count")
	res.set("graph.view_reuse_ratio", ratio(reuses, builds+reuses), "ratio")

	res.set("network.commit_us", c.commit.mean(time.Microsecond), "us")
	res.set("network.release_us", c.release.mean(time.Microsecond), "us")
	res.set("network.overlay_commits_per_admit", perAdmit("dagsfc_ledger_overlay_commits_total"), "count")

	res.set("wal.appends_per_admit", perAdmit("dagsfc_wal_appends_total"), "count")
	res.set("wal.bytes_per_admit", perAdmit("dagsfc_wal_bytes_total"), "B")
	res.set("wal.snapshot_kb", s1["dagsfc_wal_snapshot_bytes"].value/1024, "KiB")

	res.set("journal.events_per_admit", perAdmit("dagsfc_journal_events_total"), "count")
	res.set("journal.dropped", delta(s0, s1, "dagsfc_journal_dropped_total").value, "count")

	res.set("protect.failovers", delta(s0, s1, "dagsfc_protect_failovers_total").value, "count")
	res.set("protect.reprotects", delta(s0, s1, "dagsfc_protect_reprotects_total").value, "count")

	res.set("runtime.gc_cpu_ms_per_admit", float64(in.gcCPU)/float64(time.Millisecond)/in.answered, "ms")
	res.set("runtime.gc_cycles", in.gcCycles, "count")

	res.set("trace.admit_p99_ms", in.p99, "ms")
	tracedP50 := float64(quantile(in.traced, 0.5)) / float64(time.Millisecond)
	res.set("trace.admit_p50_ms", tracedP50, "ms")
	res.set("trace.overhead_ms", tracedP50-float64(quantile(in.untraced, 0.5))/float64(time.Millisecond), "ms")

	// Layers only some workloads exercise: rows for people, not metrics.
	if d := delta(s0, s1, "dagsfc_wal_snapshot_seconds"); d.count > 0 {
		res.table = append(res.table, fmt.Sprintf("%-34s %14.4f ms (%v snapshots)", "wal.snapshot_ms", meanMs("dagsfc_wal_snapshot_seconds"), d.count))
	}
	var apply, restore, settle durStat
	for _, f := range r.faults {
		if f.timed {
			apply.add(f.apply)
			restore.add(f.restore)
			settle.add(f.settle)
		}
	}
	if apply.n > 0 {
		res.table = append(res.table,
			fmt.Sprintf("%-34s %14.4f ms (%d faults)", "fault.apply_ms", apply.mean(time.Millisecond), apply.n),
			fmt.Sprintf("%-34s %14.4f ms", "fault.restore_ms", restore.mean(time.Millisecond)),
			fmt.Sprintf("%-34s %14.4f ms", "fault.settle_ms", settle.mean(time.Millisecond)),
			fmt.Sprintf("%-34s %14.4f us", "protect.failover_us", meanMs("dagsfc_server_stage_seconds,stage=failover")*1e3))
	}
}

// prepareMicros times request standardization (sfc.Parse for layered
// SFCs, sfc.ChainToDAG for chains) over the run's arrivals, in
// microseconds per request.
func prepareMicros(reqs []server.FlowRequest) float64 {
	rules := sfc.StockRules()
	if len(reqs) == 0 {
		return 0
	}
	const passes = 20
	begin := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, req := range reqs {
			if req.SFC != "" {
				dag, _ := sfc.Parse(req.SFC)
				sinkDAG = dag
				continue
			}
			chain := make([]network.VNFID, len(req.Chain))
			for i, id := range req.Chain {
				chain[i] = network.VNFID(id)
			}
			sinkDAG = sfc.ChainToDAG(chain, rules, req.MaxWidth)
		}
	}
	return float64(time.Since(begin)) / float64(time.Microsecond) / float64(passes*len(reqs))
}

// sinkDAG keeps the timed standardization calls from being optimized away.
var sinkDAG sfc.DAGSFC
