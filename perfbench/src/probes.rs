//! The traced run's per-layer metrics.
//!
//! Two sources, both in the benchmark's own code: deltas of the engine's
//! public `metrics()` around each phase, and replay probes that call a
//! layer's public functions directly on the run's own inputs (its
//! candidates, rules and accepted update batches) and time each call.

use crate::gen::{run_phase, Class, Expect, PhaseOut, PhasePlan};
use crate::stats::{quantile, ratio, skew, Metric};
use crate::updates::UpdateKind;
use crate::workload::{Bench, Traffic};
use crate::Options;
use gpar_eip::{derive_radius, MatchOpts};
use gpar_graph::{multi_source_distances, Coalescer, DeltaGraph};
use gpar_iso::{Matcher, MatcherConfig, PatternSketchCache, SharedScratch};
use gpar_partition::{build_sites, chunk_by_load, CenterSite};
use gpar_serve::{Counter, HistKind, MetricsSnapshot};
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, and what it should move.
pub const LAYER_METRICS: [(&str, &str, &str); 57] = [
    (
        "serve.read.queue_wait_p50_us",
        "us",
        "identify_p50_ms, serve.read.identify_p99_ms, serve.read.sustained_qps on read_hot",
    ),
    (
        "serve.read.queue_wait_p99_us",
        "us",
        "serve.read.identify_p99_ms, serve.read.sustained_qps on read_hot",
    ),
    ("serve.read.eval_p50_us", "us", "identify_p50_ms, serve.read.sustained_qps on read_hot"),
    ("serve.read.evaluated_per_query", "count", "identify_p50_ms on read_hot"),
    ("serve.read.prune_frac", "1", "identify_p50_ms on read_hot and write_churn"),
    ("serve.read.customer_frac", "1", "nothing (shows a degenerate catalog)"),
    ("serve.cache.hit_frac", "1", "serve.read.identify_p99_ms on read_hot and write_churn"),
    ("serve.cache.evictions", "count", "serve.read.identify_p99_ms on read_hot and write_churn"),
    ("serve.cache.invalidations", "count", "serve.read.identify_p99_ms on write_churn"),
    ("serve.write.apply_ms.join_small", "ms", "update_p50_ms on write_churn"),
    ("serve.write.apply_ms.join_hub", "ms", "serve.write.update_p95_ms on write_churn"),
    ("serve.write.apply_ms.leave", "ms", "update_p50_ms, serve.write.update_p95_ms on write_churn"),
    ("serve.write.apply_ms.edge_churn", "ms", "update_p50_ms on write_churn"),
    ("serve.write.diff_commit_p50_us", "us", "update_p50_ms on write_churn"),
    ("serve.write.bfs_p50_us", "us", "update_p50_ms on write_churn"),
    (
        "serve.write.group_repair_p50_us",
        "us",
        "update_p50_ms, serve.write.update_p95_ms on write_churn",
    ),
    (
        "serve.write.ledger_patch_p50_us",
        "us",
        "update_p50_ms, serve.write.update_p95_ms on write_churn",
    ),
    ("serve.write.coalesce_p50_us", "us", "update_p50_ms on write_churn"),
    ("serve.write.publish_p50_us", "us", "update_p50_ms, serve.write.update_p95_ms on write_churn"),
    ("serve.write.wait_p50_us", "us", "update_p50_ms, serve.write.update_p95_ms on write_churn"),
    ("serve.write.reeval_per_update", "count", "update_p50_ms on write_churn"),
    ("serve.write.reeval_frac", "1", "update_p50_ms on write_churn"),
    ("serve.write.coalesce_ratio", "1", "serve.write.update_p95_ms on write_churn"),
    ("serve.write.publishes", "count", "serve.write.update_p95_ms on write_churn"),
    ("serve.write.compactions", "count", "serve.write.update_p95_ms on write_churn"),
    ("graph.ball_us", "us", "identify_p50_ms on read_hot (cache misses), setup_s"),
    ("graph.ball_nodes", "count", "identify_p50_ms on read_hot, setup_s"),
    ("graph.bfs_us", "us", "update_p50_ms on write_churn"),
    ("graph.delta_us", "us", "update_p50_ms on write_churn"),
    ("graph.coalesce_us", "us", "update_p50_ms on write_churn"),
    ("graph.compact_ms", "ms", "serve.write.update_p95_ms on write_churn"),
    (
        "iso.probe_us",
        "us",
        "identify_p50_ms, serve.read.sustained_qps, setup_s on read_hot; eip_s on write_churn",
    ),
    ("iso.probe_us.vf2", "us", "nothing unless the served matcher preset changes"),
    ("iso.match_frac", "1", "nothing (shows how selective the rules are)"),
    ("iso.cand_prune_frac", "1", "identify_p50_ms on read_hot; eip_s on write_churn"),
    ("partition.sites_ms", "ms", "mine_s, eip_s on write_churn"),
    ("partition.load_skew", "1", "mine_s, eip_s on write_churn"),
    ("exec.mine.skew", "1", "mine_s on write_churn"),
    ("exec.eip.skew", "1", "eip_s on write_churn"),
    ("exec.idle_frac", "1", "mine_s, eip_s on write_churn; setup_s"),
    ("exec.steals", "count", "mine_s, eip_s on write_churn"),
    ("mine.partition_s", "s", "mine_s"),
    ("mine.coordinator_s", "s", "mine_s"),
    ("mine.sim_parallel_s", "s", "mine_s"),
    ("mine.candidates", "count", "mine_s"),
    ("mine.sigma_frac", "1", "mine_s"),
    ("eip.partition_s", "s", "eip_s"),
    ("eip.coordinator_s", "s", "eip_s"),
    ("eip.sim_parallel_s", "s", "eip_s"),
    ("eip.candidates", "count", "eip_s"),
    ("eip.customer_frac", "1", "nothing (shows a degenerate rule set)"),
    ("gen.lateness_p99_us", "us", "nothing: the generator is not what is measured"),
    ("gen.cpu_frac", "1", "nothing: the generator is not what is measured"),
    ("obs.trace_overhead_frac", "1", "nothing: tracing is not what is measured"),
    // Measured end to end by every run (see `workload::run`), but only
    // reported here: capacity and sub-millisecond tails follow the host's
    // other tenants too closely to gate on.
    ("serve.read.identify_p99_ms", "ms", "itself; moved by serve.read.* and serve.cache.*"),
    ("serve.read.sustained_qps", "1/s", "itself; moved by serve.read.* and iso.* on read_hot"),
    ("serve.write.update_p95_ms", "ms", "itself; moved by serve.write.* on write_churn"),
];

/// Blocking `apply_update` calls per batch kind.
const APPLIES_PER_KIND: usize = 3;
/// Most (rule, candidate) pairs the matcher probe times.
const MAX_PROBE_PAIRS: usize = 20_000;
/// Most candidates whose d-ball the extraction probe times.
const MAX_BALLS: usize = 500;

fn hist_us(delta: &MetricsSnapshot, kind: HistKind, q: f64) -> f64 {
    delta.hist(kind).quantile(q).unwrap_or(0) as f64 / 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Computes the metrics of [`LAYER_METRICS`] that the run itself did not
/// (all but the last three), in that order.
pub fn layer_metrics(b: &mut Bench, t: &mut Traffic, opts: &Options) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64| {
        let (_, unit, _) = LAYER_METRICS.iter().find(|(n, ..)| *n == name).expect("listed metric");
        m.push(Metric::new(name, unit, value));
    };
    let d = derive_radius(&b.rules);
    // First, while the graph is still the settled one its replies are
    // checked against; the blocking applies below change it.
    let trace_overhead = trace_overhead(b, t, opts);

    // gpar-serve read path: the fixed-rate traffic's metric delta.
    let fd = &t.fixed_delta;
    let identifies = t.fixed.identify_ns.len() as f64;
    put("serve.read.queue_wait_p50_us", hist_us(fd, HistKind::QueueWait, 0.50));
    put("serve.read.queue_wait_p99_us", hist_us(fd, HistKind::QueueWait, 0.99));
    put("serve.read.eval_p50_us", hist_us(fd, HistKind::IsoEval, 0.50));
    put("serve.read.evaluated_per_query", ratio(t.fixed.evaluated as f64, identifies));
    put(
        "serve.read.prune_frac",
        ratio(t.fixed.pruned as f64, (t.fixed.evaluated + t.fixed.pruned) as f64),
    );
    put("serve.read.customer_frac", ratio(t.fixed.customers as f64, t.fixed.evaluated as f64));
    let hits = fd.counter(Counter::CacheHits) as f64;
    put("serve.cache.hit_frac", ratio(hits, hits + fd.counter(Counter::CacheMisses) as f64));
    let both = |c| fd.counter(c) + t.pairs.as_ref().map_or(0, |(_, d)| d.counter(c));
    put("serve.cache.evictions", both(Counter::CacheEvictions) as f64);
    put("serve.cache.invalidations", both(Counter::CacheInvalidations) as f64);
    let pruned = fd.counter(Counter::IsoCandidatesPruned) as f64;
    let cand_prune_frac =
        ratio(pruned, pruned + fd.counter(Counter::IsoCandidatesGenerated) as f64);
    let (update_p50_us, wd) = {
        let (writes, delta) = t.writes();
        (quantile(&writes.update_ns, 0.5) as f64 / 1e3, delta.clone())
    };

    // gpar-serve write path: blocking applies per batch kind, then the
    // write segments' stage histograms and counters.
    for kind in UpdateKind::CHURN {
        let mut times = Vec::new();
        for _ in 0..APPLIES_PER_KIND {
            let (_, batch, _, index) = t.stream.batch_of(kind, 0);
            let start = Instant::now();
            let res = t.engine.apply_update(&batch);
            times.push(start.elapsed().as_secs_f64() * 1e3);
            let ok = res.is_ok_and(|r| t.stream.confirm(index, &r));
            b.check(format!("blocking {} batch applied with sequential ids", kind.name()), ok);
        }
        put(&format!("serve.write.apply_ms.{}", kind.name()), crate::stats::median(&times));
    }
    let stage = |k| hist_us(&wd, k, 0.50);
    put(
        "serve.write.diff_commit_p50_us",
        stage(HistKind::UpdateDiff) + stage(HistKind::UpdateCommit),
    );
    put("serve.write.bfs_p50_us", stage(HistKind::UpdateBfs));
    put("serve.write.group_repair_p50_us", stage(HistKind::UpdateGroupRepair));
    put("serve.write.ledger_patch_p50_us", stage(HistKind::UpdateLedgerPatch));
    put("serve.write.coalesce_p50_us", stage(HistKind::UpdateCoalesce));
    put("serve.write.publish_p50_us", stage(HistKind::UpdatePublish));
    let busy = stage(HistKind::UpdateCoalesce) + stage(HistKind::UpdatePublish);
    put("serve.write.wait_p50_us", (update_p50_us - busy).max(0.0));
    let updates = wd.counter(Counter::Updates) as f64;
    let publishes = wd.counter(Counter::SnapshotPublishes) as f64;
    let reevaluated = wd.counter(Counter::UpdateReevaluated) as f64;
    put("serve.write.reeval_per_update", ratio(reevaluated, updates));
    put("serve.write.reeval_frac", ratio(reevaluated, publishes * b.centers.len() as f64));
    put("serve.write.coalesce_ratio", ratio(wd.counter(Counter::UpdatesCoalesced) as f64, updates));
    put("serve.write.publishes", publishes);
    put("serve.write.compactions", wd.counter(Counter::Compactions) as f64);

    // gpar-graph: d-ball extraction per candidate, then a replay of every
    // accepted batch on a standalone overlay.
    let candidates = &b.centers[..b.centers.len().min(MAX_BALLS)];
    let mut sites: Vec<CenterSite> = Vec::with_capacity(candidates.len());
    let mut ball_us = Vec::new();
    for &c in candidates {
        let start = Instant::now();
        let site = CenterSite::build(b.graph.as_ref(), c, d);
        ball_us.push(us(start.elapsed()));
        sites.push(site);
    }
    put("graph.ball_us", mean(&ball_us));
    put(
        "graph.ball_nodes",
        mean(&sites.iter().map(|s| s.graph().node_count() as f64).collect::<Vec<_>>()),
    );
    let (mut delta_us, mut bfs_us) = (Vec::new(), Vec::new());
    let mut overlay = DeltaGraph::new(b.graph.clone());
    let batches: Vec<_> = t.stream.batches().map(|(_, batch)| batch.clone()).collect();
    for batch in &batches {
        let start = Instant::now();
        let applied = overlay.diff(batch).expect("accepted batches replay cleanly");
        overlay.commit(batch, &applied);
        delta_us.push(us(start.elapsed()));
        let start = Instant::now();
        std::hint::black_box(multi_source_distances(&overlay, &applied.touched, d));
        bfs_us.push(us(start.elapsed()));
    }
    put("graph.bfs_us", mean(&bfs_us));
    put("graph.delta_us", mean(&delta_us));
    let window = ratio(updates, publishes).round().max(1.0) as usize;
    let mut coalesce_us = Vec::new();
    let mut replay = DeltaGraph::new(b.graph.clone());
    for chunk in batches.chunks(window) {
        let start = Instant::now();
        let mut c = Coalescer::new();
        for batch in chunk {
            c.push(&replay, batch).expect("accepted batches coalesce cleanly");
        }
        let (net, _) = c.finish();
        coalesce_us.push(us(start.elapsed()));
        net.iter().for_each(|n| {
            replay.apply(n);
        });
    }
    put("graph.coalesce_us", mean(&coalesce_us));
    let start = Instant::now();
    std::hint::black_box(overlay.compact());
    put("graph.compact_ms", start.elapsed().as_secs_f64() * 1e3);

    // gpar-iso: anchored existence per (rule, candidate) on the sites,
    // with the served preset and with VF2.
    let per_rule = (MAX_PROBE_PAIRS / b.rules.len().max(1)).clamp(1, sites.len());
    let probe = |cfg: MatcherConfig| {
        let scratch = SharedScratch::default();
        let patterns = PatternSketchCache::default();
        let (mut matched, mut pairs) = (0usize, 0usize);
        let start = Instant::now();
        for rule in &b.rules {
            let q = rule.antecedent();
            for s in &sites[..per_rule] {
                let m = Matcher::new(s.graph(), cfg)
                    .with_scratch(scratch.clone())
                    .with_shared_pattern_cache(patterns.clone());
                matched += usize::from(m.exists_anchored(q, q.x(), s.center));
                pairs += 1;
            }
        }
        (us(start.elapsed()) / pairs.max(1) as f64, ratio(matched as f64, pairs as f64))
    };
    let (served_us, match_frac) = probe(MatchOpts::for_algorithm(b.serve_cfg.algorithm).engine);
    put("iso.probe_us", served_us);
    put("iso.probe_us.vf2", probe(MatcherConfig::vf2()).0);
    put("iso.match_frac", match_frac);
    put("iso.cand_prune_frac", cand_prune_frac);

    // gpar-partition: sites for all of L, and the executor's chunking.
    let start = Instant::now();
    let all_sites = build_sites(b.graph.as_ref(), &b.centers, d);
    put("partition.sites_ms", start.elapsed().as_secs_f64() * 1e3);
    let loads: Vec<u64> = all_sites.iter().map(CenterSite::load).collect();
    let chunk_loads: Vec<f64> = chunk_by_load(&loads, b.workers * 16)
        .into_iter()
        .map(|r| loads[r].iter().sum::<u64>() as f64)
        .collect();
    put("partition.load_skew", skew(&chunk_loads));

    // gpar-exec, gpar-mine and gpar-eip: from the run's own results.
    let secs = |ds: &[Duration]| ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();
    let rounds: Vec<Vec<f64>> = b.mined.round_worker_times.iter().map(|r| secs(r)).collect();
    put("exec.mine.skew", mean(&rounds.iter().map(|r| skew(r)).collect::<Vec<_>>()));
    let eip_busy = secs(&t.eip.worker_times);
    put("exec.eip.skew", skew(&eip_busy));
    let (mut idle, mut capacity) = (0.0, 0.0);
    for busy in rounds.iter().chain(std::iter::once(&eip_busy)) {
        let max = busy.iter().copied().fold(0.0, f64::max);
        capacity += max * busy.len() as f64;
        idle += max * busy.len() as f64 - busy.iter().sum::<f64>();
    }
    put("exec.idle_frac", ratio(idle, capacity));
    put("exec.steals", (b.mined.steals + t.eip.steals) as f64);
    put("mine.partition_s", b.mined.partition_time.as_secs_f64());
    put("mine.coordinator_s", b.mined.coordinator_time.as_secs_f64());
    put("mine.sim_parallel_s", b.mined.simulated_parallel_time().as_secs_f64());
    put("mine.candidates", b.mined.candidates_generated as f64);
    put("mine.sigma_frac", ratio(b.mined.sigma_size as f64, b.mined.candidates_generated as f64));
    put("eip.partition_s", t.eip.partition_time.as_secs_f64());
    put("eip.coordinator_s", t.eip.coordinator_time.as_secs_f64());
    put("eip.sim_parallel_s", t.eip.simulated_parallel_time().as_secs_f64());
    put("eip.candidates", t.eip.candidates as f64);
    put("eip.customer_frac", ratio(t.eip.customers.len() as f64, t.eip.candidates as f64));

    // The generator, and what keeping spans costs.
    put("gen.lateness_p99_us", quantile(&t.fixed.lateness_ns, 0.99) as f64 / 1e3);
    put("gen.cpu_frac", ratio(t.fixed.gen_cpu.as_secs_f64(), t.fixed.wall.as_secs_f64()));
    put("obs.trace_overhead_frac", trace_overhead);
    m
}

/// Alternates short read phases without and with per-request spans at the
/// fixed-rate traffic's rate; returns traced p50 / untraced p50 − 1.
fn trace_overhead(b: &mut Bench, t: &Traffic, opts: &Options) -> f64 {
    let expect = Expect { customers: Some(&t.customers), top_rules: Some(&t.top_rules) };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut mismatched = 0;
    for i in 0..4u64 {
        let plan = PhasePlan {
            query_rate: b.spec.query_rate,
            identify_share: 0.85,
            update_rate: 0.0,
            duration: Duration::from_secs_f64(opts.seconds * 0.05),
            seed: opts.seed.wrapping_add(2000 + i),
        };
        let keep = i % 2 == 1;
        let out = run_phase(&t.engine, b.pred, &t.mix, None, &expect, &plan, keep);
        b.count(&out);
        mismatched += out.mismatched;
        if keep { &mut traced } else { &mut plain }.extend(out.identify_ns);
    }
    b.check("trace-overhead replies equal the oracle", mismatched == 0);
    ratio(quantile(&traced, 0.5) as f64, quantile(&plain, 0.5) as f64) - 1.0
}

/// The `n` slowest requests of a traced phase, one line each: what the
/// tail looked like and how much of it the generator's lateness explains.
pub fn slowest(out: &PhaseOut, n: usize) -> Vec<String> {
    let mut spans = out.spans.clone();
    spans.sort_by_key(|s| std::cmp::Reverse(s.done - s.intended));
    spans
        .iter()
        .take(n)
        .map(|s| {
            let class = match s.class {
                Class::Identify => "identify",
                Class::TopRules => "top_rules",
                Class::Update(kind) => kind.name(),
            };
            format!(
                "slow request: {class:<10} intended at {:>9.3} ms, sent {:>7.3} ms late, answered after {:>8.3} ms",
                s.intended.as_secs_f64() * 1e3,
                (s.sent - s.intended).as_secs_f64() * 1e3,
                (s.done - s.intended).as_secs_f64() * 1e3
            )
        })
        .collect()
}
