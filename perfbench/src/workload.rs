//! The workloads and the pipeline every one of them runs.
//!
//! Each run mines rules with DMine and answers them once with one-shot EIP
//! (the oracle). It then goes through [`ROUNDS`] rounds: each starts the
//! serving engine from cold, offers it a share of the fixed-rate
//! open-loop traffic, settles and checks it, and times one-shot EIP and
//! DMine. Last, it bisects the sustainable query rate. Every answer is
//! checked. The workloads differ in graph, rule set and traffic, so that
//! a different layer dominates each:
//!
//! * `read_hot` — 500 users, DMine's top-8 plus 8 generated radius-2
//!   rules; reads only in the fixed-rate traffic, so per-candidate matching
//!   and the read path do the work. In every round a write segment of
//!   pair joins and leaves follows the reads.
//! * `write_churn` — 2,000 users, DMine's top-8 (radius 1, mostly
//!   sketch-pruned); update batches beside the reads, so per-publish
//!   repair does the work. Its rounds time the paper's offline pipeline:
//!   DMine with k = 8, σ = 2, d = 2 over 2,000 users, and one-shot EIP
//!   over the whole mined Σ.

use crate::gen::{run_phase, Expect, PhaseOut, PhasePlan, QueryMix};
use crate::stats::{median_s, percentile_ms, quantile, tail_ms, Metric};
use crate::steal;
use crate::updates::{Mix, UpdateStream};
use crate::Options;
use gpar_core::{Gpar, Predicate};
use gpar_datagen::{generate_rules, pokec_like, RuleGenConfig, SocialGraph};
use gpar_eip::{identify, EipAlgorithm, EipConfig, EipResult};
use gpar_graph::{Graph, GraphView, NodeId};
use gpar_mine::{DMine, DmineConfig, MineResult};
use gpar_serve::{MetricsSnapshot, RuleCatalog, RuleInfo, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The graph generator's seed: every run serves the same graph, and
/// `--seed` varies the traffic offered to it.
const GRAPH_SEED: u64 = 0xD0C;
/// Confidence bound η.
pub const ETA: f64 = 1.5;
/// Rounds per run. Host contention comes in episodes of seconds to tens
/// of seconds. Spread over the rounds, latencies are sampled and DMine
/// and EIP timed at many points of the run, so no single episode decides
/// a metric.
pub const ROUNDS: usize = 6;
/// Cold engine starts in the first round, fewest and most, and the time
/// after which no further one begins; then as many in each later round.
/// Each round serves the last engine it started. `setup_s` is the median
/// of the starts no steal burst disturbed.
const COLD_STARTS: ((usize, usize), Duration) = ((5, 25), Duration::from_millis(1500));
const COLD_STARTS_PER_ROUND: ((usize, usize), Duration) = ((1, 5), Duration::from_millis(250));
/// Timed DMine and EIP runs per round, fewest and most, and the time
/// after which a round starts no further run. `mine_s` and `eip_s` are
/// the fastest undisturbed run of all rounds: the work is fixed, so a
/// slower run measures interference from the host. On a shared two-core
/// VM, EIP over Σ took 0.32 s or 0.45 s within one run depending on the
/// moment, and the fastest of a run repeated within 1.5% over three runs.
const REPEATS: (usize, usize) = (1, 4);
const REPEAT_BUDGET: Duration = Duration::from_millis(500);
/// The identify p99 a sustained rate must stay within.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Bisection probes per run.
const PROBES: usize = 8;

pub enum Catalog {
    /// DMine's top-k plus 8 generated radius-2 rules.
    TopKPlusGenerated,
    /// DMine's top-k.
    TopK,
}

pub struct Spec {
    pub name: &'static str,
    pub users: usize,
    pub catalog: Catalog,
    /// Whether `eip_s` times EIP over every rule DMine retained (Σ)
    /// rather than over the served catalog.
    pub eip_over_sigma: bool,
    /// Offered queries per second in the fixed-rate traffic.
    pub query_rate: f64,
    /// Update batches per second beside the fixed-rate queries.
    pub churn_rate: f64,
    /// Update batches per second of the write segments after the reads (0
    /// when the fixed-rate traffic already carries updates).
    pub pair_rate: f64,
    /// Shares of `--seconds` for the fixed-rate traffic, the bisection and
    /// the write segments; the first and last are split over the rounds.
    pub shares: [f64; 3],
    /// The first rate the bisection offers.
    pub bisect_from: f64,
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "read_hot",
        users: 500,
        catalog: Catalog::TopKPlusGenerated,
        eip_over_sigma: false,
        query_rate: 200.0,
        churn_rate: 0.0,
        pair_rate: 250.0,
        shares: [0.45, 0.1, 0.3],
        bisect_from: 500.0,
    },
    Spec {
        name: "write_churn",
        users: 2000,
        catalog: Catalog::TopK,
        eip_over_sigma: true,
        query_rate: 400.0,
        churn_rate: 23.0,
        pair_rate: 0.0,
        shares: [0.62, 0.07, 0.0],
        bisect_from: 40000.0,
    },
];

/// The state a run's phases share.
pub struct Bench {
    pub spec: &'static Spec,
    pub sg: SocialGraph,
    pub graph: Arc<Graph>,
    pub pred: Predicate,
    pub centers: Vec<NodeId>,
    pub rules: Vec<Gpar>,
    pub catalog: RuleCatalog,
    pub serve_cfg: ServeConfig,
    pub workers: usize,
    pub mined: MineResult,
    /// The oracle: one-shot EIP over the served catalog.
    pub oracle: EipResult,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Bench {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
        self.checks.push((what, ok));
    }

    /// Folds a phase's request counts into the run's totals.
    pub fn count(&mut self, out: &PhaseOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }
}

/// DMine with the paper's k, σ and d, two levelwise rounds.
fn mine_config(workers: usize) -> DmineConfig {
    DmineConfig { k: 8, sigma: 2, d: 2, workers, max_rounds: 2, ..Default::default() }
}

fn same_result(a: &MineResult, b: &MineResult) -> bool {
    signature(&a.top_k) == signature(&b.top_k) && signature(&a.sigma) == signature(&b.sigma)
}

/// The signature two mining runs must share: rules (by canonical code of
/// `P_R`) and their global counts, in order.
fn signature(
    rules: &[gpar_mine::MinedRule],
) -> Vec<(gpar_pattern::CanonicalCode, gpar_core::ConfStats)> {
    rules.iter().map(|m| (m.rule.pr().canonical_code(), m.stats)).collect()
}

fn sorted(customers: &gpar_graph::FxHashSet<NodeId>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = customers.iter().copied().collect();
    v.sort_unstable();
    v
}

fn eip_config(algorithm: EipAlgorithm, workers: usize) -> EipConfig {
    EipConfig { eta: ETA, d: None, ..EipConfig::new(algorithm, workers) }
}

/// Wall times of repeated runs, each marked with whether a steal burst
/// disturbed it.
pub struct Timings(Vec<(Duration, bool)>);

impl Timings {
    fn clean(&self) -> Vec<Duration> {
        self.0.iter().filter(|(_, disturbed)| !disturbed).map(|&(t, _)| t).collect()
    }

    /// The fastest undisturbed run (of all runs, if every one was
    /// disturbed), in seconds.
    pub fn fastest_s(&self) -> f64 {
        let clean = self.clean();
        let pool = if clean.is_empty() { self.0.iter().map(|&(t, _)| t).collect() } else { clean };
        pool.iter().min().map_or(0.0, Duration::as_secs_f64)
    }

    /// The median undisturbed run (of all runs, if bursts disturbed more
    /// than half), in seconds.
    pub fn median_s(&self) -> f64 {
        let clean = self.clean();
        if 2 * clean.len() >= self.0.len() {
            median_s(&clean)
        } else {
            median_s(&self.0.iter().map(|&(t, _)| t).collect::<Vec<_>>())
        }
    }

    pub fn describe(&self, what: &str) -> String {
        format!("{} {what}, {} disturbed by steal", self.0.len(), self.0.len() - self.clean().len())
    }
}

/// A computation timed in every round: its fastest undisturbed run, in
/// seconds, and a description of the runs with each round's fastest.
fn round_fastest(rounds: Vec<Timings>, what: &str) -> (f64, String) {
    let listed: Vec<String> = rounds.iter().map(|t| format!("{:.4}", t.fastest_s())).collect();
    let all = Timings(rounds.into_iter().flat_map(|t| t.0).collect());
    let detail =
        format!("fastest of {}; rounds' fastest [{}]", all.describe(what), listed.join(" "));
    (all.fastest_s(), detail)
}

/// Runs `f` at least `min` times and at most `max` times, starting new
/// runs while less than `budget` has passed; returns each run's timing
/// and result.
fn repeat_timed<T>(
    (min, max): (usize, usize),
    budget: Duration,
    cores: usize,
    mut f: impl FnMut() -> T,
) -> (Timings, Vec<T>) {
    let began = Instant::now();
    let (mut times, mut outs) = (Vec::new(), Vec::new());
    while times.len() < min || (times.len() < max && began.elapsed() < budget) {
        let stolen = steal::ticks();
        let t = Instant::now();
        outs.push(f());
        let wall = t.elapsed();
        let burst = match (stolen, steal::ticks()) {
            (Some(a), Some(b)) => steal::disturbed(b - a, wall, cores),
            _ => false,
        };
        times.push((wall, burst));
    }
    (Timings(times), outs)
}

/// Mines, builds the catalog and answers it once: the set-up every phase
/// relies on.
pub fn prepare(spec: &'static Spec, opts: &Options) -> Bench {
    let workers = opts.workers;
    let sg = pokec_like(spec.users, GRAPH_SEED);
    let graph = Arc::new(sg.graph.clone());
    let pred = sg.schema.predicate("music", 0).expect("pokec_like has a music family");
    let centers = graph.label_members(sg.schema.user);

    // Mining; the rounds time it again and must mine the same rules,
    // whatever the scheduling.
    let mined = DMine::new(mine_config(workers)).run(&sg.graph, &pred);
    release_freed();

    let mut catalog = RuleCatalog::new(graph.vocab().clone());
    let mut rules = Vec::new();
    let mut add = |rule: Arc<Gpar>, stats| {
        if catalog.insert(rule.clone(), stats) {
            rules.push((*rule).clone());
        }
    };
    mined.top_k.iter().for_each(|m| add(m.rule.clone(), m.stats));
    if let Catalog::TopKPlusGenerated = spec.catalog {
        let generated = generate_rules(
            &sg.graph,
            &pred,
            &RuleGenConfig { count: 8, pattern_nodes: 5, pattern_edges: 7, max_radius: 2, seed: 3 },
        );
        generated.into_iter().for_each(|r| add(Arc::new(r), gpar_core::ConfStats::default()));
    }

    // One-shot EIP over the catalog: the oracle every served answer is
    // checked against.
    let oracle = identify(graph.as_ref(), &rules, &eip_config(EipAlgorithm::Match, workers))
        .expect("catalog is non-empty");
    release_freed();

    let serve_cfg = ServeConfig { workers, eta: ETA, ..Default::default() };
    let bench = Bench {
        spec,
        sg,
        graph,
        pred,
        centers,
        rules,
        catalog,
        serve_cfg,
        workers,
        mined,
        oracle,
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    println!(
        "{}: |V|={} |E|={} |L|={} mined Σ={} top-k={} catalog={} rules, oracle admits {} of {}",
        spec.name,
        bench.graph.node_count(),
        bench.graph.edge_count(),
        bench.centers.len(),
        bench.mined.sigma_size,
        bench.mined.top_k.len(),
        bench.rules.len(),
        bench.oracle.customers.len(),
        bench.oracle.candidates
    );
    bench
}

/// Starts the engine from cold several times, each through its first
/// (warming) identify; returns the last engine and the start times.
fn cold_starts(
    b: &mut Bench,
    (starts, budget): ((usize, usize), Duration),
) -> (ServeEngine, Timings) {
    let want = sorted(&b.oracle.customers);
    let mut engine: Option<ServeEngine> = None;
    let (times, firsts) = repeat_timed(starts, budget, b.workers, || {
        drop(engine.take());
        let e = ServeEngine::new(b.graph.clone(), &b.catalog, b.serve_cfg.clone());
        let first = e.identify(b.pred, None);
        engine = Some(e);
        first
    });
    let all_equal = firsts.into_iter().all(|f| f.is_ok_and(|r| r.customers == want));
    b.check("every cold start's warming answer equals the oracle", all_equal);
    (engine.expect("at least one cold start"), times)
}

/// The engine's top-rules reply, and whether its counts equal `oracle`'s.
fn top_rules_vs(
    rules: &[Gpar],
    engine: &ServeEngine,
    pred: Predicate,
    oracle: &EipResult,
) -> (Vec<RuleInfo>, bool) {
    let top = engine.top_rules(pred, 4).unwrap_or_default();
    let ok = !top.is_empty()
        && top.iter().all(|info| {
            let code = info.rule.pr().canonical_code();
            rules
                .iter()
                .position(|r| r.pr().canonical_code() == code)
                .is_some_and(|i| oracle.per_rule[i].stats == info.stats)
        });
    (top, ok)
}

/// After updates settle: the engine's full answer must equal one-shot
/// EIP on the graph rebuilt from every accepted batch. Returns that
/// oracle answer.
fn settle_check(
    b: &mut Bench,
    engine: &ServeEngine,
    stream: &UpdateStream,
) -> (Vec<NodeId>, EipResult) {
    b.check("every update batch was answered", stream.all_confirmed());
    let rebuilt = stream.rebuild(&b.graph);
    let oracle = identify(&rebuilt, &b.rules, &eip_config(EipAlgorithm::Match, b.workers))
        .expect("catalog is non-empty");
    let want = sorted(&oracle.customers);
    let got = engine.identify(b.pred, None).map(|r| r.customers).unwrap_or_default();
    b.check("settled answer equals EIP on the rebuilt graph", got == want);
    b.check("node ids were never remapped", engine.remaps_since(0).is_empty());
    (want, oracle)
}

/// The phases a traced run adds its layer metrics from.
pub struct Traffic {
    /// One of the timed EIP runs.
    pub eip: EipResult,
    pub engine: ServeEngine,
    pub mix: QueryMix,
    /// The fixed-rate traffic of every round, as one phase, and its
    /// metric delta.
    pub fixed: PhaseOut,
    pub fixed_delta: MetricsSnapshot,
    /// The write segments, when the fixed-rate traffic had no updates,
    /// with their metric delta.
    pub pairs: Option<(PhaseOut, MetricsSnapshot)>,
    pub stream: UpdateStream,
    /// The answer and top-rules reply that hold once writes have settled.
    pub customers: Vec<NodeId>,
    pub top_rules: Vec<RuleInfo>,
}

impl Traffic {
    /// The phase that carried the update batches, and its metric delta.
    pub fn writes(&self) -> (&PhaseOut, &MetricsSnapshot) {
        match &self.pairs {
            Some((out, delta)) => (out, delta),
            None => (&self.fixed, &self.fixed_delta),
        }
    }
}

/// The segments of one kind over all rounds: merged into one phase, with
/// their metric deltas and their undisturbed latencies.
#[derive(Default)]
struct Segments {
    out: PhaseOut,
    deltas: Vec<MetricsSnapshot>,
    identify_ns: Vec<u64>,
    update_ns: Vec<u64>,
}

impl Segments {
    /// Runs one segment from `plan` and adds it, with the latencies that
    /// no steal burst overlapped (see `steal`).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        b: &mut Bench,
        engine: &ServeEngine,
        mix: &QueryMix,
        stream: &mut UpdateStream,
        expect: &Expect<'_>,
        plan: &PhasePlan,
        since: Instant,
        trace: bool,
    ) {
        let m0 = engine.metrics();
        let offset = since.elapsed();
        let out = run_phase(engine, b.pred, mix, Some(stream), expect, plan, trace);
        self.deltas.push(engine.metrics().minus(&m0));
        release_freed();
        b.count(&out);
        self.identify_ns.extend(out.clean_identify_ns());
        self.update_ns.extend(out.clean_update_ns());
        self.out.absorb(out, offset);
    }
}

/// Runs the workload's timed part; returns its end-to-end metrics, the
/// ones it measures but does not gate on, and what the traced run needs.
pub fn run(b: &mut Bench, opts: &Options) -> (Vec<Metric>, Vec<Metric>, Traffic) {
    let spec = b.spec;
    let per_round = |share: f64| Duration::from_secs_f64(opts.seconds * share / ROUNDS as f64);
    let oracle_customers = sorted(&b.oracle.customers);
    let mix = QueryMix::new(b.centers.clone());
    let mix_kind = if spec.churn_rate > 0.0 { Mix::Churn } else { Mix::Pairs };
    // EIP is timed over every rule DMine retained (Σ) or over the catalog.
    let eip_rules: Vec<Gpar> = if spec.eip_over_sigma {
        b.mined.unique_sigma().into_iter().map(|m| (*m.rule).clone()).collect()
    } else {
        b.rules.clone()
    };
    let static_reads = spec.churn_rate == 0.0;

    let since = Instant::now();
    let (mut reads, mut pairs) = (Segments::default(), Segments::default());
    let mut starts = Timings(Vec::new());
    let (mut eip_times, mut mine_times) = (Vec::new(), Vec::new());
    let mut eip: Option<EipResult> = None;
    let (mut same_eip, mut same_mining) = (true, true);
    let mut rss = 0.0;
    let mut served: Option<(ServeEngine, UpdateStream)> = None;
    let (mut customers, mut top_rules) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS as u64 {
        let seed = opts.seed.wrapping_add(100 * round);
        // Every round serves an engine started afresh on the unchanged
        // graph, with an update stream of its own, so the rounds repeat
        // one workload rather than serve a graph that keeps growing.
        drop(served.take());
        release_freed();
        let (engine, times) =
            cold_starts(b, if round == 0 { COLD_STARTS } else { COLD_STARTS_PER_ROUND });
        starts.0.extend(times.0);
        let (top, ok) = top_rules_vs(&b.rules, &engine, b.pred, &b.oracle);
        b.check("top-rules counts equal the oracle's", ok);
        let mut stream = UpdateStream::new(
            &b.sg.graph,
            &b.sg.users,
            b.sg.schema.user,
            b.sg.schema.follow,
            mix_kind,
            seed,
        );

        // The fixed-rate traffic; static reads must equal the oracle.
        let plan = PhasePlan {
            query_rate: spec.query_rate,
            identify_share: 0.85,
            update_rate: spec.churn_rate,
            duration: per_round(spec.shares[0]),
            seed,
        };
        let expect = Expect {
            customers: static_reads.then_some(oracle_customers.as_slice()),
            top_rules: static_reads.then_some(top.as_slice()),
        };
        reads.run(b, &engine, &mix, &mut stream, &expect, &plan, since, opts.trace);
        // The write segment of workloads whose reads carry no updates.
        if spec.pair_rate > 0.0 {
            let plan = PhasePlan {
                query_rate: 0.0,
                identify_share: 0.0,
                update_rate: spec.pair_rate,
                duration: per_round(spec.shares[2]),
                seed: seed ^ 0x3,
            };
            let none = Expect { customers: None, top_rules: None };
            pairs.run(b, &engine, &mix, &mut stream, &none, &plan, since, opts.trace);
        }
        // Once the writes settle, the engine must answer like EIP on the
        // rebuilt graph.
        let settled;
        (customers, settled) = settle_check(b, &engine, &stream);
        let ok;
        (top_rules, ok) = top_rules_vs(&b.rules, &engine, b.pred, &settled);
        b.check("after the writes: top-rules counts equal the oracle's", ok);
        drop(settled);
        served = Some((engine, stream));
        release_freed();
        if round == 0 {
            // The footprint of mining, the oracle, the cold starts and
            // serving, read before any timed run: EIP and DMine running
            // beside the live engine would add their own transient peak.
            rss = peak_rss_mb();
        }

        // One-shot EIP (Match) and DMine, each on the served graph as it
        // was before any update; every run must give the same answer.
        let (times, answers) = repeat_timed(REPEATS, REPEAT_BUDGET, b.workers, || {
            identify(b.graph.as_ref(), &eip_rules, &eip_config(EipAlgorithm::Match, b.workers))
                .expect("rule set is non-empty")
        });
        eip_times.push(times);
        for answer in answers {
            match &eip {
                Some(first) => same_eip &= answer.customers == first.customers,
                None => eip = Some(answer),
            }
        }
        release_freed();
        let (times, runs) = repeat_timed(REPEATS, REPEAT_BUDGET, b.workers, || {
            DMine::new(mine_config(b.workers)).run(&b.sg.graph, &b.pred)
        });
        mine_times.push(times);
        same_mining &= runs.iter().all(|r| same_result(r, &b.mined));
        drop(runs);
        release_freed();
    }
    let eip = eip.expect("every round times EIP");
    let matchs =
        identify(b.graph.as_ref(), &eip_rules, &eip_config(EipAlgorithm::Matchs, b.workers))
            .expect("rule set is non-empty");
    b.check("EIP (Match) answers are identical across runs", same_eip);
    b.check("EIP Match and Matchs admit the same customers", matchs.customers == eip.customers);
    b.check("DMine's top-k and Σ are identical across runs", same_mining);
    if static_reads {
        b.check("fixed-rate replies equal the oracle", reads.out.mismatched == 0);
    }
    drop(matchs);
    release_freed();
    let (engine, stream) = served.expect("at least one round");
    let sustained = bisect(b, &engine, &mix, &customers, &top_rules, opts);

    let (fixed, writes) = (&reads.out, if spec.pair_rate > 0.0 { &pairs } else { &reads });
    println!(
        "{}: fixed-rate traffic answered {} identifies ({:.1}% non-empty), {} top-rules; {} update batches",
        spec.name,
        fixed.identify_ns.len(),
        100.0 * crate::stats::ratio(fixed.nonempty as f64, fixed.identify_ns.len() as f64),
        fixed.top_rules_ns.len(),
        writes.out.update_ns.len()
    );
    println!(
        "{}: steal bursts left out {} of {} identifies ({} ticks stolen) and {} of {} update batches ({} ticks)",
        spec.name,
        fixed.identify_ns.len() - reads.identify_ns.len(),
        fixed.identify_ns.len(),
        fixed.bursts.stolen,
        writes.out.update_ns.len() - writes.update_ns.len(),
        writes.out.update_ns.len(),
        writes.out.bursts.stolen
    );
    b.check("some identify answers are non-empty", fixed.nonempty > 0);

    let (identify_ns, update_ns) = (&reads.identify_ns, &writes.update_ns);
    let (mine_s, mine_detail) = round_fastest(mine_times, "DMine runs");
    let (eip_s, eip_detail) = round_fastest(eip_times, "EIP runs");
    let metrics = vec![
        Metric::new("setup_s", "s", starts.median_s())
            .with(format!("median of {}", starts.describe("cold starts"))),
        percentile_ms("identify_p50_ms", identify_ns, 0.50),
        percentile_ms("update_p50_ms", update_ns, 0.50),
        Metric::new("mine_s", "s", mine_s).with(mine_detail),
        Metric::new("eip_s", "s", eip_s)
            .with(format!("{eip_detail}, over {} rules", eip.per_rule.len())),
        Metric::new("peak_rss_mb", "MB", rss)
            .with("peak resident set through mining, the oracle, cold starts and the first round"),
    ];
    // Measured in every run but too sensitive to the host's other tenants
    // to gate on two cores (see `BENCHMARK.json`'s per-layer list).
    let ungated = vec![
        tail_ms("serve.read.identify_p99_ms", identify_ns, 0.99),
        Metric::new("serve.read.sustained_qps", "1/s", sustained)
            .with(format!("identify p99 <= {P99_LIMIT_MS} ms and no growing backlog")),
        tail_ms("serve.write.update_p95_ms", update_ns, 0.95),
    ];
    let merged = |s: &Segments| MetricsSnapshot::merged(&s.deltas);
    let fixed_delta = merged(&reads);
    let pairs = (spec.pair_rate > 0.0).then(|| {
        let delta = merged(&pairs);
        (pairs.out, delta)
    });
    let traffic = Traffic {
        eip,
        engine,
        mix,
        fixed: reads.out,
        fixed_delta,
        pairs,
        stream,
        customers,
        top_rules,
    };
    (metrics, ungated, traffic)
}

/// Bisects the offered query rate (reads only) for the highest one whose
/// identify p99 stays within [`P99_LIMIT_MS`] and whose replies keep up
/// with the sends.
fn bisect(
    b: &mut Bench,
    engine: &ServeEngine,
    mix: &QueryMix,
    customers: &[NodeId],
    top_rules: &[RuleInfo],
    opts: &Options,
) -> f64 {
    let probe = Duration::from_secs_f64(opts.seconds * b.spec.shares[1] / PROBES as f64);
    let expect = Expect { customers: Some(customers), top_rules: Some(top_rules) };
    let mut mismatched = 0;
    let mut used = 0;
    // One probe at `rate`: whether it was sustained, and the completion
    // rate achieved. A probe that misses while keeping up with the sends
    // (a tail over the limit), or that a steal burst disturbed, is tried
    // once more before it counts against the rate, so one burst of host
    // contention cannot steer the bisection. `None` once the probe budget
    // is spent.
    let mut sustains = |b: &mut Bench, rate: f64| -> Option<(bool, f64)> {
        for _ in 0..2 {
            if used == PROBES {
                return None;
            }
            used += 1;
            let plan = PhasePlan {
                query_rate: rate,
                identify_share: 0.85,
                update_rate: 0.0,
                duration: probe,
                seed: opts.seed.wrapping_add(1000 + used as u64),
            };
            let out = run_phase(engine, b.pred, mix, None, &expect, &plan, false);
            b.count(&out);
            mismatched += out.mismatched;
            let sent = (out.identify_ns.len() + out.top_rules_ns.len()) as f64;
            let p99_ms = quantile(&out.identify_ns, 0.99) as f64 / 1e6;
            let kept_up = out.achieved_qps() >= 0.95 * sent / probe.as_secs_f64();
            let pass = kept_up && p99_ms <= P99_LIMIT_MS;
            let noisy = steal::disturbed(out.bursts.stolen, out.wall, opts.workers);
            eprintln!(
                "  bisect: offered {rate:.0}/s, identify p99 {p99_ms:.2} ms, achieved {:.0}/s, \
                 {} ticks stolen: {}",
                out.achieved_qps(),
                out.bursts.stolen,
                if pass { "sustained" } else { "not sustained" }
            );
            if pass || !(kept_up || noisy) {
                return Some((pass, out.achieved_qps()));
            }
        }
        Some((false, rate))
    };
    // Double or halve from the start rate until the verdict flips, then
    // bisect geometrically with the probes left. A backlogged probe's
    // completion rate bounds what the engine can sustain, so it tightens
    // the upper end at once.
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut rate = b.spec.bisect_from;
    while let Some((ok, achieved)) = sustains(b, rate) {
        if ok {
            lo = Some(rate);
        } else {
            let floor = lo.unwrap_or(0.0);
            hi = Some(if achieved > floor { achieved.min(rate) } else { rate });
        }
        rate = match (lo, hi) {
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * 2.0,
            (None, Some(h)) => h / 2.0,
            (None, None) => unreachable!("every probe sets a bound"),
        };
    }
    b.check("bisection replies equal the oracle", mismatched == 0);
    b.check("some offered rate was sustained", lo.is_some());
    lo.unwrap_or(0.0)
}

extern "C" {
    /// glibc: returns freed heap memory of every arena to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the OS between stages. Without it, which
/// allocator arena a stage's worker threads happened to use decides how
/// much of an earlier stage's freed memory stays resident, and the peak
/// resident set swings by a third from run to run.
pub fn release_freed() {
    // SAFETY: malloc_trim only releases free heap pages; it has no
    // preconditions and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
