//! The open-loop load generator: one thread drives one merged schedule of
//! queries and update batches against a [`ServeEngine`], and timestamps
//! every reply itself.
//!
//! Queries arrive as a seeded Poisson process, update batches at a fixed
//! interval. Every request is charged from its *intended* send time, so
//! a backlog shows up as latency instead of quietly lowering the offered
//! rate. Between sends the thread sleeps in a blocking receive on the
//! pending reply most likely to land first (the oldest query, else the
//! oldest update batch), so it leaves the cores to the engine; the wait
//! is cut into short slices only while several replies are in flight, so
//! an overtaking reply is stamped within a slice of its arrival.

use crate::steal::{Bursts, StealLog};
use crate::updates::{UpdateKind, UpdateStream};
use gpar_core::Predicate;
use gpar_graph::NodeId;
use gpar_serve::{
    IdentifyRequest, IdentifyResponse, QueryError, QueryOpts, RuleInfo, ServeEngine, Ts,
    UpdateError, UpdateReport,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Longest blocking wait on one reply while others are also in flight.
const SLICE: Duration = Duration::from_micros(200);
/// Pending replies polled after each wake-up. Replies land close to
/// submission order (a FIFO queue in front of a small worker pool), so
/// only the head of the pending list can have completed early.
const SWEEP: usize = 32;

/// What a phase offers.
#[derive(Clone, Copy)]
pub struct PhasePlan {
    /// Mean query arrivals per second (0 disables queries).
    pub query_rate: f64,
    /// Share of queries that are identify requests; the rest are top-rules.
    pub identify_share: f64,
    /// Update batches per second, evenly spaced (0 disables updates).
    pub update_rate: f64,
    /// Length of the send schedule.
    pub duration: Duration,
    /// Seeds arrivals and candidate draws.
    pub seed: u64,
}

/// Draws identify candidate sets: 1–8 centers, Zipf(1.1) over `L`.
pub struct QueryMix {
    pool: Vec<NodeId>,
    zipf: Zipf,
}

impl QueryMix {
    pub fn new(pool: Vec<NodeId>) -> Self {
        let zipf = Zipf::new(pool.len() as u64, 1.1).expect("candidate pool is non-empty");
        Self { pool, zipf }
    }

    fn candidates(&self, rng: &mut StdRng) -> Vec<NodeId> {
        let size = rng.gen_range(1usize..=8);
        let mut c: Vec<NodeId> =
            (0..size).map(|_| self.pool[self.zipf.sample(rng) as usize - 1]).collect();
        c.sort_unstable();
        c.dedup();
        c
    }
}

/// The answers a phase must reproduce: `customers` is the oracle's full
/// answer, `top_rules` the expected top-rules reply. `None` skips the
/// check (while updates change the graph under the reads).
pub struct Expect<'a> {
    pub customers: Option<&'a [NodeId]>,
    pub top_rules: Option<&'a [RuleInfo]>,
}

/// One request's outcome, kept by the traced run.
#[derive(Clone, Copy)]
pub struct Span {
    pub class: Class,
    pub intended: Duration,
    pub sent: Duration,
    pub done: Duration,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Identify,
    TopRules,
    Update(UpdateKind),
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Intended send → reply received, per class, in nanoseconds.
    pub identify_ns: Vec<u64>,
    pub top_rules_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    /// `(intended send, reply)` offsets from the phase start, parallel to
    /// `identify_ns` and `update_ns`.
    pub identify_when: Vec<(Duration, Duration)>,
    pub update_when: Vec<(Duration, Duration)>,
    /// Steal bursts during the phase.
    pub bursts: Bursts,
    /// Actual send − intended send, per request.
    pub lateness_ns: Vec<u64>,
    /// Requests sent and requests that failed (engine error or check).
    pub attempted: u64,
    pub failed: u64,
    /// Identify replies checked against the oracle and found wrong.
    pub mismatched: u64,
    /// Identify replies with at least one customer.
    pub nonempty: u64,
    /// Summed over identify replies.
    pub evaluated: u64,
    pub pruned: u64,
    pub customers: u64,
    /// Generator thread CPU time and the phase's wall time (schedule
    /// start → last reply).
    pub gen_cpu: Duration,
    pub wall: Duration,
    /// Per-request spans (traced runs only).
    pub spans: Vec<Span>,
}

impl PhaseOut {
    /// Completed queries per second of wall time.
    pub fn achieved_qps(&self) -> f64 {
        (self.identify_ns.len() + self.top_rules_ns.len()) as f64 / self.wall.as_secs_f64()
    }

    /// Identify latencies that no steal burst overlapped.
    pub fn clean_identify_ns(&self) -> Vec<u64> {
        self.bursts.undisturbed(&self.identify_ns, &self.identify_when)
    }

    /// Update latencies that no steal burst overlapped.
    pub fn clean_update_ns(&self) -> Vec<u64> {
        self.bursts.undisturbed(&self.update_ns, &self.update_when)
    }

    /// Appends a later phase that started `offset` after this one, so
    /// that the rounds of a run read as one phase.
    pub fn absorb(&mut self, later: PhaseOut, offset: Duration) {
        let shift =
            |w: Vec<(Duration, Duration)>| w.into_iter().map(|(a, b)| (a + offset, b + offset));
        self.identify_ns.extend(later.identify_ns);
        self.top_rules_ns.extend(later.top_rules_ns);
        self.update_ns.extend(later.update_ns);
        self.identify_when.extend(shift(later.identify_when));
        self.update_when.extend(shift(later.update_when));
        self.bursts.absorb(later.bursts, offset);
        self.lateness_ns.extend(later.lateness_ns);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.mismatched += later.mismatched;
        self.nonempty += later.nonempty;
        self.evaluated += later.evaluated;
        self.pruned += later.pruned;
        self.customers += later.customers;
        self.gen_cpu += later.gen_cpu;
        self.wall += later.wall;
        self.spans.extend(later.spans.into_iter().map(|s| Span {
            intended: s.intended + offset,
            sent: s.sent + offset,
            done: s.done + offset,
            ..s
        }));
    }
}

enum Waiting {
    Identify(Receiver<Result<IdentifyResponse, QueryError>>, Vec<NodeId>),
    TopRules(Receiver<Result<Vec<RuleInfo>, QueryError>>),
    Update(Receiver<Result<UpdateReport, UpdateError>>, usize, UpdateKind),
}

struct Pending {
    waiting: Waiting,
    intended: Duration,
    sent: Duration,
}

enum Reply {
    Identify(Result<IdentifyResponse, QueryError>),
    TopRules(Result<Vec<RuleInfo>, QueryError>),
    Update(Result<UpdateReport, UpdateError>),
}

impl Pending {
    fn is_query(&self) -> bool {
        !matches!(self.waiting, Waiting::Update(..))
    }

    fn try_take(&self) -> Option<Reply> {
        fn lost<T>(r: Result<T, TryRecvError>) -> Option<Result<T, TryRecvError>> {
            match r {
                Err(TryRecvError::Empty) => None,
                other => Some(other),
            }
        }
        Some(match &self.waiting {
            Waiting::Identify(rx, _) => {
                Reply::Identify(lost(rx.try_recv())?.unwrap_or(Err(QueryError::ReplyLost)))
            }
            Waiting::TopRules(rx) => {
                Reply::TopRules(lost(rx.try_recv())?.unwrap_or(Err(QueryError::ReplyLost)))
            }
            Waiting::Update(rx, ..) => {
                Reply::Update(lost(rx.try_recv())?.unwrap_or(Err(UpdateError::Stopped)))
            }
        })
    }

    fn take_within(&self, timeout: Duration) -> Option<Reply> {
        fn got<T>(r: Result<T, RecvTimeoutError>) -> Option<Result<T, RecvTimeoutError>> {
            match r {
                Err(RecvTimeoutError::Timeout) => None,
                other => Some(other),
            }
        }
        Some(match &self.waiting {
            Waiting::Identify(rx, _) => Reply::Identify(
                got(rx.recv_timeout(timeout))?.unwrap_or(Err(QueryError::ReplyLost)),
            ),
            Waiting::TopRules(rx) => Reply::TopRules(
                got(rx.recv_timeout(timeout))?.unwrap_or(Err(QueryError::ReplyLost)),
            ),
            Waiting::Update(rx, ..) => {
                Reply::Update(got(rx.recv_timeout(timeout))?.unwrap_or(Err(UpdateError::Stopped)))
            }
        })
    }
}

/// Runs one phase to completion: sends the whole schedule, then waits for
/// every reply. Update batches come from `updates`, which records each
/// accepted batch for the oracle's rebuild.
pub fn run_phase(
    engine: &ServeEngine,
    pred: Predicate,
    mix: &QueryMix,
    updates: Option<&mut UpdateStream>,
    expect: &Expect<'_>,
    plan: &PhasePlan,
    keep_spans: bool,
) -> PhaseOut {
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let schedule = merged_schedule(plan, &mut rng);
    let epoch_ts = Ts::now();
    let epoch = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = Run {
        expect,
        out: PhaseOut::default(),
        pending: VecDeque::new(),
        keep_spans,
        epoch,
        steal: StealLog::start(epoch, cores),
        updates,
    };
    let cpu0 = gpar_graph::thread_cpu_time();
    for (at, is_update) in schedule {
        let kind_and_batch = if is_update {
            let stream = run.updates.as_deref_mut().expect("update schedule needs a stream");
            let (kind, batch, needs, index) = stream.next_batch();
            if let Some(j) = needs {
                run.wait_for_update(j);
            }
            Some((kind, batch, index))
        } else {
            None
        };
        run.wait_until(run.epoch + at);
        let sent = run.epoch.elapsed();
        run.out.lateness_ns.push(sent.saturating_sub(at).as_nanos() as u64);
        run.out.attempted += 1;
        let scheduled = epoch_ts.plus(at);
        let waiting = match kind_and_batch {
            Some((kind, batch, index)) => match engine.submit_update_from(batch, scheduled) {
                Ok(rx) => Some(Waiting::Update(rx, index, kind)),
                Err(_) => None,
            },
            None if rng.gen_bool(plan.identify_share) => {
                let candidates = mix.candidates(&mut rng);
                let req = IdentifyRequest {
                    predicate: pred,
                    candidates: Some(candidates.clone()),
                    opts: QueryOpts::default(),
                };
                engine
                    .submit_identify_from(req, scheduled)
                    .ok()
                    .map(|rx| Waiting::Identify(rx, candidates))
            }
            None => engine
                .submit_top_rules_from(pred, 4, QueryOpts::default(), scheduled)
                .ok()
                .map(Waiting::TopRules),
        };
        match waiting {
            Some(waiting) => run.pending.push_back(Pending { waiting, intended: at, sent }),
            None => run.out.failed += 1,
        }
    }
    while !run.pending.is_empty() {
        run.wait_some(None);
    }
    run.out.wall = run.epoch.elapsed();
    run.out.gen_cpu = gpar_graph::thread_cpu_time().saturating_sub(cpu0);
    let Run { mut out, steal, .. } = run;
    out.bursts = steal.finish();
    out
}

/// A uniform sample in `[0, 1)` with 53 mantissa bits.
pub fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Poisson query arrivals merged with evenly spaced update ticks, as
/// `(offset, is_update)` in send order.
fn merged_schedule(plan: &PhasePlan, rng: &mut StdRng) -> Vec<(Duration, bool)> {
    let mut events = Vec::new();
    if plan.query_rate > 0.0 {
        let mut t = 0.0;
        loop {
            t += -(1.0 - unit(rng)).ln() / plan.query_rate;
            if t >= plan.duration.as_secs_f64() {
                break;
            }
            events.push((Duration::from_secs_f64(t), false));
        }
    }
    if plan.update_rate > 0.0 {
        let n = (plan.duration.as_secs_f64() * plan.update_rate) as u64;
        events.extend((0..n).map(|i| (Duration::from_secs_f64(i as f64 / plan.update_rate), true)));
    }
    events.sort_by_key(|&(at, _)| at);
    events
}

struct Run<'a> {
    expect: &'a Expect<'a>,
    out: PhaseOut,
    pending: VecDeque<Pending>,
    keep_spans: bool,
    epoch: Instant,
    steal: StealLog,
    updates: Option<&'a mut UpdateStream>,
}

impl Run<'_> {
    /// Collects replies until `deadline`, then returns.
    fn wait_until(&mut self, deadline: Instant) {
        loop {
            self.steal.sample();
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            if self.pending.is_empty() {
                std::thread::sleep(deadline - now);
            } else {
                self.wait_some(Some(deadline));
            }
        }
    }

    /// Blocks until the given update batch has been answered.
    fn wait_for_update(&mut self, index: usize) {
        while self
            .pending
            .iter()
            .any(|p| matches!(p.waiting, Waiting::Update(_, i, _) if i == index))
        {
            self.wait_some(None);
        }
    }

    /// Sleeps in a receive on the reply most likely to land first, up to
    /// `deadline`, then stamps every reply that has landed.
    fn wait_some(&mut self, deadline: Option<Instant>) {
        self.steal.sample();
        let target = self.pending.iter().position(Pending::is_query).unwrap_or(0);
        let crowded = self.pending.len() > 1 && self.pending[target].is_query();
        let mut timeout = match deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            None => Duration::from_secs(3600),
        };
        if crowded {
            timeout = timeout.min(SLICE);
        }
        if let Some(reply) = self.pending[target].take_within(timeout) {
            let p = self.pending.remove(target).expect("target is pending");
            self.record(p, reply);
        }
        let mut i = 0;
        while i < self.pending.len().min(SWEEP) {
            match self.pending[i].try_take() {
                Some(reply) => {
                    let p = self.pending.remove(i).expect("index is pending");
                    self.record(p, reply);
                }
                None => i += 1,
            }
        }
    }

    fn record(&mut self, p: Pending, reply: Reply) {
        let done = self.epoch.elapsed();
        let lat = done.saturating_sub(p.intended).as_nanos() as u64;
        let class = match (&p.waiting, reply) {
            (Waiting::Identify(_, cands), Reply::Identify(r)) => {
                match r {
                    Ok(resp) => {
                        self.out.identify_ns.push(lat);
                        self.out.identify_when.push((p.intended, done));
                        self.out.evaluated += resp.evaluated as u64;
                        self.out.pruned += resp.pruned as u64;
                        self.out.customers += resp.customers.len() as u64;
                        if !resp.customers.is_empty() {
                            self.out.nonempty += 1;
                        }
                        if let Some(all) = self.expect.customers {
                            let want: Vec<NodeId> = cands
                                .iter()
                                .copied()
                                .filter(|c| all.binary_search(c).is_ok())
                                .collect();
                            if resp.customers != want {
                                self.out.mismatched += 1;
                                self.out.failed += 1;
                            }
                        }
                    }
                    Err(_) => self.out.failed += 1,
                }
                Class::Identify
            }
            (Waiting::TopRules(_), Reply::TopRules(r)) => {
                match r {
                    Ok(rules) => {
                        self.out.top_rules_ns.push(lat);
                        if let Some(want) = self.expect.top_rules {
                            if !same_rules(&rules, want) {
                                self.out.mismatched += 1;
                                self.out.failed += 1;
                            }
                        }
                    }
                    Err(_) => self.out.failed += 1,
                }
                Class::TopRules
            }
            (Waiting::Update(_, index, kind), Reply::Update(r)) => {
                let stream = self.updates.as_deref_mut().expect("updates were sent from a stream");
                match r {
                    Ok(report) if stream.confirm(*index, &report) => {
                        self.out.update_ns.push(lat);
                        self.out.update_when.push((p.intended, done));
                    }
                    _ => self.out.failed += 1,
                }
                Class::Update(*kind)
            }
            _ => unreachable!("a reply always matches the request it answers"),
        };
        if self.keep_spans {
            self.out.spans.push(Span { class, intended: p.intended, sent: p.sent, done });
        }
    }
}

/// Whether two top-rules replies name the same rules with the same counts.
pub fn same_rules(got: &[RuleInfo], want: &[RuleInfo]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            a.rule.pr().canonical_code() == b.rule.pr().canonical_code()
                && a.stats == b.stats
                && a.active == b.active
        })
}
