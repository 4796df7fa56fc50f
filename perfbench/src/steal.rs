//! Steal time: how long the hypervisor ran something else on this
//! machine's cores, read from `/proc/stat`.
//!
//! On a shared host, steal comes in bursts: on a two-core VM, some seconds
//! lost a third of both cores and most lost none. A burst inflates every
//! latency and timing it overlaps by an amount that depends on the host's
//! other tenants, not on the program. The benchmark therefore records
//! steal alongside every measurement and leaves out what a burst
//! overlapped. With the cores kept busy (see `warm`), steal accrues
//! whether or not the program is running, so what is left out does not
//! depend on the program either.

use std::time::{Duration, Instant};

/// One `/proc/stat` tick (USER_HZ = 100).
const TICK: Duration = Duration::from_millis(10);
/// Shortest interval between two samples of a [`StealLog`].
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// A span of time is disturbed when at least this share of the cores'
/// time in it was stolen.
const DISTURBED_SHARE: f64 = 0.1;
/// How long after a burst the backlog it left still delays requests.
const AFTERMATH: Duration = Duration::from_millis(200);

/// Steal of all cores since boot, in ticks; `None` where `/proc/stat`
/// does not report it (nothing is then ever counted as disturbed).
pub fn ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Whether `stolen` ticks over `wall` on `cores` cores is a disturbance.
pub fn disturbed(stolen: u64, wall: Duration, cores: usize) -> bool {
    (TICK * stolen as u32).as_secs_f64() >= DISTURBED_SHARE * wall.as_secs_f64() * cores as f64
}

/// Steal samples over one phase, as `(offset from the phase start,
/// cumulative ticks)`.
pub struct StealLog {
    epoch: Instant,
    cores: usize,
    samples: Vec<(Duration, u64)>,
}

impl StealLog {
    pub fn start(epoch: Instant, cores: usize) -> Self {
        let mut log = Self { epoch, cores, samples: Vec::new() };
        log.sample_now();
        log
    }

    fn sample_now(&mut self) {
        if let Some(t) = ticks() {
            self.samples.push((self.epoch.elapsed(), t));
        }
    }

    /// Samples unless the last sample is recent.
    pub fn sample(&mut self) {
        if self.samples.last().is_none_or(|&(at, _)| self.epoch.elapsed() >= at + SAMPLE_EVERY) {
            self.sample_now();
        }
    }

    /// Closes the log: the disturbed intervals, and the ticks stolen
    /// over the whole log.
    pub fn finish(mut self) -> Bursts {
        self.sample_now();
        let spans = self
            .samples
            .windows(2)
            .filter(|w| disturbed(w[1].1 - w[0].1, w[1].0 - w[0].0, self.cores))
            .map(|w| (w[0].0, w[1].0 + AFTERMATH))
            .collect();
        let stolen = match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.1 - a.1,
            _ => 0,
        };
        Bursts { spans, stolen }
    }
}

/// The disturbed intervals of a phase, each extended by its aftermath.
#[derive(Default)]
pub struct Bursts {
    spans: Vec<(Duration, Duration)>,
    /// Ticks stolen over the whole phase.
    pub stolen: u64,
}

impl Bursts {
    /// Appends the bursts of a later phase that started `offset` after
    /// this one.
    pub fn absorb(&mut self, later: Bursts, offset: Duration) {
        self.spans.extend(later.spans.into_iter().map(|(a, b)| (a + offset, b + offset)));
        self.stolen += later.stolen;
    }

    /// Whether `[from, to]` overlaps a disturbed interval.
    pub fn overlap(&self, from: Duration, to: Duration) -> bool {
        self.spans.iter().any(|&(a, b)| a <= to && from <= b)
    }

    /// The latencies of the requests no burst overlapped, given each
    /// request's `(intended send, reply)` offsets. When bursts overlapped
    /// more than half of the requests, all are kept: a host that busy
    /// leaves no clean half to measure.
    pub fn undisturbed(&self, ns: &[u64], when: &[(Duration, Duration)]) -> Vec<u64> {
        let kept: Vec<u64> = ns
            .iter()
            .zip(when)
            .filter(|(_, &(a, b))| !self.overlap(a, b))
            .map(|(&n, _)| n)
            .collect();
        if 2 * kept.len() >= ns.len() {
            kept
        } else {
            ns.to_vec()
        }
    }
}
