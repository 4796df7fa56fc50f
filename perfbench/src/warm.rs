//! Keeps every core busy with idle-priority spinning while a run lasts.
//!
//! On a virtual machine, a core that goes idle is parked by the host, and
//! waking it again takes up to a few hundred milliseconds: on a shared
//! two-core VM, two threads of parallel work right after an idle spell ran at the
//! speed of one core for their first ~0.5 s, and request latencies
//! picked up the wake-ups of whichever core served them. One
//! `SCHED_IDLE` spinner per core keeps the cores from parking. The kernel
//! runs a `SCHED_IDLE` thread only when nothing else on its core is
//! runnable and preempts it as soon as anything is, so the spinners take
//! no time from the program being measured.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Linux's `SCHED_IDLE` policy.
const SCHED_IDLE: i32 = 5;

/// The spinners; dropping this stops them and waits for each to end.
pub struct Warmers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Warmers {
    pub fn start(cores: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` outlives the call; pid 0 names the
                    // calling thread, so only this spinner's policy changes.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        // Without idle priority the spinner would compete
                        // with the program: better not to spin at all.
                        return;
                    }
                    // ordering: Relaxed — a lone stop flag; the join in
                    // `drop` is the synchronization point.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for Warmers {
    fn drop(&mut self) {
        // ordering: Relaxed — see the load in the spinner loop.
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
