//! Keeps the cores awake while an open loop offers less load than the
//! machine can take.
//!
//! On a virtual machine a core with nothing to run halts, and the next
//! wake-up pays for the host to schedule it again and for its clock to
//! ramp back up: a batch-1 inference runs 1.2-1.5x slower right after a
//! 6 ms sleep than in a loop, and how much slower depends on what the
//! host's other guests are doing. At 0.3x saturation nearly every thread
//! hand-off of a request meets a halted core, so `wire_open_steady`'s
//! latency followed the neighbours: its ten-run `latency_p50_ms` spread
//! was 16 % without this and 2.7 % with it, in the same noisy quarter of
//! an hour, interleaved.
//!
//! One `SCHED_IDLE` thread per core spins for as long as the guard lives.
//! The kernel treats a core that runs only idle-class threads as idle when
//! it places a waking thread, and preempts the spinner at once, so the
//! program under test gets every cycle it asks for; the spinners only use
//! what would have been halt time. It is the user-space stand-in for
//! `idle=poll`. The saturated workloads do not use it: their cores do not
//! halt, and on `wire_closed_tiny` it made the spread worse (a core that
//! never goes idle never pulls a waiting thread over).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` through
    // the pointer, which is valid for the call; pid 0 is the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// Start one idle-class spinner per core. A thread that cannot enter
    /// the idle class (another OS, a sandbox that refuses the call) exits
    /// instead of spinning at normal priority.
    pub fn start(cores: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let idle = enter_idle_class();
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    idle
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }

    /// Stop and join the spinners; returns how many of them ran.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.spinners
            .into_iter()
            .map(|t| t.join().expect("spinner thread") as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        let awake = KeepAwake::start(2);
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Either every spinner entered the idle class or none could.
        assert!([0, 2].contains(&awake.stop()));
    }
}
