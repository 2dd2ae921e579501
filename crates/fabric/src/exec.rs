//! Worker threads with run-to-completion semantics.
//!
//! PEPC pins each slice's control and data threads to dedicated cores
//! (§3.2). [`Worker::spawn`] reproduces this: it starts an OS thread,
//! attempts a best-effort CPU affinity pin (silently skipped on hosts with
//! fewer cores — like this reproduction environment — or where the
//! syscall is unavailable), and drives a caller-supplied poll function
//! until asked to stop.
//!
//! The poll function returns [`Poll`]: `Busy` means work was done (poll
//! again immediately), `Idle` means nothing to do (the loop spins briefly —
//! run-to-completion threads never sleep), `Done` exits the loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifies a (virtual) core a worker is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub usize);

/// What a poll function reports back to its driving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Work was performed; poll again immediately.
    Busy,
    /// Nothing to do right now.
    Idle,
    /// The worker's job is finished; exit the loop.
    Done,
}

/// Handle to a running worker thread.
pub struct Worker<R = ()> {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<R>>,
    core: CoreId,
}

impl<R: Send + 'static> Worker<R> {
    /// Spawn a worker on `core` running `poll` to completion.
    ///
    /// `poll` receives a `&stop` flag it may consult for long-running
    /// drains; the loop also checks the flag between polls. On exit the
    /// worker returns `finish()`'s value, retrieved via [`Worker::join`].
    pub fn spawn<P, F>(core: CoreId, mut poll: P, finish: F) -> Self
    where
        P: FnMut() -> Poll + Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("pepc-core-{}", core.0))
            .spawn(move || {
                pin_to_core(core);
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    match poll() {
                        Poll::Busy => {}
                        Poll::Idle => std::hint::spin_loop(),
                        Poll::Done => break,
                    }
                }
                finish()
            })
            .expect("spawn worker thread");
        Worker { stop, handle: Some(handle), core }
    }

    /// The core this worker was assigned.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Spawn a worker that owns a piece of state, polled via
    /// `poll(&mut state)`; [`Worker::join`] returns the state. This is how
    /// a PEPC slice gets its plane back after stopping the thread.
    pub fn spawn_state<P>(core: CoreId, mut state: R, mut poll: P) -> Self
    where
        P: FnMut(&mut R) -> Poll + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("pepc-core-{}", core.0))
            .spawn(move || {
                pin_to_core(core);
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    match poll(&mut state) {
                        Poll::Busy => {}
                        Poll::Idle => std::hint::spin_loop(),
                        Poll::Done => break,
                    }
                }
                state
            })
            .expect("spawn worker thread");
        Worker { stop, handle: Some(handle), core }
    }

    /// Ask the worker to stop at its next poll boundary.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once the worker's loop has exited — its poll returned
    /// [`Poll::Done`], or it saw a stop request — so [`Worker::join`] will
    /// not block. Lets a caller wait for *natural* completion: `join`
    /// alone requests a stop first and may cut the job short.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Stop (if not already stopped) and wait for the worker, returning
    /// its final value.
    pub fn join(mut self) -> R {
        self.request_stop();
        self.handle.take().expect("worker already joined").join().expect("worker panicked")
    }
}

impl<R> Drop for Worker<R> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Best-effort CPU pinning; a no-op when the host has fewer cores than the
/// requested id or pinning is unsupported.
#[cfg(target_os = "linux")]
fn pin_to_core(core: CoreId) {
    // SAFETY: plain libc affinity call with a correctly-sized local set.
    unsafe {
        let mut set: libc_cpu_set = std::mem::zeroed();
        let ncpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if core.0 >= ncpus {
            return; // more workers than cores: let the scheduler timeslice
        }
        let word = core.0 / 64;
        let bit = core.0 % 64;
        if word < set.bits.len() {
            set.bits[word] |= 1 << bit;
            sched_setaffinity(0, std::mem::size_of::<libc_cpu_set>(), &set);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: CoreId) {}

#[cfg(target_os = "linux")]
#[repr(C)]
struct libc_cpu_set {
    bits: [u64; 16], // 1024 CPUs
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const libc_cpu_set) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn worker_runs_until_stopped() {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let c3 = Arc::clone(&count);
        let w = Worker::spawn(
            CoreId(0),
            move || {
                c2.fetch_add(1, Ordering::Relaxed);
                Poll::Busy
            },
            move || c3.load(Ordering::Relaxed),
        );
        while count.load(Ordering::Relaxed) < 1000 {
            std::hint::spin_loop();
        }
        let final_count = w.join();
        assert!(final_count >= 1000);
    }

    #[test]
    fn worker_exits_on_done() {
        let w = Worker::spawn(
            CoreId(0),
            {
                let mut n = 0;
                move || {
                    n += 1;
                    if n >= 10 {
                        Poll::Done
                    } else {
                        Poll::Busy
                    }
                }
            },
            || 42u32,
        );
        assert_eq!(w.join(), 42);
    }

    #[test]
    fn idle_worker_still_stops() {
        let w = Worker::spawn(CoreId(3), || Poll::Idle, || "done");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(w.join(), "done");
    }

    #[test]
    fn oversubscribed_core_id_is_tolerated() {
        // CoreId far beyond the host's core count: pin silently skipped.
        let w = Worker::spawn(CoreId(4096), || Poll::Done, || ());
        w.join();
    }

    #[test]
    fn spawn_state_returns_owned_state() {
        let w = Worker::spawn_state(CoreId(0), Vec::new(), |v: &mut Vec<u32>| {
            if v.len() < 5 {
                v.push(v.len() as u32);
                Poll::Busy
            } else {
                Poll::Done
            }
        });
        // `join` alone would request a stop, possibly before the worker
        // thread has polled five times; wait for it to finish by itself.
        while !w.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(w.join(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drop_stops_worker() {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        {
            let _w = Worker::spawn(
                CoreId(0),
                move || {
                    c2.fetch_add(1, Ordering::Relaxed);
                    Poll::Busy
                },
                || (),
            );
        } // dropped here; must not hang
        let after = count.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(count.load(Ordering::Relaxed), after, "worker kept running after drop");
    }
}
