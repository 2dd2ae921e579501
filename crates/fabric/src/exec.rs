//! Worker threads with run-to-completion semantics.
//!
//! PEPC pins each slice's control and data threads to dedicated cores
//! (§3.2). [`Worker::spawn_state`] reproduces this: it starts an OS
//! thread, attempts a best-effort CPU affinity pin (silently skipped on
//! hosts with fewer cores — like this reproduction environment — or where
//! the syscall is unavailable), and drives a caller-supplied poll function
//! over the state it owns until asked to stop.
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
pub struct Worker<R> {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<R>>,
}

impl<R: Send + 'static> Worker<R> {
    /// Spawn a worker on `core` that owns a piece of state, polled via
    /// `poll(&mut state)` to completion; [`Worker::join`] returns the
    /// state. This is how a PEPC slice gets its plane back after stopping
    /// the thread. Fails only when the OS cannot start a thread.
    pub fn spawn_state<P>(core: CoreId, mut state: R, mut poll: P) -> std::io::Result<Self>
    where
        P: FnMut(&mut R) -> Poll + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name(format!("pepc-core-{}", core.0)).spawn(move || {
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
        })?;
        Ok(Worker { stop, handle: Some(handle) })
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
    /// its final value, or the payload it panicked with.
    pub fn join(mut self) -> std::thread::Result<R> {
        self.request_stop();
        // Only `join` and `drop`, which both consume the worker, take it.
        self.handle.take().map_or_else(|| Err(Box::new("worker already joined") as _), JoinHandle::join)
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
        let w = Worker::spawn_state(CoreId(0), Arc::clone(&count), |c: &mut Arc<AtomicU64>| {
            c.fetch_add(1, Ordering::Relaxed);
            Poll::Busy
        })
        .unwrap();
        while count.load(Ordering::Relaxed) < 1000 {
            std::hint::spin_loop();
        }
        assert!(w.join().unwrap().load(Ordering::Relaxed) >= 1000);
    }

    #[test]
    fn worker_exits_on_done() {
        let w = Worker::spawn_state(CoreId(0), 0u32, |n: &mut u32| {
            *n += 1;
            if *n >= 10 {
                Poll::Done
            } else {
                Poll::Busy
            }
        })
        .unwrap();
        while !w.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(w.join().unwrap(), 10);
    }

    #[test]
    fn idle_worker_still_stops() {
        let w = Worker::spawn_state(CoreId(3), "done", |_: &mut &str| Poll::Idle).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(w.join().unwrap(), "done");
    }

    #[test]
    fn oversubscribed_core_id_is_tolerated() {
        // CoreId far beyond the host's core count: pin silently skipped.
        let w = Worker::spawn_state(CoreId(4096), (), |_: &mut ()| Poll::Done).unwrap();
        w.join().unwrap();
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
        })
        .unwrap();
        // `join` alone would request a stop, possibly before the worker
        // thread has polled five times; wait for it to finish by itself.
        while !w.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(w.join().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drop_stops_worker() {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        {
            let _w = Worker::spawn_state(CoreId(0), (), move |_: &mut ()| {
                c2.fetch_add(1, Ordering::Relaxed);
                Poll::Busy
            })
            .unwrap();
        } // dropped here; must not hang
        let after = count.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(count.load(Ordering::Relaxed), after, "worker kept running after drop");
    }
}
