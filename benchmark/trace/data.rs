//! Levels C and D — the planes under the slice. This file holds the twin's
//! port and its data side: `DataPlane::process_burst_into` with the slice's
//! sync schedule replayed outside the timer, so B − C is what the slice
//! spends on sync and the clock. Level D is the same with the data plane's
//! own stage timers on, read once per window into the same quiet-floor
//! estimator as everything else.

use crate::slice::{forwarded, partition};
use crate::spans::Spans;
use pepc::data::PacketVerdict;
use pepc::node::PepcNode;
use pepc_benchmark::driver::PKT_WINDOW;
use pepc_benchmark::stats::Floor;
use pepc_benchmark::sut::{DataPort, SLICES};
use pepc_net::Mbuf;
use std::time::Instant;

/// The data plane's stage histograms, sampled per window of bursts.
#[derive(Default)]
pub struct Stages {
    /// (Σ ns, samples) per stage at the last window boundary.
    last: [(f64, f64); 3],
    /// Bursts since then.
    bursts: usize,
    /// Per-window mean ns/packet, per stage.
    per_window: [Vec<f64>; 3],
}

impl Stages {
    /// Read the histograms; `keep` says whether the window that just ended
    /// counts (it does not when it re-warmed caches after another twin ran).
    pub fn sample(&mut self, node: &mut PepcNode, keep: bool) {
        self.bursts = 0;
        for i in 0..3 {
            let (mut sum, mut n) = (0.0, 0.0);
            for k in 0..SLICES {
                let h = &node.slice(k).data.stage_latencies()[i];
                sum += h.mean_ns() * h.count() as f64;
                n += h.count() as f64;
            }
            let (sum0, n0) = std::mem::replace(&mut self.last[i], (sum, n));
            if keep && n > n0 {
                self.per_window[i].push((sum - sum0) / (n - n0));
            }
        }
    }

    /// Quiet-floor ns/packet of parse, lookup, enforce.
    pub fn floors(&self) -> [f64; 3] {
        [0, 1, 2].map(|i| Floor::of(self.per_window[i].clone()).floor)
    }
}

/// What level C or D accumulates across the chunks it is driven in.
pub struct PlaneTrace {
    pub spans: Spans,
    bursts: u64,
    pub(crate) msgs: u64,
    since_sync: [u32; SLICES],
    verdicts: Vec<PacketVerdict>,
    /// Heap allocations made inside `ControlPlane::handle_s1ap`.
    pub(crate) ctrl_allocs: u64,
    /// Level D only: the stage histograms, sampled every window.
    pub stages: Option<Stages>,
}

impl PlaneTrace {
    pub fn new(stages: bool) -> Self {
        PlaneTrace {
            spans: Spans::new(),
            bursts: 0,
            msgs: 0,
            since_sync: [0; SLICES],
            verdicts: Vec::with_capacity(32),
            ctrl_allocs: 0,
            stages: stages.then(Stages::default),
        }
    }

    pub fn allocs_per_msg(&self) -> f64 {
        self.ctrl_allocs as f64 / self.msgs.max(1) as f64
    }
}

/// The twin's planes, for the length of one chunk.
pub struct PlanePort<'a> {
    pub node: &'a mut PepcNode,
    pub t: &'a mut PlaneTrace,
}

impl DataPort for PlanePort<'_> {
    fn burst(&mut self, burst: Vec<Mbuf>, out: &mut Vec<Option<Mbuf>>) -> u64 {
        let sync_every = self.node.config().slice.batching.sync_every_packets.max(1);
        let mut ns = 0;
        for (k, mut run) in partition(self.node.config(), burst) {
            // `Slice::process_burst_into`, minus the plane call: the
            // batched membership sync and the clock read.
            let since = &mut self.t.since_sync[k];
            *since = since.saturating_add(run.len() as u32);
            let slice = self.node.slice(k);
            if *since >= sync_every {
                slice.sync_now();
                *since = 0;
            }
            let now = slice.now_ns();
            let t0 = Instant::now();
            slice.data.process_burst_into(&mut run, now, &mut self.t.verdicts);
            ns += self.t.spans.close("data.process_burst_into", "slice.process_burst_into", self.t.bursts, t0);
            forwarded(&mut self.t.verdicts, out);
        }
        self.t.bursts += 1;
        if let Some(s) = self.t.stages.as_mut() {
            s.bursts += 1;
            if s.bursts == PKT_WINDOW {
                s.sample(self.node, true);
            }
        }
        ns
    }
}

/// Primary-table hit ratio and index footprint over every slice's data plane.
pub fn table_stats(node: &mut PepcNode) -> (f64, u64) {
    let (mut hits, mut gets, mut bytes) = (0u64, 0u64, 0u64);
    for k in 0..SLICES {
        let data = &node.slice(k).data;
        let s = data.table_stats();
        hits += s.primary_hits;
        gets += s.primary_hits + s.promotions + s.misses;
        bytes += data.table_bytes();
    }
    (hits as f64 / gets.max(1) as f64, bytes)
}
