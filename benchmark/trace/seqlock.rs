//! `pepc::seqlock` leaf: the lock-free read of a user's control view
//! (`UeContext::ctrl_view`) on the live node's contexts, in the stream's
//! user order. Handles are resolved outside the timer.

use crate::stream::Stream;
use crate::tables::Handles;
use std::hint::black_box;

pub fn read_ns(s: &mut Stream, handles: &Handles) -> f64 {
    s.probe_with(
        |s| s.users.iter().map(|&u| handles.resolve(u).expect("resident")).collect::<Vec<_>>(),
        |_, refs| {
            for r in &refs {
                black_box(r.ctrl_view());
            }
        },
    )
}
