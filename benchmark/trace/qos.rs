//! `pepc::qos` leaf: one token-bucket admission per packet against per-user
//! bucket state, in the stream's user order.

use crate::stream::Stream;
use pepc::qos::TokenBucket;
use std::hint::black_box;

pub fn admit_ns(s: &mut Stream, residents: usize, ambr_kbps: u32) -> f64 {
    let bucket = TokenBucket::from_kbps(ambr_kbps);
    let mut state = vec![(0u64, 0u64); residents];
    let mut now = 1u64;
    s.probe(|s| {
        for (m, &u) in s.batch.iter().zip(&s.users) {
            now += 300;
            let (tokens, last) = &mut state[u as usize];
            black_box(bucket.admit(tokens, last, now, m.len() as u64));
        }
    })
}
