//! QoS enforcement: token-bucket rate limiting for AMBR/MBR.
//!
//! Cellular operators enforce per-user aggregate maximum bit rates and
//! per-class maximum bit rates (paper §3.1). The enforcement primitive is
//! a token bucket refilled continuously from the slice clock. Bucket
//! state for a user's AMBR lives in the user's
//! [`CounterState`](crate::state::CounterState) (data-thread-written, so
//! it migrates with the user); this module holds the arithmetic.

/// Continuous-refill token bucket over nanosecond timestamps.
///
/// Stateless functions over `(tokens, last_refill_ns)` pairs so callers
/// can keep the two words wherever the ownership discipline wants them.
/// The burst is clamped to `u32::MAX` bytes so token counts fit the
/// counter cell's `u32` (only rates above ≈ 343 Gbit/s are affected).
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Refill rate in tokens (bytes) per second.
    rate_bytes_per_sec: u64,
    /// Bucket depth: maximum burst, bytes (at most `u32::MAX`).
    burst_bytes: u64,
}

impl TokenBucket {
    /// A bucket enforcing `rate_kbps` with a default burst of 1/10 s of
    /// traffic (at least one MTU so single packets always fit).
    pub fn from_kbps(rate_kbps: u32) -> Self {
        let rate_bytes_per_sec = u64::from(rate_kbps) * 1000 / 8;
        Self::new(rate_bytes_per_sec, (rate_bytes_per_sec / 10).max(1500))
    }

    /// An explicitly-sized bucket (burst clamped to `1..=u32::MAX`).
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        TokenBucket { rate_bytes_per_sec, burst_bytes: burst_bytes.clamp(1, u64::from(u32::MAX)) }
    }

    /// The burst capacity, bytes — also the correct initial token count.
    pub fn burst(&self) -> u64 {
        self.burst_bytes
    }

    /// Try to debit `bytes` at time `now_ns`. `tokens` / `last_refill_ns`
    /// are the caller-owned bucket state. Returns true when the packet
    /// conforms (and debits it), false when it must be dropped.
    #[inline]
    pub fn admit(&self, tokens: &mut u64, last_refill_ns: &mut u64, now_ns: u64, bytes: u64) -> bool {
        if self.rate_bytes_per_sec == 0 {
            return true; // unlimited
        }
        if *last_refill_ns == 0 {
            // Fresh (or migrated-in zeroed) state: start with a full
            // bucket anchored at the current time.
            *last_refill_ns = now_ns.max(1);
            *tokens = self.burst_bytes;
        } else {
            // u128: at high rates a long gap's refill × 10^9 overflows u64.
            let elapsed = u128::from(now_ns.saturating_sub(*last_refill_ns));
            let rate = u128::from(self.rate_bytes_per_sec);
            let refill = elapsed * rate / 1_000_000_000;
            if refill > 0 {
                *tokens = (u128::from(*tokens) + refill).min(u128::from(self.burst_bytes)) as u64;
                // Only advance the stamp by the time actually converted to
                // tokens (≤ `elapsed`), so sub-token intervals accumulate.
                *last_refill_ns += (refill * 1_000_000_000 / rate) as u64;
            }
        }
        if *tokens >= bytes {
            *tokens -= bytes;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn fresh(bucket: &TokenBucket) -> (u64, u64) {
        (bucket.burst(), 1) // non-zero stamp: bucket starts full at t=1
    }

    #[test]
    fn zero_rate_means_unlimited() {
        let b = TokenBucket::from_kbps(0);
        let (mut tok, mut ts) = (0, 0);
        for i in 0..1000 {
            assert!(b.admit(&mut tok, &mut ts, i, 1_000_000));
        }
    }

    #[test]
    fn burst_admits_then_blocks() {
        let b = TokenBucket::new(1000, 500); // 1000 B/s, 500 B burst
        let (mut tok, mut ts) = fresh(&b);
        assert!(b.admit(&mut tok, &mut ts, 1, 300));
        assert!(b.admit(&mut tok, &mut ts, 1, 200));
        assert!(!b.admit(&mut tok, &mut ts, 1, 1), "bucket exhausted");
    }

    #[test]
    fn refill_restores_tokens_at_rate() {
        let b = TokenBucket::new(1000, 500);
        let (mut tok, mut ts) = fresh(&b);
        assert!(b.admit(&mut tok, &mut ts, 1, 500));
        // After 0.1 s at 1000 B/s: 100 bytes available.
        assert!(b.admit(&mut tok, &mut ts, 1 + SEC / 10, 100));
        assert!(!b.admit(&mut tok, &mut ts, 1 + SEC / 10, 10));
    }

    #[test]
    fn refill_caps_at_burst() {
        let b = TokenBucket::new(1000, 500);
        let (mut tok, mut ts) = fresh(&b);
        b.admit(&mut tok, &mut ts, 1, 500);
        // A long idle period refills to the cap only.
        assert!(b.admit(&mut tok, &mut ts, 100 * SEC, 500));
        assert!(!b.admit(&mut tok, &mut ts, 100 * SEC, 1));
    }

    #[test]
    fn sustained_rate_converges_to_configured_rate() {
        let b = TokenBucket::new(10_000, 1500); // 10 kB/s
        let (mut tok, mut ts) = fresh(&b);
        let mut admitted = 0u64;
        // Offer 100 B every ms for 10 s => offered 1 MB, expect ~100 kB+burst.
        for ms in 0..10_000u64 {
            if b.admit(&mut tok, &mut ts, 1 + ms * SEC / 1000, 100) {
                admitted += 100;
            }
        }
        let expected = 10_000u64 * 10 + b.burst();
        let tolerance = expected / 10;
        assert!(admitted.abs_diff(expected) <= tolerance, "admitted {admitted}, expected ~{expected}");
    }

    #[test]
    fn from_kbps_burst_floor_is_one_mtu() {
        let b = TokenBucket::from_kbps(8); // 1000 B/s => burst would be 100 B
        assert_eq!(b.burst(), 1500, "single full-size packets must be admissible");
        let (mut tok, mut ts) = fresh(&b);
        assert!(b.admit(&mut tok, &mut ts, 1, 1500));
    }

    #[test]
    fn max_rate_bucket_clamps_its_burst_and_never_overflows() {
        // u32::MAX kbps ≈ 537 GB/s: the 100 ms burst would be ≈ 54 GB.
        let b = TokenBucket::from_kbps(u32::MAX);
        assert_eq!(b.burst(), u64::from(u32::MAX));
        assert_eq!(TokenBucket::new(1, u64::MAX).burst(), u64::from(u32::MAX));
        let (mut tok, mut ts) = (0u64, 0u64);
        assert!(b.admit(&mut tok, &mut ts, 1, 1500));
        // Drain the bucket, then idle for an hour: the refill is far
        // beyond u64 once scaled by 10^9, and still lands on the cap.
        let full = tok;
        assert!(b.admit(&mut tok, &mut ts, 1, full));
        assert!(b.admit(&mut tok, &mut ts, 1 + 3600 * SEC, u64::from(u32::MAX)));
        assert_eq!(tok, 0);
        assert!(ts <= 1 + 3600 * SEC);
    }

    #[test]
    fn zeroed_state_initializes_full() {
        // Migrated-in or fresh contexts start with (0, 0) state words; the
        // first admit initializes the bucket full rather than starving.
        let b = TokenBucket::new(1000, 500);
        let (mut tok, mut ts) = (0u64, 0u64);
        assert!(b.admit(&mut tok, &mut ts, 123_456, 400));
    }

    #[test]
    fn sub_token_intervals_accumulate() {
        // 1 B/s: a packet of 1 byte needs a full second of accumulation;
        // polling every 100 ms must not reset progress.
        let b = TokenBucket::new(1, 2);
        let (mut tok, mut ts) = (0u64, 1u64);
        let mut admitted_at = None;
        for step in 1..=30u64 {
            let now = 1 + step * SEC / 10;
            if b.admit(&mut tok, &mut ts, now, 1) {
                admitted_at = Some(step);
                break;
            }
        }
        let step = admitted_at.expect("eventually admits");
        assert!((9..=11).contains(&step), "admitted at step {step}, expected ~10");
    }
}
