//! Quiet-floor statistics and the seeded generator.
//!
//! Interference on a shared guest only ever adds time, so every timing
//! metric is computed inside short fixed-work windows and reported as a low
//! percentile across windows (the quiet floor); the across-window median
//! and quartiles ride along as diagnostics.

/// The across-window quantile reported as the quiet floor. Calibrated on a
/// guest whose neighbours left, at times, fewer than one window in ten
/// undisturbed for seconds on end: the 10th percentile then jumped by 40 %
/// from one run to the next while the 2nd moved by 2 %.
pub const FLOOR_Q: f64 = 0.02;

/// Nearest-rank quantile of an ascending slice (`q` in [0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Across-window summary of one per-window statistic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floor {
    /// [`FLOOR_Q`] quantile across windows: the reported value.
    pub floor: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub windows: usize,
}

impl Floor {
    pub fn of(mut per_window: Vec<f64>) -> Floor {
        if per_window.is_empty() {
            return Floor::default();
        }
        sort(&mut per_window);
        Floor {
            floor: quantile(&per_window, FLOOR_Q),
            q1: quantile(&per_window, 0.25),
            median: quantile(&per_window, 0.50),
            q3: quantile(&per_window, 0.75),
            windows: per_window.len(),
        }
    }
}

/// One statistic over fixed-size windows of samples. A window closes when
/// it holds `size` samples; a trailing partial window is used only when no
/// window ever filled (runs too short for one).
pub struct Windows {
    size: usize,
    stat: fn(&mut [f64]) -> f64,
    cur: Vec<f64>,
    done: Vec<f64>,
}

pub fn mean(v: &mut [f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.50)
}

pub fn p99(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.99)
}

impl Windows {
    pub fn new(size: usize, stat: fn(&mut [f64]) -> f64) -> Self {
        Windows { size, stat, cur: Vec::with_capacity(size), done: Vec::new() }
    }

    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.cur.push(sample);
        if self.cur.len() == self.size {
            self.done.push((self.stat)(&mut self.cur));
            self.cur.clear();
        }
    }

    pub fn floor(&mut self) -> Floor {
        if self.done.is_empty() && !self.cur.is_empty() {
            let s = (self.stat)(&mut self.cur);
            return Floor::of(vec![s]);
        }
        Floor::of(self.done.clone())
    }
}

/// splitmix64: the benchmark's only source of variation is `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), 1.0);
        assert_eq!(quantile(&v, 0.50), 5.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
    }

    #[test]
    fn windows_close_on_size_and_fall_back_to_the_partial_one() {
        let mut w = Windows::new(4, mean);
        for x in [1.0, 2.0, 3.0] {
            w.push(x);
        }
        assert_eq!(w.floor().floor, 2.0);
        w.push(6.0);
        w.push(100.0);
        let f = w.floor();
        assert_eq!((f.windows, f.floor), (1, 3.0));
        let many = Floor::of((1..=100).map(f64::from).collect());
        assert_eq!((many.floor, many.median), (2.0, 50.0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..100).collect::<Vec<u32>>());
        assert_ne!(a, c);
    }
}
