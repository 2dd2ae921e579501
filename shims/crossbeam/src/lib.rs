//! Offline shim for the `crossbeam` crate.
//!
//! Provides the subset the repo uses: `utils::CachePadded`, the
//! alignment wrapper that keeps hot atomics on their own cache line.

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to (at least) one cache line so two
    /// `CachePadded` values never share a line (no false sharing).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), repr(align(64)))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;

        #[inline]
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cache_padded_alignment() {
        assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 64);
        let p = CachePadded::new(5u32);
        assert_eq!(*p, 5);
    }
}
