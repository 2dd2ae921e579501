// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…), as in the repo.
#![allow(clippy::inconsistent_digit_grouping)]

//! The PEPC benchmark: four workloads through `PepcNode`, quiet-floor
//! end-to-end metrics, and (in the traced binary) a per-layer waterfall.
//! See `README.md` beside this package.

pub mod cli;
pub mod driver;
pub mod enb;
pub mod report;
pub mod stats;
pub mod sut;
pub mod workloads;
