//! # pepc-system — the assembled PEPC reproduction
//!
//! Facade crate tying the workspace together for the examples and the
//! cross-crate integration tests in `tests/`. The interesting code lives
//! in the member crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`pepc`] | the PEPC system itself (slices, node, migration, …) |
//! | [`pepc_net`] | packet buffers, Ethernet/IPv4/UDP/TCP/GTP codecs, BPF VM |
//! | [`pepc_fabric`] | rings, fault-injecting wires, workers, load balancer |
//! | [`pepc_sigproto`] | SCTP-lite, S1AP, NAS, Diameter-lite, Gx-lite |
//! | [`pepc_backend`] | HSS and PCRF |
//! | [`pepc_baseline`] | the classic MME/S-GW/P-GW EPC it is compared to |
//! | [`pepc_workload`] | traffic/signaling generators and the harness |

pub use pepc;
pub use pepc_backend;
pub use pepc_baseline;
pub use pepc_fabric;
pub use pepc_net;
pub use pepc_sigproto;
pub use pepc_workload;
