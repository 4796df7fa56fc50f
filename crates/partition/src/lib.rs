//! # gpar-partition
//!
//! Graph fragmentation for parallel GPAR mining and matching (§4.2, §5.1).
//!
//! Both DMine and Matchc partition `G` into `n` fragments such that
//!
//! 1. for every *candidate center* `v_x` (a node that can match the
//!    designated `x` of the predicate), its d-neighborhood `G_d(v_x)` —
//!    the subgraph induced by `N_d(v_x)` — lies entirely inside the
//!    fragment that owns `v_x`; and
//! 2. fragments have roughly even size.
//!
//! Property (1) is what makes per-candidate matching embarrassingly
//! parallel: by the *data locality of subgraph isomorphism*,
//! `v_x ∈ P_R(x, G)` iff `v_x ∈ P_R(x, G_d(v_x))` for any rule of radius
//! ≤ d at `x`. Property (2) bounds the per-round straggler effect; the
//! paper reports ≤ 14.4% skew with its (Ja-be-Ja-based) partitioner, and
//! [`PartitionStats`] reports the same measurement for ours.
//!
//! We implement the candidate-center-driven construction directly: each
//! fragment is the subgraph induced by the union of the d-balls of its
//! assigned centers (replicating boundary nodes, as the paper's
//! construction implies), with two assignment strategies — balanced
//! ([`PartitionStrategy::Balanced`], LPT bin-packing on ball sizes) and
//! [`PartitionStrategy::Hash`] (the skew baseline ablated in the benches).

pub mod fragment;
pub mod sites;
pub mod stats;

pub use fragment::{partition_by_centers, Fragment, PartitionStrategy};
pub use sites::{build_sites, chunk_by_load, partition_sites, CenterSite};
pub use stats::{chunk_evenly, PartitionStats};
