//! # vc-pointer — field-sensitive Andersen's pointer analysis
//!
//! The SVF substitute of the ValueCheck reproduction. Provides:
//!
//! - [`andersen::PointsTo`] — inclusion-based, field-sensitive points-to
//!   analysis with on-the-fly call-graph construction (function pointers
//!   resolve during solving, as the paper's indirect-call handling requires);
//! - [`demand::DemandPointer`] — the same solver run on demand, one
//!   pointer-closed component at a time, to resolve indirect-call callees.
//!   When a demand solve degrades (budget exhaustion or panic), that
//!   component's indirect callees resolve to the empty set and the caller
//!   counts `harden.degraded.pointer`.
//!
//! The "may this local be read through a pointer?" question of §4.1
//! ("Pointer and Alias") needs no solve: a local only enters a points-to
//! set through `&x`, so detection excludes every address-taken local.

pub mod andersen;
pub mod demand;
pub mod fasthash;
pub mod node;

pub use andersen::{
    Config,
    PointsTo, //
};
pub use demand::DemandPointer;
pub use node::MemObj;
