//! Zero-dependency platform layer for the LockDoc workspace.
//!
//! The build environment is hermetic: no network, no crates.io registry
//! cache. Everything the workspace previously pulled from the registry is
//! provided here, in-tree:
//!
//! * [`rng`] — a deterministic SplitMix64/xoshiro256** PRNG with a
//!   `rand`-compatible surface (`seed_from_u64`, `gen_range`, `gen_bool`).
//! * [`json`] — a small JSON value model, parser, and writer plus the
//!   derive-free [`json::ToJson`]/[`json::FromJson`] traits that replace
//!   the `serde` derive sites.
//! * [`prop`] — a minimal property-testing harness (seeded case
//!   generation, shrinking for integers/floats/vecs/tuples, failure seeds
//!   printed for reproduction) replacing `proptest`.
//! * [`timing`] — a plain `std::time::Instant` micro-bench runner
//!   replacing the `criterion` benches.
//! * [`par`] — a deterministic scoped worker pool (`std::thread::scope`)
//!   with an ordered map-reduce surface replacing `rayon`-style fan-out.
//! * [`vfs`] — a filesystem shim with a real-backed mode and a
//!   deterministic fault-injecting in-memory mode that enumerates crash
//!   points, for crash-consistency testing of persistent state.
//! * [`hash`] — a fast hasher for trusted integer keys, the
//!   word-at-a-time [`hash::checksum`] of every cache frame and content
//!   key, and FNV-1a for short fingerprints and older persisted values.
//! * [`artifact`] — the one checksummed frame every cache file is
//!   written in, with the bounds-checked cursor its payloads use.
//!
//! Every module is deterministic: identical seeds produce identical
//! streams, values, and reports (timing measurements excepted); [`par`]
//! returns results in input order at any worker count.

pub mod artifact;
pub mod hash;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;
pub mod timing;
pub mod vfs;
