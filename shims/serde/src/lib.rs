//! Offline shim for `serde`.
//!
//! Provides the `Serialize` / `Deserialize` derive macros as no-ops, because
//! the build environment cannot reach a crates registry.  No source file
//! uses them any more; the crate manifests still list `serde` until those
//! entries are dropped (see `shims/README.md`).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};
