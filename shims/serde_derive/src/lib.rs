//! Offline shim for `serde_derive`.
//!
//! The build environment has no access to a crates registry, so the workspace
//! vendors the tiny API subset it once used (see `shims/README.md`).  The
//! derives expand to nothing, and no source file uses them any more: the
//! crate manifests still list `serde`, so the shim stays until those entries
//! are dropped.

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.  The `serde` helper
/// attribute is registered (and ignored) so field annotations like
/// `#[serde(default, skip_serializing_if = "...")]` compile; the real derive
/// honours them after a swap back.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize` (helper attribute
/// registered and ignored, as above).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
