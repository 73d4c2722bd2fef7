//! Offline stand-in for `serde`.
//!
//! The workspace uses serde only as inert `#[derive(serde::Serialize,
//! serde::Deserialize)]` annotations — all wire encoding is hand-written
//! (see `crates/core/src/codec.rs` and `crates/chord/src/codec.rs`), so no
//! code ever calls serde's traits. With no network access to crates.io,
//! this crate supplies derive macros of the same names that expand to
//! nothing, keeping the annotations compiling (and keeping the door open
//! to swap in real serde when the build environment has registry access).

use proc_macro::TokenStream;

/// Inert stand-in for `serde::Serialize`. Expands to nothing.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Inert stand-in for `serde::Deserialize`. Expands to nothing.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
