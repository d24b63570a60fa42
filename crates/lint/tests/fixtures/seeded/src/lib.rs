//! Seeded crate root: deliberately missing `#![deny(missing_docs)]`
//! and `#![deny(unused_must_use)]` — 2 active `crate-hygiene` findings —
//! plus an `unsafe` block outside the SIMD kernel allowlist — 1 active
//! `unsafe-confined` finding.

#![forbid(unsafe_code)]

/// Entry point of the seeded workspace.
pub fn seeded() -> u32 {
    41
}

/// Seeded rule-5 violation: `unsafe` outside the allowlisted modules.
pub fn seeded_unsafe() -> u32 {
    unsafe { core::ptr::read(&42u32) }
}
