//! Seeded serving module (path-matched to the real
//! `crates/nn/src/compile.rs` rule scope): every remaining rule is
//! violated at least once, so the workspace-level run goes red on all
//! five. Never compiled — scanned by `mirage-lint` only.

// mirage-lint: region(int_kernel)
/// An "integer" kernel that leaks floats: return type, casts, literal.
pub fn leaky_dot(a: &[i32]) -> f64 {
    let mut acc = 0.0;
    for &x in a {
        acc += x as f64;
    }
    acc * 1.5
}
// mirage-lint: end_region(int_kernel)

// mirage-lint: no_alloc
/// A hot path that allocates.
pub fn hot_path(xs: &[u32]) -> Vec<u32> {
    xs.to_vec()
}

/// A serving entry that can panic.
pub fn serve(x: Option<u32>) -> u32 {
    x.unwrap()
}
