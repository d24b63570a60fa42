//! Host CPU capability report for benchmark summaries.
//!
//! Every `BENCH_*.json` embeds a `cpu` object so the numbers are
//! self-describing: a 1-core container run, a 16-core workstation run,
//! and an AVX2-less run of the same bench are distinguishable from the
//! artifact alone instead of from tribal knowledge about which machine
//! recorded it.

use mirage_bfp::simd::{self, SimdPolicy};

/// A snapshot of the host's compute capabilities plus the SIMD
/// configuration the kernels will resolve under it.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Target architecture the bench binary was compiled for.
    pub arch: &'static str,
    /// [`std::thread::available_parallelism`] (`1` when unknown).
    pub cores: usize,
    /// Whether the CPU reports SSE2 at runtime.
    pub sse2: bool,
    /// Whether the CPU reports AVX2 at runtime.
    pub avx2: bool,
    /// The raw `MIRAGE_SIMD` environment setting, if any.
    pub simd_env: Option<String>,
    /// The SIMD tier the packed kernels resolve to under the default
    /// [`SimdPolicy::Auto`] (detection ∧ environment), as its label.
    pub simd_tier: &'static str,
}

impl CpuReport {
    /// Detects the current host's capabilities.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (sse2, avx2) = (
            std::arch::is_x86_feature_detected!("sse2"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (sse2, avx2) = (false, false);
        CpuReport {
            arch: std::env::consts::ARCH,
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            sse2,
            avx2,
            simd_env: std::env::var(simd::SIMD_ENV).ok(),
            simd_tier: simd::resolve_tier(SimdPolicy::Auto).label(),
        }
    }

    /// Serializes the report as one flat JSON object (no trailing
    /// newline), for embedding under a `"cpu"` key.
    pub fn to_json_object(&self) -> String {
        let env = match &self.simd_env {
            Some(v) => format!("\"{}\"", crate::json::escape(v)),
            None => "null".to_string(),
        };
        format!(
            "{{\"arch\": \"{}\", \"cores\": {}, \"sse2\": {}, \"avx2\": {}, \
             \"simd_env\": {}, \"simd_tier\": \"{}\"}}",
            crate::json::escape(self.arch),
            self.cores,
            self.sse2,
            self.avx2,
            env,
            crate::json::escape(self.simd_tier),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_coherent() {
        let report = CpuReport::detect();
        assert!(report.cores >= 1);
        // AVX2 implies SSE2 on every real x86_64 part.
        if report.avx2 {
            assert!(report.sse2);
        }
        assert!(["scalar", "avx2"].contains(&report.simd_tier));
        #[cfg(target_arch = "x86_64")]
        assert!(report.sse2, "SSE2 is baseline on x86_64");
    }

    #[test]
    fn json_object_is_flat_and_balanced() {
        let report = CpuReport {
            arch: "x86_64",
            cores: 4,
            sse2: true,
            avx2: false,
            simd_env: Some("off".into()),
            simd_tier: "scalar",
        };
        let json = report.to_json_object();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cores\": 4"));
        assert!(json.contains("\"avx2\": false"));
        assert!(json.contains("\"simd_env\": \"off\""));
        assert!(json.contains("\"simd_tier\": \"scalar\""));
        let none = CpuReport {
            simd_env: None,
            ..report
        };
        assert!(none.to_json_object().contains("\"simd_env\": null"));
    }
}
