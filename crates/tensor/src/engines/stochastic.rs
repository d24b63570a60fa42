//! FMAC-style BFP GEMM with stochastic rounding.

use super::{gemm_dims, GemmEngine};
use crate::{Result, Tensor};
use mirage_bfp::{BfpBlock, BfpConfig};

/// BFP GEMM with *stochastic rounding* of mantissae — a model of the
/// FMAC format (Zhang et al., "FAST: DNN Training Under Variable
/// Precision Block Floating Point with Stochastic Rounding", HPCA 2022),
/// the strongest baseline in the paper's Table II.
///
/// Rounding randomness is derived from a counter-based hash of the
/// element position and the engine seed, so results are deterministic
/// for a given seed and the engine stays `Send + Sync` without locks.
#[derive(Debug, Clone, Copy)]
pub struct StochasticBfpEngine {
    config: BfpConfig,
    seed: u64,
}

/// SplitMix64: cheap counter-based hash for reproducible per-element
/// random rounding offsets.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl StochasticBfpEngine {
    /// Creates an engine with the given BFP operating point and seed.
    pub fn new(config: BfpConfig, seed: u64) -> Self {
        StochasticBfpEngine { config, seed }
    }

    /// The configured BFP operating point.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// Quantizes one row chunk with stochastic rounding.
    fn quantize_chunk(&self, values: &[f32], tag: u64) -> BfpBlock {
        // First get the shared exponent from a deterministic pass.
        let base = BfpBlock::quantize(values, self.config);
        let scale_exp = base.scale_exp();
        if values.iter().all(|&v| v == 0.0) {
            return base;
        }
        let scale = mirage_bfp::pow2(-scale_exp);
        let limit = self.config.max_mantissa() as f64;
        let mantissas = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let scaled = f64::from(v) * scale;
                let floor = scaled.floor();
                let frac = scaled - floor;
                let h = splitmix64(self.seed ^ tag.wrapping_mul(0x100000001b3) ^ i as u64);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let rounded = if u < frac { floor + 1.0 } else { floor };
                rounded.clamp(-limit, limit) as i32
            })
            .collect();
        BfpBlock::from_parts(scale_exp, mantissas, self.config)
    }
}

impl GemmEngine for StochasticBfpEngine {
    fn name(&self) -> &'static str {
        "fmac"
    }

    /// `false`: rounding randomness is keyed on each element's **absolute
    /// row/chunk position**, so the same value quantizes differently
    /// inside a sliced operand. [`crate::parallel::ParallelGemm`]
    /// therefore runs this engine on its serial path.
    fn tile_invariant(&self) -> bool {
        false
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k, n) = gemm_dims(a, b)?;
        let g = self.config.group_size();
        let bt = b.transpose2d()?;

        let quantize_matrix = |t: &Tensor, salt: u64| -> Vec<Vec<BfpBlock>> {
            let cols = t.shape()[1];
            (0..t.shape()[0])
                .map(|r| {
                    let row = &t.data()[r * cols..(r + 1) * cols];
                    row.chunks(g)
                        .enumerate()
                        .map(|(ci, chunk)| {
                            self.quantize_chunk(chunk, salt ^ ((r as u64) << 24) ^ ci as u64)
                        })
                        .collect()
                })
                .collect()
        };
        let a_rows = quantize_matrix(a, 0xa);
        let b_cols = quantize_matrix(&bt, 0xb);

        let mut out = vec![0.0f32; m * n];
        let _ = k;
        for (i, arow) in a_rows.iter().enumerate() {
            for (j, bcol) in b_cols.iter().enumerate() {
                let mut acc = 0.0f32;
                for (ga, gb) in arow.iter().zip(bcol) {
                    acc += ga.dot(gb)?.to_f32();
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BfpEngine, ExactEngine};
    use rand::SeedableRng;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let a = Tensor::randn(&[4, 32], 1.0, &mut rng);
        let b = Tensor::randn(&[32, 4], 1.0, &mut rng);
        let e = StochasticBfpEngine::new(BfpConfig::mirage_default(), 7);
        assert_eq!(e.gemm(&a, &b).unwrap(), e.gemm(&a, &b).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let a = Tensor::randn(&[4, 32], 1.0, &mut rng);
        let b = Tensor::randn(&[32, 4], 1.0, &mut rng);
        let e1 = StochasticBfpEngine::new(BfpConfig::mirage_default(), 1);
        let e2 = StochasticBfpEngine::new(BfpConfig::mirage_default(), 2);
        assert_ne!(e1.gemm(&a, &b).unwrap(), e2.gemm(&a, &b).unwrap());
    }

    #[test]
    fn unbiased_rounding_beats_truncation_in_expectation() {
        // Average many stochastic-rounded GEMMs: the mean should approach
        // the exact result more closely than deterministic truncation.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[4, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 4], 1.0, &mut rng);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let cfg = BfpConfig::new(4, 16).unwrap();

        let mut mean = Tensor::zeros(&[4, 4]);
        let trials = 64;
        for s in 0..trials {
            let e = StochasticBfpEngine::new(cfg, s);
            mean = mean.add(&e.gemm(&a, &b).unwrap()).unwrap();
        }
        mean = mean.scale(1.0 / trials as f32);
        let stoch_err = mean.sub(&exact).unwrap().max_abs();
        let trunc_err = BfpEngine::new(cfg)
            .gemm(&a, &b)
            .unwrap()
            .sub(&exact)
            .unwrap()
            .max_abs();
        assert!(stoch_err < trunc_err, "{stoch_err} vs {trunc_err}");
    }

    #[test]
    fn zero_input_stays_zero() {
        let e = StochasticBfpEngine::new(BfpConfig::mirage_default(), 5);
        let c = e
            .gemm(&Tensor::zeros(&[3, 16]), &Tensor::zeros(&[16, 3]))
            .unwrap();
        assert_eq!(c.max_abs(), 0.0);
    }
}
