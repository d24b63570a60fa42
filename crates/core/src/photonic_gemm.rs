//! GEMM executed on the device-level photonic simulator.

use mirage_arch::MirageConfig;
use mirage_bfp::{pow2, BfpConfig, PackedBfpMatrix};
use mirage_photonics::RnsMmvmu;
use mirage_tensor::engines::{BfpEngine, Epilogue, GemmEngine, PreparedRhs};
use mirage_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;

/// The streamed operand, packed: every column of `B` quantized once and
/// widened once into a single contiguous `i64` buffer (the element type
/// the device interface takes), in the same padded `rows × padded_k`
/// geometry as [`PackedBfpMatrix`]. Group slices are carved out by
/// offset — no per-group heap objects on the streaming path.
#[derive(Debug)]
struct PackedStreamedCols {
    /// Streamed rows (= columns of `B`).
    rows: usize,
    k: usize,
    groups_per_row: usize,
    g: usize,
    /// `rows * groups_per_row * g` widened mantissae, tail zero-padded.
    mantissas: Vec<i64>,
    /// `rows * groups_per_row` shared scale exponents.
    scale_exps: Vec<i32>,
}

impl PackedStreamedCols {
    fn from_packed(packed: &PackedBfpMatrix) -> Self {
        PackedStreamedCols {
            rows: packed.rows(),
            k: packed.k(),
            groups_per_row: packed.groups_per_row(),
            g: packed.config().group_size(),
            mantissas: packed.mantissas().iter().map(|&m| i64::from(m)).collect(),
            scale_exps: packed.scale_exps().to_vec(),
        }
    }

    /// The **unpadded** mantissa lanes of group `gi` of streamed row
    /// `row` — the exact slice the legacy block path handed the device,
    /// so ragged tail groups drive the simulated MMVMUs identically.
    fn group(&self, row: usize, gi: usize) -> &[i64] {
        let base = (row * self.groups_per_row + gi) * self.g;
        let len = (self.k - gi * self.g).min(self.g);
        &self.mantissas[base..base + len]
    }

    fn scale_exp(&self, row: usize, gi: usize) -> i32 {
        self.scale_exps[row * self.groups_per_row + gi]
    }
}

/// Prepared B-side state: the packed streamed operand. Column shards are
/// windows of the [`PreparedRhs`] holding it (`PreparedRhs::cols`), so
/// the shard planner hands every shard a view of one shared buffer.
#[derive(Debug)]
struct PreparedPhotonicCols {
    bfp: BfpConfig,
    packed: PackedStreamedCols,
}

/// Quantizes, packs and widens the columns of `B` for streaming.
fn stream_cols(b: &Tensor, bfp: BfpConfig) -> Result<PackedStreamedCols> {
    Ok(PackedStreamedCols::from_packed(&BfpEngine::pack_cols(
        b, bfp,
    )?))
}

/// A [`GemmEngine`] that runs every tile through the photonic
/// RNS-MMVMU simulator — phase accumulation in cascaded MMUs, I/Q
/// phase detection, ADC quantization and reverse conversion — i.e. the
/// complete Fig. 2 dataflow at device level.
///
/// Noiseless by construction (design-point laser power); the noise
/// study lives in `mirage_photonics::RnsMmvmu::mvm_signed_noisy` and
/// the `fige_variation` bench. Bit-identical to
/// [`BfpEngine`] — an equivalence the test suite enforces.
///
/// Tile-invariant: each photonic output row depends only on its own
/// stationary weight row and the streamed activation column, so wrapping
/// this engine in `mirage_tensor::parallel::ParallelGemm` fans the
/// simulated MMVMU tiles across host threads bit-identically — the
/// multi-threaded analogue of the eight hardware MMVMUs computing in
/// parallel.
#[derive(Debug, Clone)]
pub struct PhotonicGemmEngine {
    bfp: BfpConfig,
    unit: RnsMmvmu,
    rows: usize,
}

impl PhotonicGemmEngine {
    /// Builds the engine for an accelerator configuration.
    pub fn new(cfg: &MirageConfig) -> Self {
        PhotonicGemmEngine {
            bfp: BfpConfig::new(cfg.bm, cfg.g).expect("validated by MirageConfig"),
            unit: RnsMmvmu::new(&cfg.moduli, cfg.rows, cfg.g, &cfg.photonics),
            rows: cfg.rows,
        }
    }

    /// The BFP operating point in use.
    pub fn bfp_config(&self) -> BfpConfig {
        self.bfp
    }

    /// The shared GEMM kernel: programs stationary tiles from the
    /// packed rows of `A` and streams an already-packed column range of
    /// `B` through the simulated MMVMUs, writing into a caller buffer.
    /// The per-tile weight staging buffer is reused across every tile
    /// and group — the only steady-state cost is the `i32 → i64`
    /// widening the device interface requires. Returns `m`.
    fn gemm_with_packed_into(
        &self,
        a: &Tensor,
        cols: &PackedStreamedCols,
        col_start: usize,
        n: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if cols.k != k {
            return Err(TensorError::DimMismatch {
                left: k,
                right: cols.k,
            });
        }
        debug_assert!(col_start + n <= cols.rows, "column range out of bounds");
        let a_packed = BfpEngine::pack_rows(a, self.bfp);
        let groups_per_row = a_packed.groups_per_row();
        let g = self.bfp.group_size();

        out.clear();
        out.resize(m * n, 0.0);
        // Reused weight-staging scratch: one `Vec<i64>` per MDPU row,
        // refilled in place (clear + extend within capacity) per tile.
        let mut weight_tile: Vec<Vec<i64>> = vec![Vec::with_capacity(g); self.rows];
        // Stationary tiles: `rows` rows of A x one k-group; stream the
        // columns of B through each tile (DF1 / weight-stationary).
        for row_tile in (0..m).step_by(self.rows) {
            let tile_rows = (row_tile + self.rows).min(m) - row_tile;
            for gi in 0..groups_per_row {
                let len = a_packed.group_len(gi);
                // Program the phase shifters with this tile's mantissae.
                for (r, lanes) in weight_tile.iter_mut().take(tile_rows).enumerate() {
                    lanes.clear();
                    lanes.extend(
                        a_packed.group_mantissas(row_tile + r, gi)[..len]
                            .iter()
                            .map(|&v| i64::from(v)),
                    );
                }
                for j in 0..n {
                    let col = col_start + j;
                    // One photonic modular MVM (Fig. 2 step 5-7).
                    let outputs = self
                        .unit
                        .mvm_signed_ideal(cols.group(col, gi), &weight_tile[..tile_rows])
                        .map_err(|e| TensorError::InvalidGeometry(e.to_string()))?;
                    // Exponent recombination + FP32 accumulation (8-9).
                    for (r, &integer) in outputs.iter().enumerate() {
                        let scale_exp =
                            a_packed.group_scale_exp(row_tile + r, gi) + cols.scale_exp(col, gi);
                        out[(row_tile + r) * n + j] += (integer as f64 * pow2(scale_exp)) as f32;
                    }
                }
            }
        }
        Ok(m)
    }
}

impl GemmEngine for PhotonicGemmEngine {
    fn name(&self) -> &'static str {
        "mirage-photonic"
    }

    /// `true`: each simulated output row depends only on its own
    /// stationary weight row and the streamed activation column (the
    /// `tiles_larger_than_array_height` test pins this against the BFP
    /// reference for arbitrary row-tile membership).
    fn tile_invariant(&self) -> bool {
        true
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (_m, _k, n) = dims(a, b)?;
        let cols = stream_cols(b, self.bfp)?;
        let mut out = Vec::new();
        let m = self.gemm_with_packed_into(a, &cols, 0, n, &mut out)?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Quantizes, packs and widens the streamed operand once; repeated
    /// calls only quantize the stationary side.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        let packed = stream_cols(b, self.bfp)?;
        PreparedRhs::new(
            self.name(),
            b,
            Arc::new(PreparedPhotonicCols {
                bfp: self.bfp,
                packed,
            }),
        )
    }

    /// Streams the pre-packed columns through the simulated device,
    /// writing straight into the caller's buffer, then applies the
    /// epilogue in one pass. Preparations from other engines or other
    /// BFP operating points are [`TensorError::ForeignPreparation`].
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (_m, _k, n) = b.dims(a)?;
        let state = b.state_for(self.name(), |state: &PreparedPhotonicCols| {
            state.bfp == self.bfp
        })?;
        let m = self.gemm_with_packed_into(a, &state.packed, b.col_start(), n, out)?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

fn dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    for t in [a, b] {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            });
        }
    }
    if a.shape()[1] != b.shape()[0] {
        return Err(TensorError::DimMismatch {
            left: a.shape()[1],
            right: b.shape()[0],
        });
    }
    Ok((a.shape()[0], a.shape()[1], b.shape()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_tensor::engines::BfpEngine;
    use rand::SeedableRng;

    #[test]
    fn matches_bfp_engine_bit_exactly() {
        let cfg = MirageConfig::default();
        let engine = PhotonicGemmEngine::new(&cfg);
        let fast = BfpEngine::new(engine.bfp_config());
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for (m, k, n) in [(1, 16, 1), (5, 33, 4), (40, 20, 3)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c_ph = engine.gemm(&a, &b).unwrap();
            let c_bf = fast.gemm(&a, &b).unwrap();
            assert_eq!(c_ph.data(), c_bf.data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_dimension_gemms_are_well_formed() {
        let engine = PhotonicGemmEngine::new(&MirageConfig::default());
        for (m, k, n) in [(0, 16, 2), (3, 0, 2), (3, 16, 0), (0, 0, 0)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            let c = engine.gemm(&a, &b).unwrap();
            assert_eq!(c.shape(), &[m, n], "{m}x{k}x{n}");
            assert!(c.data().iter().all(|&v| v == 0.0));
            let p = engine.prepare(&b).unwrap();
            assert_eq!(engine.gemm_prepared(&a, &p).unwrap().data(), c.data());
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let engine = PhotonicGemmEngine::new(&MirageConfig::default());
        assert!(engine
            .gemm(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 5]))
            .is_err());
        assert!(engine
            .gemm(&Tensor::zeros(&[2]), &Tensor::zeros(&[2, 2]))
            .is_err());
    }

    #[test]
    fn parallel_driver_is_bit_identical_on_the_device_path() {
        use mirage_tensor::parallel::TileConfig;
        let engine = PhotonicGemmEngine::new(&MirageConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let a = Tensor::randn(&[48, 32], 1.0, &mut rng);
        let b = Tensor::randn(&[32, 24], 1.0, &mut rng);
        let serial = engine.gemm(&a, &b).unwrap();
        let parallel = engine
            .clone()
            .parallel_with(TileConfig::auto().with_threads(4))
            .gemm(&a, &b)
            .unwrap();
        assert_eq!(parallel.data(), serial.data());
    }

    #[test]
    fn prepared_device_path_is_bit_identical() {
        let engine = PhotonicGemmEngine::new(&MirageConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(80);
        let b = Tensor::randn(&[33, 6], 1.0, &mut rng);
        let prepared = engine.prepare(&b).unwrap();
        for _ in 0..2 {
            let a = Tensor::randn(&[40, 33], 1.0, &mut rng);
            assert_eq!(
                engine.gemm_prepared(&a, &prepared).unwrap().data(),
                engine.gemm(&a, &b).unwrap().data()
            );
        }
        // A foreign preparation is a typed error, not a recomputation.
        let foreign = BfpEngine::new(engine.bfp_config()).prepare(&b).unwrap();
        let a = Tensor::randn(&[5, 33], 1.0, &mut rng);
        assert_eq!(
            engine.gemm_prepared(&a, &foreign).unwrap_err(),
            TensorError::ForeignPreparation {
                prepared_by: "mirage-bfp",
                engine: "mirage-photonic",
            }
        );
    }

    #[test]
    fn tiles_larger_than_array_height() {
        // m = 70 forces three stationary row tiles on the 32-row array.
        let cfg = MirageConfig::default();
        let engine = PhotonicGemmEngine::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let a = Tensor::randn(&[70, 16], 1.0, &mut rng);
        let b = Tensor::randn(&[16, 2], 1.0, &mut rng);
        let c = engine.gemm(&a, &b).unwrap();
        let want = BfpEngine::new(engine.bfp_config()).gemm(&a, &b).unwrap();
        assert_eq!(c.data(), want.data());
    }
}
