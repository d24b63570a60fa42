//! Convolution and pooling lowered onto GEMM.
//!
//! The paper's accuracy model (§V-A) "swapped each GEMM operation, i.e.,
//! convolution and linear layers, with customized BFP versions". We do
//! the same: conv2d is lowered via im2col so the configured
//! [`GemmEngine`] sees every convolution as a GEMM, in both the forward
//! and backward pass.
//!
//! Because the engine is pluggable, the lowering picks up the
//! row-banded multi-threaded execution layer for free: pass a
//! [`crate::parallel::ParallelGemm`]-wrapped engine and the im2col GEMM
//! — whose `b·oh·ow` patch rows dwarf the other dimensions — fans out
//! across worker threads bit-identically for tile-invariant engines.

use crate::engines::GemmEngine;
use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output spatial size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not
    /// fit inside the padded input.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel == 0 || self.stride == 0 || self.kernel > ph || self.kernel > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} stride {} does not fit {}x{} input with padding {}",
                self.kernel, self.kernel, self.stride, h, w, self.padding
            )));
        }
        Ok((
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        ))
    }

    /// The GEMM reduction length: `in_channels * kernel^2`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unfolds `[b, c, h, w]` into patch rows `[(b*oh*ow), (c*k*k)]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input or
/// geometry errors from [`Conv2dGeometry::output_size`].
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let [b, c, h, w]: [usize; 4] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    if c != geo.in_channels {
        return Err(TensorError::DimMismatch {
            left: c,
            right: geo.in_channels,
        });
    }
    let (oh, ow) = geo.output_size(h, w)?;
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let mut out = vec![0.0f32; b * oh * ow * c * k * k];
    let row_len = c * k * k;
    let data = input.data();
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((bi * oh + oy) * ow + ox) * row_len;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * geo.stride + ky) as isize - pad;
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx) as isize - pad;
                            let dst = row + (ci * k + ky) * k + kx;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                out[dst] =
                                    data[((bi * c + ci) * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[b * oh * ow, row_len])
}

/// Folds patch rows back into `[b, c, h, w]`, summing overlaps —
/// the adjoint of [`im2col`], used for input gradients.
///
/// # Errors
///
/// Returns shape/geometry errors analogous to [`im2col`].
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry, b: usize, h: usize, w: usize) -> Result<Tensor> {
    let (oh, ow) = geo.output_size(h, w)?;
    let c = geo.in_channels;
    let k = geo.kernel;
    let row_len = c * k * k;
    if cols.shape() != [b * oh * ow, row_len] {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().to_vec(),
            right: vec![b * oh * ow, row_len],
        });
    }
    let pad = geo.padding as isize;
    let mut out = vec![0.0f32; b * c * h * w];
    let data = cols.data();
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((bi * oh + oy) * ow + ox) * row_len;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * geo.stride + ky) as isize - pad;
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx) as isize - pad;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                out[((bi * c + ci) * h + iy as usize) * w + ix as usize] +=
                                    data[row + (ci * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

/// Forward convolution: `[b, c, h, w] * [oc, c, k, k] -> [b, oc, oh, ow]`
/// with the GEMM routed through `engine`.
///
/// # Errors
///
/// Propagates shape and engine errors.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    geo: &Conv2dGeometry,
    engine: &dyn GemmEngine,
) -> Result<Tensor> {
    let b = input.shape()[0];
    let (oh, ow) = geo.output_size(input.shape()[2], input.shape()[3])?;
    let cols = im2col(input, geo)?; // (b*oh*ow, ckk)
    let wmat = weight.reshape(&[geo.out_channels, geo.patch_len()])?;
    let out = engine.gemm(&cols, &wmat.transpose2d()?)?; // (b*oh*ow, oc)
    patches_to_nchw(out.data(), b, geo.out_channels, oh, ow)
}

/// [`conv2d_forward`] against a weight prepared once via
/// [`GemmEngine::prepare`] on the **transposed** `[ckk, oc]` weight
/// matrix (`weight.reshape([oc, ckk]).transpose2d()`): only the im2col
/// patches touch the engine's quantizer, the B-side state is reused from
/// the preparation. Bit-identical to [`conv2d_forward`] on the weight
/// the value was prepared from — this is the convolution step of a
/// compiled inference plan.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the prepared matrix does
/// not have shape `[patch_len, out_channels]`, plus the usual shape and
/// engine errors.
pub fn conv2d_forward_prepared(
    input: &Tensor,
    prepared: &crate::PreparedRhs,
    geo: &Conv2dGeometry,
    engine: &dyn GemmEngine,
) -> Result<Tensor> {
    if prepared.k() != geo.patch_len() || prepared.n() != geo.out_channels {
        return Err(TensorError::ShapeMismatch {
            left: vec![prepared.k(), prepared.n()],
            right: vec![geo.patch_len(), geo.out_channels],
        });
    }
    let b = input.shape()[0];
    let (oh, ow) = geo.output_size(input.shape()[2], input.shape()[3])?;
    let cols = im2col(input, geo)?;
    let out = engine.gemm_prepared(&cols, prepared)?;
    patches_to_nchw(out.data(), b, geo.out_channels, oh, ow)
}

/// Permutes GEMM output rows `(b*oh*ow, oc)` into `[b, oc, oh, ow]` —
/// the layout step shared by the eager and prepared conv forwards.
fn patches_to_nchw(od: &[f32], b: usize, oc_n: usize, oh: usize, ow: usize) -> Result<Tensor> {
    let mut perm = vec![0.0f32; b * oc_n * oh * ow];
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                let src = ((bi * oh + oy) * ow + ox) * oc_n;
                for oc in 0..oc_n {
                    perm[((bi * oc_n + oc) * oh + oy) * ow + ox] = od[src + oc];
                }
            }
        }
    }
    Tensor::from_vec(perm, &[b, oc_n, oh, ow])
}

/// Gradients of a convolution given upstream `d_out: [b, oc, oh, ow]`.
///
/// Returns `(d_input, d_weight)`. Both GEMMs (`∆W = ∆Oᵀ·cols` and
/// `∆X = col2im(∆O·W)`) go through `engine`, matching the paper's
/// backward-pass quantization (Eqs. 2–3 in BFP).
///
/// # Errors
///
/// Propagates shape and engine errors.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    geo: &Conv2dGeometry,
    engine: &dyn GemmEngine,
) -> Result<(Tensor, Tensor)> {
    let [b, _c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let (oh, ow) = geo.output_size(h, w)?;
    // Permute d_out to (b*oh*ow, oc).
    let mut dmat = vec![0.0f32; b * oh * ow * geo.out_channels];
    let dd = d_out.data();
    for bi in 0..b {
        for oc in 0..geo.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    dmat[((bi * oh + oy) * ow + ox) * geo.out_channels + oc] =
                        dd[((bi * geo.out_channels + oc) * oh + oy) * ow + ox];
                }
            }
        }
    }
    let dmat = Tensor::from_vec(dmat, &[b * oh * ow, geo.out_channels])?;
    let cols = im2col(input, geo)?;

    // ∆W = ∆Oᵀ · cols  -> (oc, ckk)
    let dw = engine.gemm(&dmat.transpose2d()?, &cols)?;
    let dw = dw.reshape(&[geo.out_channels, geo.in_channels, geo.kernel, geo.kernel])?;

    // ∆cols = ∆O · W -> (b*oh*ow, ckk); fold back to the input.
    let wmat = weight.reshape(&[geo.out_channels, geo.patch_len()])?;
    let dcols = engine.gemm(&dmat, &wmat)?;
    let dx = col2im(&dcols, geo, b, h, w)?;
    Ok((dx, dw))
}

/// Max-pooling forward: returns the pooled tensor and flat argmax
/// indices (into the input) for the backward pass.
///
/// # Errors
///
/// Returns geometry errors when the window does not fit.
pub fn maxpool2d_forward(
    input: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<(Tensor, Vec<usize>)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let [b, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    if kernel == 0 || stride == 0 || kernel > h || kernel > w {
        return Err(TensorError::InvalidGeometry(format!(
            "pool {kernel}x{kernel}/{stride} does not fit {h}x{w}"
        )));
    }
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = vec![f32::NEG_INFINITY; b * c * oh * ow];
    let mut arg = vec![0usize; b * c * oh * ow];
    let data = input.data();
    for bi in 0..b {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let dst = ((bi * c + ci) * oh + oy) * ow + ox;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let src = ((bi * c + ci) * h + oy * stride + ky) * w + ox * stride + kx;
                            if data[src] > out[dst] {
                                out[dst] = data[src];
                                arg[dst] = src;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[b, c, oh, ow])?, arg))
}

/// Max-pooling backward: scatters upstream gradients to the argmax
/// positions recorded by [`maxpool2d_forward`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `d_out` does not match the
/// recorded indices.
pub fn maxpool2d_backward(
    d_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if d_out.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            left: d_out.shape().to_vec(),
            right: vec![argmax.len()],
        });
    }
    let mut dx = vec![0.0f32; input_shape.iter().product()];
    for (&g, &idx) in d_out.data().iter().zip(argmax) {
        dx[idx] += g;
    }
    Tensor::from_vec(dx, input_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ExactEngine;
    use rand::SeedableRng;

    fn geo(c: usize, oc: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            out_channels: oc,
            kernel: k,
            stride: s,
            padding: p,
        }
    }

    /// Direct (non-GEMM) convolution as a reference.
    fn conv_reference(input: &Tensor, weight: &Tensor, g: &Conv2dGeometry) -> Tensor {
        let [b, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let (oh, ow) = g.output_size(h, w).unwrap();
        let mut out = Tensor::zeros(&[b, g.out_channels, oh, ow]);
        for bi in 0..b {
            for oc in 0..g.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ky in 0..g.kernel {
                                for kx in 0..g.kernel {
                                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w
                                    {
                                        acc += input.at(&[bi, ci, iy as usize, ix as usize])
                                            * weight.at(&[oc, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[bi, oc, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_size() {
        let g = geo(3, 8, 3, 1, 1);
        assert_eq!(g.output_size(32, 32).unwrap(), (32, 32));
        let g2 = geo(3, 8, 3, 2, 0);
        assert_eq!(g2.output_size(7, 7).unwrap(), (3, 3));
        assert!(geo(1, 1, 9, 1, 0).output_size(4, 4).is_err());
    }

    #[test]
    fn conv_matches_direct_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        for (c, oc, k, s, p, h, w) in [
            (1, 1, 1, 1, 0, 4, 4),
            (2, 3, 3, 1, 1, 6, 5),
            (3, 4, 3, 2, 1, 8, 8),
            (1, 2, 5, 1, 2, 7, 7),
        ] {
            let g = geo(c, oc, k, s, p);
            let x = Tensor::randn(&[2, c, h, w], 1.0, &mut rng);
            let wt = Tensor::randn(&[oc, c, k, k], 0.5, &mut rng);
            let got = conv2d_forward(&x, &wt, &g, &ExactEngine).unwrap();
            let want = conv_reference(&x, &wt, &g);
            assert!(got.allclose(&want, 1e-4), "{c},{oc},{k},{s},{p}");
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        // that makes the backward pass correct.
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let g = geo(2, 1, 3, 1, 1);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let cols = im2col(&x, &g).unwrap();
        let y = Tensor::randn(cols.shape(), 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, &g, 1, 5, 5).unwrap();
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let g = geo(2, 2, 3, 1, 1);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let wt = Tensor::randn(&[2, 2, 3, 3], 0.5, &mut rng);
        // Loss = sum(conv(x, w)); d_out = ones.
        let out = conv2d_forward(&x, &wt, &g, &ExactEngine).unwrap();
        let d_out = Tensor::ones(out.shape());
        let (dx, dw) = conv2d_backward(&x, &wt, &d_out, &g, &ExactEngine).unwrap();

        let eps = 1e-2;
        let loss = |x: &Tensor, w: &Tensor| conv2d_forward(x, w, &g, &ExactEngine).unwrap().sum();
        // Spot-check a few weight coordinates.
        for idx in [[0usize, 0, 0, 0], [1, 1, 2, 2], [0, 1, 1, 0]] {
            let mut wp = wt.clone();
            *wp.at_mut(&idx) += eps;
            let num = (loss(&x, &wp) - loss(&x, &wt)) / eps;
            assert!((num - dw.at(&idx)).abs() < 0.05, "dw at {idx:?}");
        }
        // And a few input coordinates.
        for idx in [[0usize, 0, 0, 0], [0, 1, 3, 3], [0, 0, 2, 1]] {
            let mut xp = x.clone();
            *xp.at_mut(&idx) += eps;
            let num = (loss(&xp, &wt) - loss(&x, &wt)) / eps;
            assert!((num - dx.at(&idx)).abs() < 0.05, "dx at {idx:?}");
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 3.0, //
                4.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 1.0, //
                2.0, 3.0, 4.0, 6.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (y, arg) = maxpool2d_forward(&x, 2, 2).unwrap();
        assert_eq!(y.data(), &[4.0, 5.0, 7.0, 6.0]);
        let d = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let dx = maxpool2d_backward(&d, &arg, &[1, 1, 4, 4]).unwrap();
        assert_eq!(dx.at(&[0, 0, 1, 0]), 1.0); // 4.0 position
        assert_eq!(dx.at(&[0, 0, 0, 2]), 2.0); // 5.0 position
        assert_eq!(dx.at(&[0, 0, 2, 0]), 3.0); // 7.0 position
        assert_eq!(dx.at(&[0, 0, 3, 3]), 4.0); // 6.0 position
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn conv_through_parallel_engine_is_bit_identical() {
        use crate::parallel::TileConfig;
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let g = geo(3, 8, 3, 1, 1);
        let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
        let wt = Tensor::randn(&[8, 3, 3, 3], 0.5, &mut rng);
        let serial = conv2d_forward(&x, &wt, &g, &ExactEngine).unwrap();
        let banded = ExactEngine.parallel_with(TileConfig::auto().with_threads(4));
        let parallel = conv2d_forward(&x, &wt, &g, &banded).unwrap();
        assert_eq!(parallel.data(), serial.data());

        let d_out = Tensor::ones(serial.shape());
        let (dx_s, dw_s) = conv2d_backward(&x, &wt, &d_out, &g, &ExactEngine).unwrap();
        let (dx_p, dw_p) = conv2d_backward(&x, &wt, &d_out, &g, &banded).unwrap();
        assert_eq!(dx_p.data(), dx_s.data());
        assert_eq!(dw_p.data(), dw_s.data());
    }

    #[test]
    fn maxpool_rejects_bad_geometry() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(maxpool2d_forward(&x, 3, 1).is_err());
        assert!(maxpool2d_forward(&x, 0, 1).is_err());
    }
}

/// Global average pooling: `[b, c, h, w] -> [b, c]` (ResNet/MobileNet
/// classifier heads).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input.
pub fn global_avgpool2d(input: &Tensor) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let [b, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let area = (h * w).max(1) as f32;
    let mut out = vec![0.0f32; b * c];
    for bi in 0..b {
        for ci in 0..c {
            let base = (bi * c + ci) * h * w;
            out[bi * c + ci] = input.data()[base..base + h * w].iter().sum::<f32>() / area;
        }
    }
    Tensor::from_vec(out, &[b, c])
}

/// Backward of [`global_avgpool2d`]: spreads each `[b, c]` gradient
/// uniformly over its spatial window.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes disagree.
pub fn global_avgpool2d_backward(d_out: &Tensor, input_shape: &[usize]) -> Result<Tensor> {
    if input_shape.len() != 4 || d_out.shape() != [input_shape[0], input_shape[1]] {
        return Err(TensorError::ShapeMismatch {
            left: d_out.shape().to_vec(),
            right: input_shape.to_vec(),
        });
    }
    let [b, c, h, w] = [
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    ];
    let area = (h * w).max(1) as f32;
    let mut dx = vec![0.0f32; b * c * h * w];
    for bi in 0..b {
        for ci in 0..c {
            let g = d_out.data()[bi * c + ci] / area;
            let base = (bi * c + ci) * h * w;
            dx[base..base + h * w].fill(g);
        }
    }
    Tensor::from_vec(dx, input_shape)
}

#[cfg(test)]
mod avgpool_tests {
    use super::*;

    #[test]
    fn global_avgpool_means() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let y = global_avgpool2d(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn global_avgpool_adjoint() {
        // <pool(x), g> == <x, pool_backward(g)>.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let g = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let lhs: f32 = global_avgpool2d(&x)
            .unwrap()
            .data()
            .iter()
            .zip(g.data())
            .map(|(a, b)| a * b)
            .sum();
        let dx = global_avgpool2d_backward(&g, x.shape()).unwrap();
        let rhs: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn global_avgpool_validates() {
        assert!(global_avgpool2d(&Tensor::zeros(&[2, 2])).is_err());
        assert!(global_avgpool2d_backward(&Tensor::zeros(&[2, 2]), &[2, 3, 4, 4]).is_err());
    }
}
