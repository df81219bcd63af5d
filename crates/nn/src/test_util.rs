//! Fresh-buffer shims over the caller-owned-buffer API, shared by this
//! crate's unit tests.

use crate::mlp::{DeltaScratch, Grads, LayerCache, Mlp};
use lipiz_tensor::{Matrix, Pool};

/// Inference forward pass through fresh buffers.
pub fn forward(net: &Mlp, x: &Matrix, pool: &Pool) -> Matrix {
    let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
    net.forward_into(x, &mut out, &mut scratch, pool);
    out
}

/// Caching forward pass into a fresh cache.
pub fn cached_forward(net: &Mlp, x: &Matrix, pool: &Pool) -> LayerCache {
    let mut cache = LayerCache::default();
    net.forward_cached_ws(x, &mut cache, pool);
    cache
}

/// Full backward pass through fresh buffers: `(grads, dx)`.
pub fn backward(
    net: &Mlp,
    x: &Matrix,
    cache: &LayerCache,
    d_out: &Matrix,
    pool: &Pool,
) -> (Grads, Matrix) {
    let (mut grads, mut dx) = (Grads::default(), Matrix::default());
    let mut scratch = DeltaScratch::default();
    net.backward_ws(x, cache, d_out, &mut grads, &mut scratch, Some(&mut dx), pool);
    (grads, dx)
}
