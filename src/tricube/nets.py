"""Fully-connected networks with explicit forward/backward passes.

No autodiff framework: the policy and value trunks are small ELU MLPs, so
the gradients are written out by hand and verified against finite
differences in the test suite.  Parameters are plain numpy arrays, which
keeps checkpoints a flat list of raw little-endian tensors and makes
training bit-reproducible.

Bias add and ELU run in place on each fresh matmul output and the ELU
gradient comes from the activation alone, so the cache keeps only layer
inputs; these in-place forms give the same bits as the textbook ones.

The elementwise passes over an activation (bias add plus ELU forward, the
ELU-gradient product backward) run in row blocks of about ``BLOCK_BYTES``.
Each of them is several ufunc calls, and on a full 16384x512 batch every
call streams the whole array through memory; a block stays in the core's
cache across its calls instead, and the gradient product needs only a
block-sized temporary.  The ufuncs act on each element alone, so the
blocked passes give the same bits as full-array ones; an activation of one
block or less is one iteration of the same calls.  The weight and bias
gradients reduce over rows and stay full-batch.

Inference (``MLP.__call__``, behind the policy's actions and the value
estimates) runs the forward pass on zero-padded blocks of a fixed
``INFER_ROWS`` rows.  BLAS picks its kernel by the row count, and a kernel
for few rows can add in another order than one for many, so a full-batch
forward gives a row other bits at 64 rows than at 4096.  Fixed-size blocks
give each row the same bits whatever the batch it arrives in: one
observation, an evaluation shard, or a whole rollout (for one numpy and
BLAS build, at any BLAS thread count).  At 256 rows the blocks give the
same bits as a full 4096-row forward of the cube nets.  The training
``forward``, whose cache feeds ``backward``, stays full-batch: blocking it
cost 17% at 16384 rows on a 2-vCPU Xeon.

Initialization is orthogonal (QR of a keyed Gaussian draw) with gain
sqrt(2) for hidden layers; output layers take an explicit ``final_gain``
(small for the policy head so early torques stay near zero).
"""

from __future__ import annotations

import numpy as np

from . import rng


def elu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """expm1(min(x, 0)) + max(x, 0); ``out=x`` computes it in place."""
    pos = np.maximum(x, 0.0)
    out = np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    out += pos
    return out


def elu_grad(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d elu/dx from the output a = elu(x) alone: 1 where a > 0, else a + 1."""
    out = np.minimum(a, 0.0, out=out)
    out += 1.0
    return out


BLOCK_BYTES = 1 << 20
INFER_ROWS = 256


def _block_rows(a: np.ndarray) -> int:
    return max(1, BLOCK_BYTES // (a.shape[1] * a.itemsize))


def bias_elu_(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h = elu(h + b) in place, one row block at a time."""
    rows = _block_rows(h)
    for start in range(0, h.shape[0], rows):
        x = h[start : start + rows]
        x += b
        elu(x, out=x)
    return h


def mul_elu_grad_(delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """delta *= elu_grad(a) in place, one row block at a time."""
    rows = _block_rows(delta)
    for start in range(0, delta.shape[0], rows):
        d = delta[start : start + rows]
        d *= elu_grad(a[start : start + rows])
    return delta


def orthogonal_init(shape: tuple, key: np.ndarray, gain: float, dtype) -> np.ndarray:
    rows, cols = shape
    z = rng.normal(key, rows * cols).reshape(max(rows, cols), min(rows, cols))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))  # fix the sign convention
    if rows < cols:
        q = q.T
    # LAPACK hands back F-ordered data; normalize to C order
    return np.ascontiguousarray(gain * q[:rows, :cols], dtype=dtype)


class MLP:
    """ELU MLP with a linear output layer.

    Parameters live in ``self.weights`` / ``self.biases`` (lists, input to
    output).  ``forward`` returns the output plus a cache holding each
    layer's input; ``backward`` consumes it and returns the parameter
    gradients (no gradient w.r.t. the network input).
    """

    def __init__(
        self,
        sizes: list[int],
        seed_words: tuple = (0,),
        final_gain: float = 1.0,
        dtype=np.float32,
    ):
        self.sizes = list(sizes)
        self.dtype = np.dtype(dtype)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        n_layers = len(sizes) - 1
        for li in range(n_layers):
            gain = final_gain if li == n_layers - 1 else np.sqrt(2.0)
            key = rng.stream_key(*seed_words, li, rng.CH_PARAM_INIT)
            w = orthogonal_init((sizes[li + 1], sizes[li]), key, gain, self.dtype)
            self.weights.append(w)
            self.biases.append(np.zeros(sizes[li + 1], dtype=self.dtype))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        h = np.ascontiguousarray(x, dtype=self.dtype)
        cache = []
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            cache.append(h)
            h = h @ w.T  # a fresh buffer, so everything below may run in place
            if li < self.n_layers - 1:
                bias_elu_(h, b)
            else:
                h += b
        return h, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Inference: ``forward``'s output, run in zero-padded blocks of
        ``INFER_ROWS`` rows, so a row's bits do not depend on the batch."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        n = x.shape[0]
        out = np.empty((n, self.sizes[-1]), dtype=self.dtype)
        for start in range(0, n, INFER_ROWS):
            block = x[start : start + INFER_ROWS]
            m = len(block)
            if m < INFER_ROWS:
                block = np.concatenate([block, np.zeros((INFER_ROWS - m, x.shape[1]), self.dtype)])
            out[start : start + m] = self.forward(block)[0][:m]
        return out

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, ordered like ``parameters()``, of a scalar
        loss given d loss / d output.  Neither ``cache`` nor ``dout`` is
        modified."""
        grads = [None] * (2 * self.n_layers)
        delta = np.ascontiguousarray(dout, dtype=self.dtype)
        for li in reversed(range(self.n_layers)):
            h = cache[li]
            grads[2 * li] = delta.T @ h
            grads[2 * li + 1] = delta.sum(axis=0)
            if li > 0:
                # h is the previous layer's activation; delta is fresh from the matmul
                delta = delta @ self.weights[li]
                mul_elu_grad_(delta, h)
        return grads


class RunningNorm:
    """Streaming per-dimension mean/variance (Welford batch merge) used to
    normalize observations and value targets during training."""

    def __init__(self, dim: int, clip: float = 10.0):
        self.count = 1e-4
        self.mean = np.zeros(dim, dtype=np.float64)
        self.m2 = np.zeros(dim, dtype=np.float64)
        self.clip = clip

    def update(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.mean.shape[0])
        n = x.shape[0]
        if n == 0:
            return
        batch_mean = x.mean(axis=0)
        batch_m2 = ((x - batch_mean) ** 2).sum(axis=0)
        delta = batch_mean - self.mean
        total = self.count + n
        self.mean += delta * (n / total)
        self.m2 += batch_m2 + delta * delta * (self.count * n / total)
        self.count = total

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2 / self.count, 1e-8))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x) - self.mean) / self.std
        return np.clip(z, -self.clip, self.clip)

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z) * self.std + self.mean

    def state_tensors(self, prefix: str) -> dict:
        return {
            f"{prefix}.count": np.array([self.count], dtype=np.float64),
            f"{prefix}.mean": self.mean,
            f"{prefix}.m2": self.m2,
        }

    def load_state_tensors(self, prefix: str, tensors: dict) -> None:
        self.count = float(tensors[f"{prefix}.count"][0])
        self.mean[:] = tensors[f"{prefix}.mean"]
        self.m2[:] = tensors[f"{prefix}.m2"]


class Adam:
    """Standard first-order adaptive-moment optimizer over a parameter list."""

    def __init__(self, params: list[np.ndarray], beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = g.astype(p.dtype, copy=False)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= (lr / b1t) * m / (np.sqrt(v / b2t) + self.eps)

    def state_tensors(self, prefix: str) -> dict:
        out = {f"{prefix}.t": np.array([self.t], dtype=np.int64)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"{prefix}.m{i}"] = m
            out[f"{prefix}.v{i}"] = v
        return out

    def load_state_tensors(self, prefix: str, tensors: dict) -> None:
        self.t = int(tensors[f"{prefix}.t"][0])
        for i in range(len(self.m)):
            self.m[i][:] = tensors[f"{prefix}.m{i}"]
            self.v[i][:] = tensors[f"{prefix}.v{i}"]
