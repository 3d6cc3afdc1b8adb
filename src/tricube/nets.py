"""Fully-connected networks with explicit forward/backward passes.

No autodiff framework: the policy and value trunks are small ELU MLPs, so
the gradients are written out by hand and verified against finite
differences in the test suite.  Parameters are plain numpy arrays, which
keeps checkpoints a flat list of raw little-endian tensors and makes
training bit-reproducible.

Bias add and ELU run in place on each fresh matmul output and the ELU
gradient comes from the activation alone, so the cache keeps only layer
inputs; these in-place forms give the same bits as the textbook ones.

Every matmul output and delta is a fresh array, so a training update frees
and takes back tens of MiB of buffers per minibatch.  The first ``MLP``
a process builds pins glibc's malloc thresholds (``pin_heap``): blocks up
to 32 MiB come from the heap, and the heap keeps up to 64 MiB free at its
top.  These are the values glibc's own sliding thresholds end at, but they
start at 128 KiB and 256 KiB and rise only as larger mmapped blocks are
freed, and whether the heap meanwhile hands the update's pages back to the
kernel hangs on where the process's earlier allocations lie (its paths,
its source, its output stream).  So one source either reused its pages or
faulted them in again, and its speed moved by up to a fifth from one run
to the next.  On a 2-vCPU Xeon, a smoke-profile reach update (512 envs,
1920-row minibatches) took 12k-44k minor page faults and 0.20-0.24 s
unpinned, by the checkout's directory name, and none and 0.15-0.17 s
pinned.  The thresholds pick where a buffer lives, never its contents, so
the bits are the same.  A process that builds no net keeps glibc's
defaults, and an environment that sets either threshold for glibc
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``, a
``glibc.malloc`` tunable) keeps its own.

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
estimates) zero-pads the batch to a multiple of ``INFER_ROWS`` rows
(``MLP._padded``) and runs it as one ``forward``.  BLAS picks its kernel by
the row count, and a kernel for few rows can add in another order than one
for many, so a plain forward gives a row other bits at 64 rows than at 4096.
Some OpenBLAS kernels compute a row the same way at every multiple of 256
rows (``tests/test_partition.py`` checks it from 256 to 64 * 256 rows for
both nets); only there does a row get the same bits whatever the batch it
arrives in: one observation, an evaluation shard, or a whole rollout.
``SkylakeX`` and ``Sandybridge`` have the property, and under
``OPENBLAS_CORETYPE=Haswell`` 9 of the 16 partition tests fail; every
``manifest.json`` names the kernel (``blas.corename``).
Evaluation shards start on multiples of ``INFER_ROWS``
(``harness.shard_bounds``), so a shard's tail is the batch's tail.  The
training ``forward``, whose cache feeds ``backward``, takes the batch as it
comes.

``MLP.infer_beside`` runs the same padded rows through a ``_beside``
submit, so an inference can run on a helper thread beside other work;
``Trainer.collect_rollout`` runs its value forward that way.  It runs the
rows on ``forward``'s plan (below), both halves of a split in turn on
whichever thread runs it, so it gives ``MLP.__call__``'s bits on every
kernel.  The calling thread pads the input and allocates every
activation, because a helper's own malloc arena would keep the pages of
what it allocated.  The helper runs ``_forward_rows`` alone, which calls
nothing a profiler wraps:
``perfbench``'s tracer keeps one span stack per process, so a wrapped call
on the helper would nest its span inside whatever span the calling thread
has open.

A pass's row plan is a function of its rows alone: ``MLP.split_rows`` cuts
a pass whose widest activation holds at least ``SPLIT_BYTES`` (2 MiB) in
two, and keeps a smaller one whole.  Inference follows the same rule, since
it is a ``forward``.  The BLAS thread count picks only where the plan runs,
never what it computes; ``_beside`` is the one place in ``nets`` and
``trainer`` that reads it.  With 2 or more OpenBLAS threads every pass runs
with OpenBLAS held to one thread, and the two halves of a split pass run
side by side on the calling thread and one helper thread, so the
elementwise work that otherwise runs on one core (bias plus ELU, the
ELU-gradient product, the bias sums) runs beside other work.  OpenBLAS's
own workers cannot take it: they spin for about 0.1 s after each call, so a
helper beside them shares its core.  With one thread, or under another
BLAS, the halves run in turn on the calling thread.  ``SPLIT_BYTES`` is
where a split pass stops losing to an unsplit one at 2 BLAS threads.  On a
2-vCPU Xeon, a forward and backward of the paper's nets took, split against
unsplit, x1.13 with a 0.5 MiB widest activation, x0.98 to x1.08 at 1 MiB,
x0.90 to x1.00 at 2 MiB and x0.87 to x0.92 at 4 MiB and more; the smoke
profile's nets at their 1920-row minibatch (under 1 MiB) took x1.12 and
x1.25 split, and its training iterations about a tenth longer.

- ``forward`` splits the rows once, at the multiple of ``INFER_ROWS``
  nearest half of them.  Each half runs the whole layer chain on its rows,
  into per-layer buffers the calling thread allocates, so the cache is the
  same full arrays.
- ``backward`` keeps each weight gradient ``delta.T @ h`` one GEMM over all
  rows.  The helper runs it while the calling thread computes the bias
  gradient, the next delta (split at the same rows) and its ELU-gradient
  product; both finish before the next layer, so no more deltas are alive
  than in an unsplit pass.  Layer 0 has no next delta, so each side computes
  half of its weight gradient's output units, each half one GEMM over all
  rows.
- Bits: every GEMM runs at one OpenBLAS thread, and its shapes follow from
  the pass's rows alone, so a pass gets the same bits at every BLAS thread
  count, on any kernel, by construction.  ``orthogonal_init`` holds its QR
  (LAPACK calls BLAS) at one thread too.  ``tests/test_nets_threads.py``
  checks this for 512 to 16384 rows in float32 and float64 under each
  OpenBLAS core type the CPU can execute.
- The helper is started per pass (per rollout in ``Trainer.collect_rollout``)
  and joined on every exit, exceptions included, before the BLAS count is
  restored; none is alive when ``harness.evaluate`` forks.

Initialization is orthogonal (QR of a keyed Gaussian draw) with gain
sqrt(2) for hidden layers; output layers take an explicit ``final_gain``
(small for the policy head so early torques stay near zero).  A net whose
parameters a checkpoint supplies skips the draw (``MLP(draw=False)``): its
parameters start as zeros for the load to fill.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

from . import rng

# glibc's mallopt parameters (malloc.h) and the values this module pins
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_MMAP_BYTES = 32 << 20  # the largest mmap threshold glibc accepts on 64-bit
HEAP_TRIM_BYTES = 2 * HEAP_MMAP_BYTES  # the trim threshold glibc pairs with it
GLIBC_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@functools.cache
def pin_heap() -> bool:
    """Fix glibc's mmap threshold at ``HEAP_MMAP_BYTES`` and its trim
    threshold at ``HEAP_TRIM_BYTES``, once per process (see the module
    docstring).  False, with nothing set, under another C library or when
    the environment already sets either threshold for glibc."""
    if any(k in os.environ for k in GLIBC_MALLOC_ENV) or "glibc.malloc" in os.environ.get(
            "GLIBC_TUNABLES", ""):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # only glibc defines it
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_BYTES)) and bool(
        mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_BYTES))


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
SPLIT_BYTES = 2 << 20


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


@functools.cache
def _openblas() -> dict | None:
    """The OpenBLAS functions this module calls, as numpy loaded them, by
    their names without the build's prefix and suffix; None under another
    BLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)  # its symbols resolve through its BLAS
    signatures = {"get_num_threads": ([], ctypes.c_int), "set_num_threads": ([ctypes.c_int], None),
                  "get_config": ([], ctypes.c_char_p), "get_corename": ([], ctypes.c_char_p)}
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        if getattr(lib, f"{prefix}_get_num_threads{suffix}", None):
            fns = {}
            for name, (argtypes, restype) in signatures.items():
                fn = fns[name] = getattr(lib, f"{prefix}_{name}{suffix}")
                fn.argtypes, fn.restype = argtypes, restype
            return fns
    return None


def openblas_thread_controls():
    """OpenBLAS's (get, set) thread-count functions as numpy loaded them,
    or None under another BLAS."""
    fns = _openblas()
    return None if fns is None else (fns["get_num_threads"], fns["set_num_threads"])


def blas_build() -> dict:
    """OpenBLAS's build string, the core type whose kernels it runs on this
    CPU and its thread count, each None under another BLAS.  A
    ``DYNAMIC_ARCH`` build picks the core type at start-up, and a row's bits
    rest on its kernel (see the module docstring)."""
    fns = _openblas()
    if fns is None:
        return dict.fromkeys(("config", "corename", "threads"))
    return {"config": fns["get_config"]().decode(), "corename": fns["get_corename"]().decode(),
            "threads": fns["get_num_threads"]()}


def blas_threads() -> int:
    """The OpenBLAS thread count now, or 1 under another BLAS."""
    controls = openblas_thread_controls()
    return 1 if controls is None else controls[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body at one OpenBLAS thread, then restore the count."""
    get, set_ = openblas_thread_controls()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _now(fn, *args):
    value = fn(*args)
    return lambda: value


@contextlib.contextmanager
def _beside(wanted: bool):
    """A ``submit(fn, *args)`` that returns a function which waits for the
    call and returns its value.  With 2 or more OpenBLAS threads the body
    runs with OpenBLAS held to one thread, and if ``wanted`` the calls queue
    on one helper thread that runs beside this one; on every exit the helper
    has finished its queue and ended before the BLAS count is restored.
    Otherwise each call runs at once, here (see the module docstring)."""
    if blas_threads() < 2:
        yield _now
        return
    with one_blas_thread():
        if not wanted:
            yield _now
            return
        # imported here: it adds about 7 ms to every start of the program
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, thread_name_prefix="tricube-nets") as pool:
            yield lambda fn, *args: pool.submit(fn, *args).result


def _matmul_rows(a: np.ndarray, b: np.ndarray, at: int) -> np.ndarray:
    """``a @ b``, as two GEMMs split at row ``at`` unless it is 0.  OpenBLAS
    packs a buffer that grows with a GEMM's rows, one per calling thread, so
    a split pass keeps each of its GEMMs to one side of its row cut."""
    if not at:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    np.matmul(a[:at], b, out[:at])
    np.matmul(a[at:], b, out[at:])
    return out


def orthogonal_init(shape: tuple, key: np.ndarray, gain: float, dtype) -> np.ndarray:
    rows, cols = shape
    z = rng.normal(key, rows * cols).reshape(max(rows, cols), min(rows, cols))
    with _beside(False):  # LAPACK's QR calls BLAS, whose bits can follow the thread count
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
    gradients (no gradient w.r.t. the network input).  With ``draw`` false
    every parameter is zero, for a checkpoint load to fill: no
    ``orthogonal_init`` runs.
    """

    def __init__(
        self,
        sizes: list[int],
        seed_words: tuple = (0,),
        final_gain: float = 1.0,
        dtype=np.float32,
        draw: bool = True,
    ):
        pin_heap()
        self.sizes = list(sizes)
        self.dtype = np.dtype(dtype)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        n_layers = len(sizes) - 1
        for li in range(n_layers):
            shape = (sizes[li + 1], sizes[li])
            if draw:
                gain = final_gain if li == n_layers - 1 else np.sqrt(2.0)
                key = rng.stream_key(*seed_words, li, rng.CH_PARAM_INIT)
                w = orthogonal_init(shape, key, gain, self.dtype)
            else:
                w = np.zeros(shape, dtype=self.dtype)
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

    def split_rows(self, n: int) -> int:
        """Where a pass over ``n`` rows splits them in two, or 0 to keep them
        whole: when the widest activation holds ``SPLIT_BYTES``, at the
        multiple of ``INFER_ROWS`` nearest ``n / 2`` (see the module
        docstring).  The BLAS thread count decides only whether the halves
        run side by side (``_beside``), never where they split."""
        if n * max(self.sizes[1:]) * self.dtype.itemsize < SPLIT_BYTES:
            return 0
        at = INFER_ROWS * max(1, round(n / (2 * INFER_ROWS)))
        return at if at < n else 0

    def _forward_rows(self, x: np.ndarray, outs: list[np.ndarray], lo: int, hi: int) -> None:
        """Every layer on rows ``lo:hi`` of ``x``, into the same rows of ``outs``."""
        h = x[lo:hi]
        for li, (w, b, out) in enumerate(zip(self.weights, self.biases, outs)):
            h = np.matmul(h, w.T, out=out[lo:hi])  # nothing else writes these rows
            if li < self.n_layers - 1:
                bias_elu_(h, b)
            else:
                h += b

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The output and the cache ``backward`` takes: each layer's input.
        The rows split where ``split_rows`` says so."""
        h = np.ascontiguousarray(x, dtype=self.dtype)
        n = h.shape[0]
        outs = [np.empty((n, size), dtype=self.dtype) for size in self.sizes[1:]]
        at = self.split_rows(n)
        with _beside(at > 0) as submit:
            rest = submit(self._forward_rows, h, outs, at, n)  # all rows, here, if at is 0
            if at:
                self._forward_rows(h, outs, 0, at)
            rest()
        return outs[-1], [h, *outs[:-1]]

    def _padded(self, x: np.ndarray) -> np.ndarray:
        """``x`` zero-padded to a multiple of ``INFER_ROWS`` rows, so a row's
        inference bits do not depend on the batch (see the module docstring)."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        pad = -len(x) % INFER_ROWS
        return np.concatenate([x, np.zeros((pad, x.shape[1]), self.dtype)]) if pad else x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Inference: ``forward``'s output over the ``_padded`` rows.  It goes
        through ``forward`` because profilers time inference by wrapping
        ``MLP.forward`` (``perfbench``'s ``nets.MLP.forward`` spans on every
        workload, evaluation included)."""
        return self.forward(self._padded(x))[0][: len(x)]

    def _forward_halves(self, x: np.ndarray, outs: list[np.ndarray], at: int) -> None:
        """``forward``'s plan for ``x`` split at row ``at`` (0: whole), its
        halves in turn on this thread."""
        if at:
            self._forward_rows(x, outs, 0, at)
        self._forward_rows(x, outs, at, len(x))

    def infer_beside(self, x: np.ndarray, submit):
        """``self(x)`` with its layers run by ``submit`` (``_beside``'s),
        which may run them on a helper thread.  The rows split where
        ``__call__``'s do, and whichever thread runs them runs both halves
        in turn, so the output has ``self(x)``'s bits.  This thread pads the
        input and allocates every activation; the helper runs
        ``_forward_rows`` alone (see the module docstring).  Returns a
        function that waits for the rows and returns the output."""
        padded = self._padded(x)
        outs = [np.empty((len(padded), size), dtype=self.dtype) for size in self.sizes[1:]]
        done = submit(self._forward_halves, padded, outs, self.split_rows(len(padded)))
        out = outs[-1][: len(x)]  # the result keeps this alone; the hidden layers die with the call

        def result() -> np.ndarray:
            done()
            return out

        return result

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, ordered like ``parameters()``, of a scalar
        loss given d loss / d output.  Neither ``cache`` nor ``dout`` is
        modified.  Where ``split_rows`` splits the rows, the weight
        gradients run beside the bias gradients and the backpropagated
        deltas, on a helper thread at 2 or more BLAS threads."""
        grads = [None] * (2 * self.n_layers)
        delta = np.ascontiguousarray(dout, dtype=self.dtype)
        at = self.split_rows(delta.shape[0])
        with _beside(at > 0) as submit:
            for li in reversed(range(1, self.n_layers)):
                h = cache[li]
                # this thread allocates, so the helper's malloc arena stays small
                grads[2 * li] = np.empty((delta.shape[1], h.shape[1]), dtype=self.dtype)
                dw = submit(np.matmul, delta.T, h, grads[2 * li])  # reads delta, never writes it
                grads[2 * li + 1] = delta.sum(axis=0)
                # h is the previous layer's activation; delta is a fresh product.
                # A one-wide delta (the value head) makes it an outer product,
                # which OpenBLAS runs slower as a K=1 GEMM than numpy's multiply
                w = self.weights[li]
                delta = delta * w if delta.shape[1] == 1 else _matmul_rows(delta, w, at)
                mul_elu_grad_(delta, h)
                dw()  # done before the next layer, so at most two deltas are alive
            # layer 0 has no next delta to compute beside its weight gradient,
            # so each thread takes half of its output units
            h, units = cache[0], delta.shape[1]
            cut = units // 2 if at else 0
            grads[0] = np.empty((units, h.shape[1]), dtype=self.dtype)
            top = submit(np.matmul, delta[:, :cut].T, h, grads[0][:cut]) if cut else None
            np.matmul(delta[:, cut:].T, h, grads[0][cut:])
            grads[1] = delta.sum(axis=0)
            if top:
                top()
        return grads


class RunningNorm:
    """Streaming per-dimension mean/variance (Welford batch merge) used to
    normalize observations and value targets during training.  The count
    is a 1-element array, so ``state_tensors`` can hand out every array
    live for a checkpoint load to fill."""

    def __init__(self, dim: int, clip: float = 10.0):
        self.count = np.full(1, 1e-4)
        self.mean = np.zeros(dim, dtype=np.float64)
        self.m2 = np.zeros(dim, dtype=np.float64)
        self.clip = clip

    def update(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.mean.shape[0])
        n = x.shape[0]
        if n == 0:
            return
        batch_mean = x.mean(axis=0)
        dev = x - batch_mean
        batch_m2 = np.square(dev, out=dev).sum(axis=0)
        delta = batch_mean - self.mean
        count = float(self.count[0])
        total = count + n
        self.mean += delta * (n / total)
        self.m2 += batch_m2 + delta * delta * (count * n / total)
        self.count[0] = total

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2 / float(self.count[0]), 1e-8))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """clip((x - mean) / std): one float64 copy of ``x``, then in place.
        numpy promotes ``x`` to float64 element by element in the textbook
        expression too, so the copy gives the same bits."""
        z = np.array(x, dtype=np.float64)
        z -= self.mean
        z /= self.std
        return np.clip(z, -self.clip, self.clip, out=z)

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z) * self.std + self.mean

    def state_tensors(self, prefix: str) -> dict:
        return {f"{prefix}.count": self.count, f"{prefix}.mean": self.mean, f"{prefix}.m2": self.m2}


class Adam:
    """Standard first-order adaptive-moment optimizer over a parameter list.
    The step count is a 1-element array, so ``state_tensors`` can hand out
    every array live for a checkpoint load to fill."""

    def __init__(self, params: list[np.ndarray], beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = np.zeros(1, np.int64)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        # a Python int exponent keeps b1t a float: an array or numpy scalar
        # would promote the float32 update to float64
        t = int(self.t[0]) + 1
        self.t[0] = t
        b1t = 1.0 - self.beta1**t
        b2t = 1.0 - self.beta2**t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = g.astype(p.dtype, copy=False)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= (lr / b1t) * m / (np.sqrt(v / b2t) + self.eps)

    def state_tensors(self, prefix: str) -> dict:
        out = {f"{prefix}.t": self.t}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"{prefix}.m{i}"] = m
            out[f"{prefix}.v{i}"] = v
        return out
