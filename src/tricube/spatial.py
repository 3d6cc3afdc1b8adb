"""Quaternion, pose, and cube-keypoint math.

Conventions used everywhere in this package:

* Quaternions are stored ``(x, y, z, w)`` with ``w`` the scalar part, as the
  trailing axis of an array.  ``q`` and ``-q`` encode the same rotation and
  every distance function here respects that double cover.
* A pose is a world-frame translation (meters) plus a unit quaternion.
* A keypoint set is an ``(..., 8, 3)`` array of cube-corner positions in
  meters, world frame.  Corner ``i`` carries the sign pattern of the bits of
  ``i``: bit ``k`` set means the ``k``-th axis coordinate is ``+half_extent``,
  clear means ``-half_extent``.  Corner 0 is ``(-h, -h, -h)``, corner 7 is
  ``(+h, +h, +h)``.  The same ordering is used for observations, rewards,
  and contact bookkeeping, which is all that matters; nothing depends on the
  particular choice.

All functions are elementwise over leading batch dimensions, and the
rotation formulas use only products of quaternion-component pairs, so
outputs for ``q`` and ``-q`` are bit-identical, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])

# (8, 3) sign matrix: row i, column k is +1 if bit k of i is set, else -1.
_CORNER_SIGNS = np.array(
    [[1.0 if (i >> k) & 1 else -1.0 for k in range(3)] for i in range(8)]
)


@dataclass
class KernelParams:
    """Logistic reward-kernel parameters: ``a`` scales distance (1/m), ``b``
    flattens the peak.  ``K(0) = 1/(b+2)``."""

    a: float = 30.0
    b: float = 2.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"kernel scale a must be > 0, got {self.a}")
        if self.b < 0:
            raise ValueError(f"kernel offset b must be >= 0, got {self.b}")


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Scale to unit norm. Near-zero quaternions fall back to identity."""
    q = np.asarray(q, dtype=np.float64)
    n = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    out = np.where(n > 1e-12, q / np.where(n > 1e-12, n, 1.0), QUAT_IDENTITY)
    return out


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q)
    return np.concatenate([-q[..., :3], q[..., 3:4]], axis=-1)


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2 (apply q2's rotation first)."""
    x1, y1, z1, w1 = (q1[..., i] for i in range(4))
    x2, y2, z2, w2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=-1,
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors v (..., 3) by quaternions q (..., 4)."""
    qv = q[..., :3]
    w = q[..., 3:4]
    t = 2.0 * np.cross(qv, v)
    return v + w * t + np.cross(qv, t)


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (..., 3, 3) from quaternion."""
    x, y, z, w = (q[..., i] for i in range(4))
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    row0 = np.stack([1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)], axis=-1)
    row1 = np.stack([2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)], axis=-1)
    row2 = np.stack([2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    """Unit quaternion for rotation of ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    n = np.linalg.norm(axis, axis=-1, keepdims=True)
    u = np.where(n > 1e-12, axis / np.where(n > 1e-12, n, 1.0), [0.0, 0.0, 1.0])
    half = 0.5 * angle[..., None]
    return np.concatenate([u * np.sin(half), np.cos(half)], axis=-1)


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion.

    Uses the series for sin(t/2)/t near zero so the map is smooth there.
    """
    rv = np.asarray(rv, dtype=np.float64)
    angle = np.linalg.norm(rv, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-8
    k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([rv * k, np.cos(half)], axis=-1)


def quat_integrate(q: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Advance orientation by world-frame angular velocity over dt."""
    dq = quat_from_rotvec(omega * dt)
    return quat_normalize(quat_mul(dq, q))


def quat_from_shoemake(u: np.ndarray) -> np.ndarray:
    """Uniform SO(3) sample from three uniforms in [0,1), shape (..., 3)."""
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    t2, t3 = 2.0 * np.pi * u2, 2.0 * np.pi * u3
    return np.stack(
        [a * np.sin(t2), a * np.cos(t2), b * np.sin(t3), b * np.cos(t3)], axis=-1
    )


def rot_dist(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Angle in radians between two orientations, in [0, pi].

    Computed as ``2 * arcsin(min(1, ||vec(q1 * conj(q2))||))`` where ``vec``
    is the imaginary part of the difference quaternion.  Negating either
    input leaves the result unchanged.
    """
    q_diff = quat_mul(np.asarray(q1, dtype=np.float64), quat_conj(np.asarray(q2, dtype=np.float64)))
    vec_norm = np.linalg.norm(q_diff[..., :3], axis=-1)
    return 2.0 * np.arcsin(np.minimum(1.0, vec_norm))


def logistic_kernel(x: np.ndarray, params: KernelParams = KernelParams()) -> np.ndarray:
    """Bounded decreasing map of distance to reward: 1/(e^{ax} + b + e^{-ax}).

    Evaluated via e^{-a|x|} so large distances underflow to 0 instead of
    overflowing. Peak value is 1/(b+2) at x = 0.
    """
    e = np.exp(-params.a * np.abs(np.asarray(x, dtype=np.float64)))
    return e / (1.0 + params.b * e + e * e)


def quat_sign_filter(q_new: np.ndarray, q_last: np.ndarray) -> np.ndarray:
    """Undo tracker sign flips: return -q_new when q_last is within 0.2
    (4-vector Euclidean distance) of -q_new, else q_new unchanged."""
    q_new = np.asarray(q_new, dtype=np.float64)
    q_last = np.asarray(q_last, dtype=np.float64)
    d = np.linalg.norm(q_last + q_new, axis=-1, keepdims=True)
    return np.where(d < 0.2, -q_new, q_new)


def box_local_keypoints(half_extents: np.ndarray) -> np.ndarray:
    """Corners of an axis-aligned box with per-axis half extents (3,)."""
    h = np.asarray(half_extents, dtype=np.float64)
    if not np.all(h > 0):
        raise ValueError(f"half_extents must be > 0, got {h}")
    return _CORNER_SIGNS * h


def transform_keypoints(pos: np.ndarray, quat: np.ndarray, local: np.ndarray) -> np.ndarray:
    """World-frame keypoints: R(quat) @ local + pos.

    ``pos`` (..., 3), ``quat`` (..., 4), ``local`` (8, 3) or (..., 8, 3).
    The quaternion is normalized defensively.
    """
    quat = quat_normalize(quat)
    return quat_rotate(quat[..., None, :], local) + np.asarray(pos)[..., None, :]


def keypoints_to_flat(kps: np.ndarray) -> np.ndarray:
    """Flatten (..., 8, 3) keypoints to (..., 24), xyz-major per corner."""
    kps = np.asarray(kps)
    return kps.reshape(kps.shape[:-2] + (24,))
