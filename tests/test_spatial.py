import math

import numpy as np
import pytest

from tricube import rng, spatial
from tricube.spatial import KernelParams


def random_unit_quats(n, seed=0):
    u = rng.uniform(rng.stream_key(seed, np.arange(n), 0, 99), 3)
    return spatial.quat_from_shoemake(u)


def rot_mat(q):
    """Rotation matrices (..., 3, 3) from ``spatial.quat_to_mat_parts``."""
    rows = spatial.quat_to_mat_parts(tuple(np.moveaxis(q, -1, 0)))
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def rotate(q, v):
    """Vectors v (..., 3) rotated by quaternions q (..., 4), with
    ``spatial.quat_rotate_parts``."""
    parts = spatial.quat_rotate_parts(tuple(np.moveaxis(q, -1, 0)), tuple(np.moveaxis(v, -1, 0)))
    return np.stack(parts, axis=-1)


# ---------------------------------------------------------------- keypoints


def test_cube_corners_bit_pattern_order():
    kps = spatial.box_local_keypoints((0.5,) * 3)
    assert kps.shape == (8, 3)
    assert np.array_equal(kps[0], [-0.5, -0.5, -0.5])
    assert np.array_equal(kps[7], [0.5, 0.5, 0.5])
    for i in range(8):
        for k in range(3):
            expected = 0.5 if (i >> k) & 1 else -0.5
            assert kps[i, k] == expected


def test_cube_corners_magnitude_and_centroid():
    kps = spatial.box_local_keypoints((0.0325,) * 3)
    assert np.all(np.abs(kps) == 0.0325)
    assert np.allclose(kps.mean(axis=0), 0.0, atol=1e-18)


def test_cube_corners_rejects_nonpositive():
    with pytest.raises(ValueError):
        spatial.box_local_keypoints((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        spatial.box_local_keypoints((-1.0, -1.0, -1.0))


def test_transform_identity_and_translation():
    local = spatial.box_local_keypoints((0.0325,) * 3)
    assert np.allclose(spatial.transform_keypoints(np.zeros(3), spatial.QUAT_IDENTITY, local), local)
    shifted = spatial.transform_keypoints(np.array([0.1, 0.0, 0.0]), spatial.QUAT_IDENTITY, local)
    assert np.allclose(shifted, local + [0.1, 0.0, 0.0])


def test_transform_matches_matrix_oracle():
    # Independent oracle: explicit 3x3 rotation matrix for 90 deg about z.
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q = spatial.quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2)
    t = np.array([0.01, -0.02, 0.3])
    got = spatial.transform_keypoints(t, q, local)
    rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    want = local @ rz.T + t
    assert np.allclose(got, want, atol=1e-12)


def test_transform_random_matches_matrix_oracle():
    local = spatial.box_local_keypoints((0.0325,) * 3)
    qs = random_unit_quats(200, seed=5)
    ts = rng.normal(rng.stream_key(5, np.arange(200), 1, 98), 3) * 0.1
    got = spatial.transform_keypoints(ts, qs, local)
    mats = rot_mat(qs)
    want = np.einsum("nij,kj->nki", mats, local) + ts[:, None, :]
    assert np.allclose(got, want, atol=1e-12)


def test_rigidity_preserved():
    # All 12 cube edges stay length 2h after an arbitrary rigid transform.
    h = 0.0325
    local = spatial.box_local_keypoints((h,) * 3)
    q = random_unit_quats(50, seed=9)
    t = rng.normal(rng.stream_key(9, np.arange(50), 2, 98), 3)
    kps = spatial.transform_keypoints(t, q, local)
    edges = [(i, j) for i in range(8) for j in range(8)
             if bin(i ^ j).count("1") == 1]
    assert len(edges) == 24  # each edge twice
    for i, j in edges:
        d = np.linalg.norm(kps[:, i] - kps[:, j], axis=-1)
        assert np.all(np.abs(d - 2 * h) < 1e-9)


def test_inverse_pose_recovers_local():
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q = random_unit_quats(100, seed=3)
    t = rng.normal(rng.stream_key(3, np.arange(100), 3, 98), 3)
    kps = spatial.transform_keypoints(t, q, local)
    q_inv = spatial.quat_conj(q)
    t_inv = -rotate(q_inv, t)
    back = rotate(q_inv[:, None, :], kps) + t_inv[:, None, :]
    assert np.max(np.abs(back - local)) < 1e-9


def test_flat_round_trip():
    kps = spatial.transform_keypoints(
        np.array([0.1, 0.2, 0.3]), random_unit_quats(1)[0], spatial.box_local_keypoints((0.0325,) * 3)
    )
    flat = spatial.keypoints_to_flat(kps)
    assert flat.shape == (24,)
    assert np.array_equal(flat[:3], kps[0])
    assert np.array_equal(flat.reshape(8, 3), kps)
    ident_flat = spatial.keypoints_to_flat(spatial.box_local_keypoints((0.0325,) * 3))
    assert np.all(np.abs(ident_flat) == 0.0325)


def test_double_cover_bit_identical():
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q = random_unit_quats(1000, seed=11)
    t = rng.normal(rng.stream_key(11, np.arange(1000), 4, 98), 3) * 0.2
    a = spatial.transform_keypoints(t, q, local)
    b = spatial.transform_keypoints(t, -q, local)
    assert np.array_equal(a, b)


def test_keypoint_distance_zero_iff_same_pose():
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q = random_unit_quats(100, seed=13)
    t = rng.normal(rng.stream_key(13, np.arange(100), 5, 98), 3) * 0.2
    kps = spatial.transform_keypoints(t, q, local)
    same = spatial.transform_keypoints(t, -q, local)
    assert np.all(np.linalg.norm(kps - same, axis=-1).sum(axis=-1) == 0.0)
    other = spatial.transform_keypoints(t + 1e-4, q, local)
    assert np.all(np.linalg.norm(kps - other, axis=-1).sum(axis=-1) > 0.0)


# ---------------------------------------------------------------- kernel


def test_kernel_peak_value_exact():
    assert spatial.logistic_kernel(0.0, KernelParams(a=30, b=2)) == 0.25


def test_kernel_matches_direct_formula():
    # Oracle: the textbook form 1/(e^{ax} + b + e^{-ax}), evaluated directly.
    p = KernelParams(a=30, b=2)
    for x in [0.01, 0.05, 0.1, 0.3]:
        direct = 1.0 / (math.exp(p.a * x) + p.b + math.exp(-p.a * x))
        assert abs(spatial.logistic_kernel(x, p) - direct) < 1e-15
    assert abs(spatial.logistic_kernel(0.1, p) - 0.04517665973091214) < 1e-12


def test_kernel_far_distance_underflows_cleanly():
    p = KernelParams(a=50, b=2)
    v = spatial.logistic_kernel(1.0, p)
    assert 0.0 <= v < 1e-20
    # no overflow even at absurd distances
    assert spatial.logistic_kernel(1e6, p) == 0.0


def test_kernel_monotone_and_symmetric():
    p = KernelParams(a=30, b=2)
    xs = np.linspace(0.0, 2.0, 4001)
    ys = spatial.logistic_kernel(xs, p)
    assert np.all(np.diff(ys) <= 0.0)
    assert np.array_equal(spatial.logistic_kernel(-xs, p), ys)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(a=0.0)
    with pytest.raises(ValueError):
        KernelParams(a=30, b=-0.1)


# ---------------------------------------------------------------- rot_dist


def test_rot_dist_identity_and_double_cover():
    q = random_unit_quats(100, seed=17)
    # identical poses: zero up to float summation residue in the product
    assert np.all(spatial.rot_dist(q, q) < 1e-12)
    assert np.all(spatial.rot_dist(q, -q) < 1e-12)
    # negating either argument flips every product pairwise: bit-identical
    q2 = random_unit_quats(100, seed=18)
    assert np.array_equal(spatial.rot_dist(-q, q2), spatial.rot_dist(q, q2))
    assert np.array_equal(spatial.rot_dist(q, -q2), spatial.rot_dist(q, q2))


def test_rot_dist_axis_angle_oracle():
    # Oracle: by construction, a rotation of theta about any axis is theta away
    # from identity (for theta in [0, pi]).
    ident = spatial.QUAT_IDENTITY
    for theta in [0.1, 0.5, 1.0, 2.0, math.pi]:
        q = spatial.quat_from_axis_angle([0.0, 0.0, 1.0], theta)
        assert abs(spatial.rot_dist(q, ident) - theta) < 1e-12
    q180 = spatial.quat_from_axis_angle([0.0, 0.0, 1.0], math.pi)
    assert abs(spatial.rot_dist(q180, ident) - math.pi) < 1e-12


def test_rot_dist_symmetry_and_triangle():
    a = random_unit_quats(300, seed=19)
    b = random_unit_quats(300, seed=23)
    c = random_unit_quats(300, seed=29)
    dab = spatial.rot_dist(a, b)
    assert np.max(np.abs(dab - spatial.rot_dist(b, a))) < 1e-6
    assert np.all(dab <= spatial.rot_dist(a, c) + spatial.rot_dist(c, b) + 1e-6)
    assert np.all(dab >= 0.0) and np.all(dab <= math.pi + 1e-12)


# ---------------------------------------------------------------- sign filter


def test_sign_filter_exact_cases():
    q = random_unit_quats(50, seed=31)
    # new measurement is the negation of the last: flip it back
    assert np.array_equal(spatial.quat_sign_filter(-q, q), q)
    # new measurement agrees with the last: pass through
    assert np.array_equal(spatial.quat_sign_filter(q, q), q)


def test_sign_filter_threshold():
    q_last = spatial.quat_from_axis_angle([0.0, 0.0, 1.0], 0.3)
    # perturb the negated quaternion by a small rotation: distance to -q_new
    # below 0.2 means the filter must flip the sign back
    q_new = -spatial.quat_mul(spatial.quat_from_axis_angle([1.0, 0.0, 0.0], 0.1), q_last)
    assert np.linalg.norm(q_last - (-q_new)) < 0.2
    assert np.allclose(spatial.quat_sign_filter(q_new, q_last), -q_new)
    # a measurement far from both signs passes through unchanged
    q_far = spatial.quat_from_axis_angle([1.0, 0.0, 0.0], 2.0)
    assert np.linalg.norm(q_last + q_far) >= 0.2
    assert np.array_equal(spatial.quat_sign_filter(q_far, q_last), q_far)


# ---------------------------------------------------------------- quat utils


def test_quat_mul_matches_matrix_product():
    a = random_unit_quats(100, seed=37)
    b = random_unit_quats(100, seed=41)
    ab = spatial.quat_mul(a, b)
    want = rot_mat(a) @ rot_mat(b)
    got = rot_mat(ab)
    assert np.max(np.abs(got - want)) < 1e-12


def test_quat_rotate_matches_matrix():
    q = random_unit_quats(100, seed=43)
    v = rng.normal(rng.stream_key(43, np.arange(100), 6, 98), 3)
    got = rotate(q, v)
    want = np.einsum("nij,nj->ni", rot_mat(q), v)
    assert np.max(np.abs(got - want)) < 1e-12


def cross_formula_rotate(q, v):
    """quat_rotate_parts as it was written on ``np.cross``."""
    t = 2.0 * np.cross(q[..., :3], v)
    return v + q[..., 3:4] * t + np.cross(q[..., :3], t)


def test_quat_rotate_keeps_the_cross_formula_bits():
    q = random_unit_quats(257, seed=53)
    q[::7, :2] = 0.0
    q[1::7, 2] = -0.0
    v = rng.normal(rng.stream_key(53, np.arange(257), 7, 98), 3)
    v[::5, 0] = -0.0
    pos = rng.normal(rng.stream_key(53, np.arange(257), 8, 98), 3)
    local = spatial.box_local_keypoints((0.03, 0.04, 0.05))
    for qq in (q, -q):
        pairs = [
            (rotate(qq, v), cross_formula_rotate(qq, v)),
            (rotate(qq[:, None, :], local), cross_formula_rotate(qq[:, None, :], local)),
            (spatial.transform_keypoints(pos, qq, local),
             cross_formula_rotate(spatial.quat_normalize(qq)[:, None, :], local) + pos[:, None, :]),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_quat_normalize():
    q = spatial.quat_normalize(np.array([3.0, 0.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert np.allclose(q, [0.6, 0.0, 0.0, 0.8])
    assert np.array_equal(spatial.quat_normalize(np.zeros(4)), spatial.QUAT_IDENTITY)


def test_quat_from_rotvec_small_angle():
    rv = np.array([1e-12, 0.0, 0.0])
    q = spatial.quat_from_rotvec(rv)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert abs(q[0] - 5e-13) < 1e-15


def test_quat_integrate_constant_rate():
    # integrating omega = (0,0,w) for t seconds equals axis-angle w*t about z
    q = spatial.QUAT_IDENTITY.copy()
    omega = np.array([0.0, 0.0, 1.5])
    for _ in range(100):
        q = np.array(spatial.quat_integrate_parts(tuple(q), tuple(omega), 0.01))
    want = spatial.quat_from_axis_angle([0.0, 0.0, 1.0], 1.5)
    assert spatial.rot_dist(q, want) < 1e-9


def test_shoemake_uniformity_chi_square():
    # the density of rot_dist(q, identity) on uniform SO(3) is (1/pi) * 2 sin^2(t/2)
    n = 100_000
    q = random_unit_quats(n, seed=47)
    theta = spatial.rot_dist(q, np.broadcast_to(spatial.QUAT_IDENTITY, (n, 4)))
    bins = np.linspace(0.0, math.pi, 21)
    counts, _ = np.histogram(theta, bins=bins)
    # expected mass per bin from the analytic density
    cdf = (bins - np.sin(bins)) / math.pi
    expected = np.diff(cdf) * n
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # 20 bins -> 19 dof; 99.9% quantile is ~43.8
    assert chi2 < 43.8
