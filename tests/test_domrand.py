import numpy as np
import pytest

from tricube import domrand, rng, spatial
from tricube.domrand import DRConfig, NoiseSpec


N_DRAWS = 100_000


def test_disabled_is_nominal():
    cfg = DRConfig(enabled=False)
    params = domrand.sample_episode_randomization(0, np.arange(16), np.zeros(16, dtype=np.int64), cfg)
    assert np.all(params.scale == 1.0)
    assert np.all(params.mass_factor == 1.0)
    assert np.all(params.joint_pos_offset == 0.0)
    assert np.all(params.cube_rot_offset == 0.0)


def test_scaling_factor_ranges_and_means():
    cfg = DRConfig()
    env_ids = np.arange(N_DRAWS)
    params = domrand.sample_episode_randomization(3, env_ids, np.zeros(N_DRAWS, dtype=np.int64), cfg)
    for name, (lo, hi) in [
        ("scale", (0.97, 1.03)),
        ("mass_factor", (0.70, 1.30)),
        ("object_friction_factor", (0.70, 1.30)),
        ("table_friction_factor", (0.50, 1.50)),
    ]:
        vals = getattr(params, name)
        assert vals.min() >= lo and vals.max() <= hi
        mid = 0.5 * (lo + hi)
        assert abs(vals.mean() - mid) < 0.05 * mid
        # draws actually fill the range
        assert vals.min() < lo + 0.01 * (hi - lo) and vals.max() > hi - 0.01 * (hi - lo)


def test_correlated_offset_stds():
    cfg = DRConfig()
    env_ids = np.arange(N_DRAWS)
    params = domrand.sample_episode_randomization(5, env_ids, np.zeros(N_DRAWS, dtype=np.int64), cfg)
    assert abs(params.joint_pos_offset.std() - 0.004) < 0.05 * 0.004
    assert abs(params.joint_vel_offset.std() - 0.004) < 0.05 * 0.004
    assert abs(params.torque_offset.std() - 0.01) < 0.05 * 0.01
    # cube pose correlated noise is zero in the reference profile
    assert np.all(params.cube_pos_offset == 0.0)
    assert np.all(params.cube_rot_offset == 0.0)


def test_offsets_constant_within_episode_and_fresh_across():
    cfg = DRConfig()
    ids = np.arange(64)
    ep0 = domrand.sample_episode_randomization(1, ids, np.zeros(64, dtype=np.int64), cfg)
    ep0_again = domrand.sample_episode_randomization(1, ids, np.zeros(64, dtype=np.int64), cfg)
    ep1 = domrand.sample_episode_randomization(1, ids, np.ones(64, dtype=np.int64), cfg)
    assert np.array_equal(ep0.joint_pos_offset, ep0_again.joint_pos_offset)
    assert not np.array_equal(ep0.joint_pos_offset, ep1.joint_pos_offset)
    # independence across episodes: correlation near zero
    c = np.corrcoef(ep0.joint_pos_offset.ravel(), ep1.joint_pos_offset.ravel())[0, 1]
    assert abs(c) < 0.1


def test_observation_noise_residual_std():
    spec = NoiseSpec(0.002, 0.0, -0.30, 0.30)
    truth = np.full((N_DRAWS, 3), 0.05)
    key = rng.stream_key(7, np.arange(N_DRAWS), 0, rng.CH_OBS_NOISE)
    noised = domrand.apply_observation_noise(truth, spec, 0.0, key)
    resid = noised - truth
    assert abs(resid.std() - 0.002) < 0.05 * 0.002
    assert abs(resid.mean()) < 1e-4


def test_observation_noise_clamps():
    spec = NoiseSpec(0.01, 0.0, -0.30, 0.30)
    truth = np.full((1000, 3), 0.299)
    key = rng.stream_key(8, np.arange(1000), 0, rng.CH_OBS_NOISE)
    noised = domrand.apply_observation_noise(truth, spec, 0.0, key)
    assert noised.max() <= 0.30


def test_zero_sigma_is_identity():
    spec = NoiseSpec(0.0, 0.0, -0.30, 0.30)
    truth = np.random.default_rng(0).uniform(-0.2, 0.2, size=(100, 3))
    key = rng.stream_key(9, np.arange(100), 0, rng.CH_OBS_NOISE)
    assert np.allclose(domrand.apply_observation_noise(truth, spec, 0.0, key), truth)
    tq = np.random.default_rng(1).uniform(-0.3, 0.3, size=(100, 9))
    spec_t = NoiseSpec(0.0, 0.0, -0.36, 0.36)
    assert np.allclose(domrand.apply_action_noise(tq, spec_t, 0.0, key), tq)


def test_orientation_noise_angle_std():
    spec = NoiseSpec(0.020, 0.0, -1.0, 1.0)
    n = N_DRAWS
    q_true = np.tile(spatial.QUAT_IDENTITY, (n, 1))
    key = rng.stream_key(11, np.arange(n), 0, rng.CH_OBS_NOISE)
    q_noised = domrand.apply_orientation_noise(q_true, spec, np.zeros((n, 3)), key)
    angles = spatial.rot_dist(q_noised, q_true)
    # rot_dist is |angle|; the rms recovers sigma
    sigma_hat = np.sqrt(np.mean(angles**2))
    assert abs(sigma_hat - 0.020) < 0.05 * 0.020
    assert np.all(np.abs(np.linalg.norm(q_noised, axis=-1) - 1.0) < 1e-9)


def test_orientation_noise_keeps_keypoints_rigid():
    # noise perturbs the pose, not the keypoints: edge lengths are preserved
    spec = NoiseSpec(0.020, 0.0, -1.0, 1.0)
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q_true = spatial.quat_from_axis_angle([0.0, 1.0, 0.0], 0.7)
    key = rng.stream_key(12, np.arange(200), 0, rng.CH_OBS_NOISE)
    qn = domrand.apply_orientation_noise(np.tile(q_true, (200, 1)), spec, np.zeros((200, 3)), key)
    kps = spatial.transform_keypoints(np.zeros((200, 3)), qn, local)
    for i, j in [(0, 1), (0, 2), (0, 4), (3, 7)]:
        d = np.linalg.norm(kps[:, i] - kps[:, j], axis=-1)
        assert np.max(np.abs(d - 0.065)) < 1e-9


def test_action_noise_total_std_across_episodes():
    # fresh episodes each draw: total variance is sigma^2 + sigma_corr^2
    cfg = DRConfig()
    n = N_DRAWS
    ids = np.arange(n)
    params = domrand.sample_episode_randomization(13, ids, np.zeros(n, dtype=np.int64), cfg)
    truth = np.zeros((n, 9))
    key = rng.stream_key(13, ids, 0, rng.CH_ACT_NOISE)
    noised = domrand.apply_action_noise(truth, cfg.torque, params.torque_offset, key)
    want = np.sqrt(0.02**2 + 0.01**2)
    assert abs(noised.std() - want) < 0.05 * want


def test_action_noise_clamps_at_limit():
    spec = NoiseSpec(0.02, 0.01, -0.36, 0.36)
    torques = np.full((1000, 9), 0.36)
    key = rng.stream_key(14, np.arange(1000), 0, rng.CH_ACT_NOISE)
    noised = domrand.apply_action_noise(torques, spec, 0.0, key)
    assert noised.max() <= 0.36


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, 0.0, 1.0, -1.0)
