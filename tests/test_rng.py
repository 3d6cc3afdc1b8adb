import numpy as np

from tricube import rng


def test_same_key_same_draws():
    k1 = rng.stream_key(7, 3, 100, rng.CH_OBS_NOISE)
    k2 = rng.stream_key(7, 3, 100, rng.CH_OBS_NOISE)
    assert np.array_equal(rng.uniform(k1, 16), rng.uniform(k2, 16))
    assert np.array_equal(rng.normal(k1, 9), rng.normal(k2, 9))


def test_different_words_different_draws():
    base = rng.uniform(rng.stream_key(7, 3, 100, rng.CH_OBS_NOISE), 8)
    for words in [(8, 3, 100, rng.CH_OBS_NOISE), (7, 4, 100, rng.CH_OBS_NOISE),
                  (7, 3, 101, rng.CH_OBS_NOISE), (7, 3, 100, rng.CH_ACT_NOISE)]:
        assert not np.array_equal(base, rng.uniform(rng.stream_key(*words), 8))


def test_batched_keys_match_individual_keys():
    # Drawing for a whole batch of envs must equal drawing per env: this is
    # the property that makes batch partitioning free.
    env_ids = np.arange(64)
    batch = rng.normal(rng.stream_key(42, env_ids, 5, rng.CH_ACT_NOISE), 9)
    for i in [0, 1, 17, 63]:
        solo = rng.normal(rng.stream_key(42, i, 5, rng.CH_ACT_NOISE), 9)
        assert np.array_equal(batch[i], solo)


def test_uniform_range_and_moments():
    u = rng.uniform(rng.stream_key(0, np.arange(2000), 0, 1), 50, low=-2.0, high=3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.std() - np.sqrt(25.0 / 12.0)) < 0.02


def test_normal_moments():
    z = rng.normal(rng.stream_key(1, np.arange(2000), 0, 2), 50)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # tails exist but are sane
    assert np.abs(z).max() < 7.0


def test_normal_odd_count():
    z = rng.normal(rng.stream_key(3, 4), 7)
    assert z.shape == (7,)
    # first draws of a longer request are the same stream prefix for uniforms
    u7 = rng.uniform(rng.stream_key(3, 4), 7)
    u9 = rng.uniform(rng.stream_key(3, 4), 9)
    assert np.array_equal(u7, u9[:7])


def test_permutation_is_permutation():
    p = rng.permutation(rng.stream_key(9, 0, 3, rng.CH_MINIBATCH_SHUFFLE), 1000)
    assert np.array_equal(np.sort(p), np.arange(1000))
    p2 = rng.permutation(rng.stream_key(9, 0, 4, rng.CH_MINIBATCH_SHUFFLE), 1000)
    assert not np.array_equal(p, p2)


def test_channel_constants_unique():
    channels = [v for k, v in vars(rng).items() if k.startswith("CH_")]
    assert len(channels) == len(set(channels))


def test_per_step_channels_are_decorrelated():
    # observation-noise and action-noise streams at the same (seed, env, step)
    # must not share draws
    n = 1000
    for ch_a, ch_b in [
        (rng.CH_ACT_NOISE, rng.CH_OBS_NOISE_JOINT_POS),
        (rng.CH_EXT_FORCE, rng.CH_OBS_NOISE_JOINT_VEL),
        (rng.CH_OBS_NOISE, rng.CH_OBS_NOISE_CUBE_ROT),
    ]:
        a = rng.normal(rng.stream_key(0, np.arange(n), 5, ch_a), 9)
        b = rng.normal(rng.stream_key(0, np.arange(n), 5, ch_b), 9)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.05
