import numpy as np

from tricube.reach import ReachConfig, ReachTask
from tricube.spatial import logistic_kernel


def test_obs_shape_and_reset():
    t = ReachTask(8, seed=0)
    obs = t.reset_all()
    assert obs["actor"].shape == (8, 12)
    assert np.array_equal(obs["actor"], obs["critic"])
    # cos/sin encoding is bounded
    assert np.all(np.abs(obs["actor"][:, :4]) <= 1.0)


def test_targets_reachable():
    t = ReachTask(2000, seed=1)
    t.reset_all()
    r = np.linalg.norm(t.target, axis=-1)
    c = t.cfg
    assert r.min() >= c.target_radius_min - 1e-12
    assert r.max() <= c.target_radius_max + 1e-12
    assert r.max() < c.link1_len + c.link2_len  # inside the arm's reach


def test_reward_is_kernel_of_distance():
    t = ReachTask(4, seed=2)
    t.reset_all()
    obs, rew, done, info = t.step(np.zeros((4, 2)))
    want = logistic_kernel(info["dist"], t.cfg.kernel)
    assert np.array_equal(rew, want)
    assert rew.max() <= 0.25


def test_oracle_return_definition():
    cfg = ReachConfig()
    assert cfg.oracle_return == cfg.episode_length * 0.25


def test_episode_rollover_and_records():
    cfg = ReachConfig(episode_length=10)
    t = ReachTask(4, seed=3, cfg=cfg)
    t.reset_all()
    for i in range(10):
        obs, rew, done, _ = t.step(np.full((4, 2), 0.5))
    assert done.all()
    recs = t.drain_episode_records()
    assert len(recs) == 4
    assert np.all(t.episode_step == 0)
    targets_before = t.target.copy()
    for i in range(10):
        t.step(np.full((4, 2), 0.5))
    assert not np.array_equal(t.target, targets_before)  # new episode, new target


def test_determinism_and_state_dict():
    cfg = ReachConfig(episode_length=25)
    a = ReachTask(8, seed=5, cfg=cfg)
    b = ReachTask(8, seed=5, cfg=cfg)
    oa, ob = a.reset_all(), b.reset_all()
    assert np.array_equal(oa["actor"], ob["actor"])
    acts = np.linspace(-1, 1, 16).reshape(8, 2)
    for _ in range(20):
        oa, ra, _, _ = a.step(acts)
        ob, rb, _, _ = b.step(acts)
    assert np.array_equal(oa["actor"], ob["actor"])
    assert np.array_equal(ra, rb)

    # the snapshot is a copy: stepping ``a`` past an episode end leaves it
    snap = {k: v.copy() for k, v in a._arrays().items()}
    kept = {k: v.tobytes() for k, v in snap.items()}
    cont = [a.step(acts) for _ in range(10)]
    assert any(done.any() for _, _, done, _ in cont)
    c = ReachTask(8, seed=5, cfg=cfg)
    c.reset_all()
    c.load_state_dict(snap)
    assert {k: v.tobytes() for k, v in c._arrays().items()} == kept
    for oa2, ra2, da2, _ in cont:
        oc2, rc2, dc2, _ = c.step(acts)
        assert np.array_equal(oa2["actor"], oc2["actor"])
        assert np.array_equal(ra2, rc2) and np.array_equal(da2, dc2)


def test_nan_actions_treated_as_zero():
    t = ReachTask(2, seed=6)
    t.reset_all()
    bad = np.array([[np.nan, 0.2], [0.1, np.inf]])
    obs, rew, _, _ = t.step(bad)
    assert np.all(np.isfinite(obs["actor"]))
    assert np.all(np.isfinite(rew))
