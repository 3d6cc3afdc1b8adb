import math
import tracemalloc

import numpy as np
import pytest

from tricube import nets
from tricube import ppo as ppo_mod
from tricube import rng
from tricube.nets import MLP, Adam, elu, elu_grad
from tricube.ppo import PPOAgent, PPOConfig, gae, lr_schedule


def f64_agent(actor_dim=5, critic_dim=7, action_dim=2, **cfg_kw):
    defaults = dict(policy_hidden=(8, 8), value_hidden=(8,), batch_size=64, minibatch_size=32)
    defaults.update(cfg_kw)
    return PPOAgent(actor_dim, critic_dim, action_dim, PPOConfig(**defaults), seed=1, dtype=np.float64)


# -------------------------------------------------------------- lr schedule


def test_lr_schedule_endpoints_and_midpoint():
    cfg = PPOConfig()
    assert lr_schedule(0, 1000, cfg) == 5e-4
    assert lr_schedule(1000, 1000, cfg) == 1e-6
    assert abs(lr_schedule(500, 1000, cfg) - 0.5 * (5e-4 + 1e-6)) < 1e-18
    assert lr_schedule(2000, 1000, cfg) == 1e-6  # clamped past the end


# ----------------------------------------------------------------- GAE


def gae_brute_force(rewards, values, dones, bootstrap, gamma, tau):
    """Independent oracle: per (t, env), walk forward summing (gamma*tau)^l
    one-step TD errors until the episode ends."""
    t_len, n = rewards.shape
    adv = np.zeros((t_len, n))
    for i in range(n):
        for t in range(t_len):
            acc = 0.0
            coef = 1.0
            for l in range(t, t_len):
                v_next = bootstrap[i] if l == t_len - 1 else values[l + 1, i]
                delta = rewards[l, i] + gamma * v_next * (0.0 if dones[l, i] else 1.0) - values[l, i]
                acc += coef * delta
                if dones[l, i]:
                    break
                coef *= gamma * tau
            adv[t, i] = acc
    return adv


def test_gae_tau_one_is_discounted_return_minus_value():
    t_len, n = 20, 4
    r = rng.normal(rng.stream_key(1, np.arange(n), 0, 70), t_len).T
    v = rng.normal(rng.stream_key(2, np.arange(n), 0, 70), t_len).T
    boot = rng.normal(rng.stream_key(3, np.arange(n), 0, 70), 1)[:, 0]
    dones = np.zeros((t_len, n), dtype=bool)
    adv, ret = gae(r, v, dones, boot, gamma=0.99, tau=1.0)
    for i in range(n):
        for t in range(t_len):
            disc = sum(0.99 ** (l - t) * r[l, i] for l in range(t, t_len))
            disc += 0.99 ** (t_len - t) * boot[i]
            assert abs(adv[t, i] - (disc - v[t, i])) < 1e-10


def test_gae_zero_rewards_zero_values():
    adv, ret = gae(
        np.zeros((10, 3)), np.zeros((10, 3)), np.zeros((10, 3), dtype=bool),
        np.zeros(3), 0.99, 0.95,
    )
    assert np.all(adv == 0.0) and np.all(ret == 0.0)


def test_gae_single_terminal_transition():
    r = np.array([[1.0]])
    v = np.array([[0.5]])
    d = np.array([[True]])
    adv, ret = gae(r, v, d, np.array([123.0]), 0.99, 0.95)
    assert abs(adv[0, 0] - 0.5) < 1e-15  # 1 - 0.5, bootstrap masked by done
    assert abs(ret[0, 0] - 1.0) < 1e-15


def test_gae_matches_brute_force_with_random_dones():
    t_len, n = 30, 40
    r = rng.normal(rng.stream_key(4, np.arange(n), 0, 70), t_len).T
    v = rng.normal(rng.stream_key(5, np.arange(n), 0, 70), t_len).T
    d = rng.uniform(rng.stream_key(6, np.arange(n), 0, 70), t_len).T < 0.15
    boot = rng.normal(rng.stream_key(7, np.arange(n), 0, 70), 1)[:, 0]
    adv, ret = gae(r, v, d, boot, 0.99, 0.95)
    want = gae_brute_force(r, v, d, boot, 0.99, 0.95)
    assert np.max(np.abs(adv - want)) < 1e-10
    assert np.max(np.abs(ret - (want + v))) < 1e-12


def test_gae_shape_mismatch_raises():
    with pytest.raises(ValueError):
        gae(np.zeros((5, 2)), np.zeros((4, 2)), np.zeros((5, 2), dtype=bool), np.zeros(2), 0.99, 0.95)


# ----------------------------------------------------------------- act()


def test_act_zero_weights_gives_zero_mean():
    agent = f64_agent()
    for w in agent.policy.trunk.weights:
        w[:] = 0.0
    for b in agent.policy.trunk.biases:
        b[:] = 0.0
    obs = np.ones((6, 5))
    act, _ = agent.policy.act(obs, stochastic=False)
    assert np.all(act == 0.0)


def test_act_reproducible_and_bounded():
    agent = f64_agent()
    obs = rng.normal(rng.stream_key(8, np.arange(16), 0, 71), 5)
    key = rng.stream_key(9, np.arange(16), 3, rng.CH_POLICY_SAMPLE)
    a1, lp1 = agent.policy.act(obs, stochastic=True, key=key)
    a2, lp2 = agent.policy.act(obs, stochastic=True, key=key)
    assert np.array_equal(a1, a2) and np.array_equal(lp1, lp2)
    assert np.all(np.abs(a1) <= 1.0)
    a3, _ = agent.policy.act(obs, stochastic=True, key=rng.stream_key(9, np.arange(16), 4, rng.CH_POLICY_SAMPLE))
    assert not np.array_equal(a1, a3)


def test_act_logp_matches_closed_form_density():
    agent = f64_agent()
    obs = rng.normal(rng.stream_key(10, np.arange(32), 0, 71), 5)
    key = rng.stream_key(11, np.arange(32), 0, rng.CH_POLICY_SAMPLE)
    act, logp = agent.policy.act(obs, stochastic=True, key=key)
    mean = agent.policy.trunk(obs)
    sigma = np.exp(np.clip(agent.policy.log_std, -5, 2))
    want = (
        -0.5 * np.sum(((act - mean) / sigma) ** 2, axis=-1)
        - np.sum(np.log(sigma))
        - 0.5 * act.shape[-1] * math.log(2 * math.pi)
    )
    assert np.max(np.abs(logp - want)) < 1e-10


def test_act_dimension_mismatch_raises():
    agent = f64_agent()
    with pytest.raises(ValueError):
        agent.policy.act(np.zeros((4, 6)), stochastic=False)


# ------------------------------------------------------------ gradient check


def finite_diff_grads(loss_fn, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_fn()
            p[idx] = orig - h
            lm = loss_fn()
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def test_policy_gradient_matches_finite_differences():
    agent = f64_agent(entropy_coef=0.01)
    b = 16
    obs = rng.normal(rng.stream_key(12, np.arange(b), 0, 72), 5)
    key = rng.stream_key(13, np.arange(b), 0, rng.CH_POLICY_SAMPLE)
    actions, logp_old = agent.policy.act(obs, stochastic=True, key=key)
    # make ratios leave 1 so the clip logic is exercised
    logp_old = logp_old + rng.normal(rng.stream_key(14, np.arange(b), 0, 72), 1)[:, 0] * 0.3
    adv = rng.normal(rng.stream_key(15, np.arange(b), 0, 72), 1)[:, 0]

    loss, grads, _ = agent.policy_loss_and_grads(obs, actions, logp_old, adv)
    params = agent.policy.parameters()

    def loss_only():
        l, _, _ = agent.policy_loss_and_grads(obs, actions, logp_old, adv)
        return l

    fd = finite_diff_grads(loss_only, params)
    for g, f in zip(grads, fd):
        assert rel_err(np.asarray(g, dtype=np.float64), f) < 1e-4


def test_value_gradient_matches_finite_differences():
    agent = f64_agent()
    b = 16
    obs = rng.normal(rng.stream_key(16, np.arange(b), 0, 72), 7)
    rets = rng.normal(rng.stream_key(17, np.arange(b), 0, 72), 1)[:, 0]
    loss, grads = agent.value_loss_and_grads(obs, rets)
    params = agent.value.parameters()

    def loss_only():
        l, _ = agent.value_loss_and_grads(obs, rets)
        return l

    fd = finite_diff_grads(loss_only, params)
    for g, f in zip(grads, fd):
        assert rel_err(np.asarray(g, dtype=np.float64), f) < 1e-4


def test_ratio_one_equals_vanilla_policy_gradient():
    agent = f64_agent()
    b = 32
    obs = rng.normal(rng.stream_key(18, np.arange(b), 0, 73), 5)
    key = rng.stream_key(19, np.arange(b), 0, rng.CH_POLICY_SAMPLE)
    actions, logp_old = agent.policy.act(obs, stochastic=True, key=key)  # replay: ratio = 1
    adv = rng.normal(rng.stream_key(20, np.arange(b), 0, 73), 1)[:, 0]
    _, grads, stats = agent.policy_loss_and_grads(obs, actions, logp_old, adv)
    assert stats["clip_fraction"] == 0.0

    # vanilla policy gradient of -mean(logp * A), computed independently
    mean, cache = agent.policy.trunk.forward(obs)
    sigma = np.exp(np.clip(agent.policy.log_std, -5, 2))
    dmean = (-adv / b)[:, None] * (actions - mean) / sigma**2
    want = agent.policy.trunk.backward(cache, dmean)
    for g, w in zip(grads[:-1], want):
        assert np.max(np.abs(g - w)) < 1e-12


def test_zero_advantages_leave_policy_unchanged():
    agent = f64_agent()
    cfg = agent.cfg
    b = cfg.batch_size
    obs = rng.normal(rng.stream_key(21, np.arange(b), 0, 74), 5)
    cobs = rng.normal(rng.stream_key(22, np.arange(b), 0, 74), 7)
    key = rng.stream_key(23, np.arange(b), 0, rng.CH_POLICY_SAMPLE)
    actions, logp = agent.policy.act(obs, stochastic=True, key=key)
    before = [p.copy() for p in agent.policy.parameters()]
    batch = {
        "actor_obs": obs, "critic_obs": cobs, "actions": actions, "logp": logp,
        "advantages": np.zeros(b), "returns": rng.normal(rng.stream_key(24, np.arange(b), 0, 74), 1)[:, 0],
    }
    agent.update(batch, lr=1e-3)
    for p, p0 in zip(agent.policy.parameters(), before):
        assert np.array_equal(p, p0)  # separate networks: exactly unchanged


def test_bandit_closed_form_gradient():
    # 1-D Gaussian policy, loss written out by hand
    agent = PPOAgent(1, 1, 1, PPOConfig(policy_hidden=(), value_hidden=(),
                                        batch_size=8, minibatch_size=8), seed=3, dtype=np.float64)
    w_val, b_val, ls_val = 0.5, 0.1, 0.0
    agent.policy.trunk.weights[0][:] = w_val
    agent.policy.trunk.biases[0][:] = b_val
    agent.policy.log_std[:] = ls_val

    x = np.array([[-1.0], [-0.4], [0.2], [0.9]])
    a = np.array([[0.3], [-0.8], [0.5], [-0.1]])
    logp_old = np.array([-1.1, -0.9, -1.4, -0.7])
    adv = np.array([1.0, -2.0, 0.5, 1.5])
    eps = agent.cfg.clip_eps

    mu = w_val * x[:, 0] + b_val
    sigma = math.exp(ls_val)
    logp = -0.5 * ((a[:, 0] - mu) / sigma) ** 2 - ls_val - 0.5 * math.log(2 * math.pi)
    r = np.exp(logp - logp_old)
    use = r * adv <= np.clip(r, 1 - eps, 1 + eps) * adv
    dlogp = np.where(use, -adv / 4.0, 0.0) * r
    diff = (a[:, 0] - mu) / sigma**2
    dw_want = np.sum(dlogp * diff * x[:, 0])
    db_want = np.sum(dlogp * diff)
    dls_want = np.sum(dlogp * (diff * (a[:, 0] - mu) - 1.0))

    _, grads, _ = agent.policy_loss_and_grads(x, a, logp_old, adv)
    assert abs(grads[0][0, 0] - dw_want) < 1e-6
    assert abs(grads[1][0] - db_want) < 1e-6
    assert abs(grads[2][0] - dls_want) < 1e-6


def test_value_regression_monotone_decrease():
    agent = f64_agent()
    n = 256
    obs = rng.normal(rng.stream_key(25, np.arange(n), 0, 75), 7)
    target = np.sin(obs.sum(axis=-1))
    losses = []
    for _ in range(10):
        loss, grads = agent.value_loss_and_grads(obs, target)
        agent.opt_value.step(agent.value.parameters(), grads, 1e-3)
        losses.append(loss)
    assert all(losses[i + 1] < losses[i] for i in range(9))


def test_update_rejects_bad_minibatch():
    with pytest.raises(ValueError):
        PPOConfig(batch_size=100, minibatch_size=64)
    agent = f64_agent()
    with pytest.raises(ValueError):
        agent.update(
            {
                "actor_obs": np.zeros((48, 5)), "critic_obs": np.zeros((48, 7)),
                "actions": np.zeros((48, 2)), "logp": np.zeros(48),
                "advantages": np.zeros(48), "returns": np.zeros(48),
            },
            lr=1e-3,
        )


def test_update_aborts_on_nonfinite_loss(tmp_path):
    agent = f64_agent(batch_size=32, minibatch_size=32)
    agent.dump_dir = str(tmp_path)
    b = 32
    obs = rng.normal(rng.stream_key(26, np.arange(b), 0, 76), 5)
    batch = {
        "actor_obs": obs, "critic_obs": rng.normal(rng.stream_key(27, np.arange(b), 0, 76), 7),
        "actions": np.zeros((b, 2)), "logp": np.full(b, -1e300),  # ratio overflows
        "advantages": np.ones(b), "returns": np.zeros(b),
    }
    with pytest.raises(FloatingPointError):
        agent.update(batch, lr=1e-3)
    assert (tmp_path / "ppo_batch_dump.npz").exists()


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_identical_actions(tmp_path):
    agent = f64_agent()
    # move the optimizer state off zero so its round trip is covered
    obs = rng.normal(rng.stream_key(28, np.arange(16), 0, 77), 5)
    cobs = rng.normal(rng.stream_key(29, np.arange(16), 0, 77), 7)
    key = rng.stream_key(30, np.arange(16), 0, rng.CH_POLICY_SAMPLE)
    actions, logp = agent.policy.act(obs, stochastic=True, key=key)
    _, grads, _ = agent.policy_loss_and_grads(obs, actions, logp, np.ones(16))
    agent.opt_policy.step(agent.policy.parameters(), grads, 1e-4)

    path = str(tmp_path / "agent.tckpt")
    agent.global_step = 12345
    agent.iteration = 7
    agent.save(path)
    loaded, tensors, meta = PPOAgent.from_checkpoint(path, dtype=np.float64)
    assert meta["global_step"] == 12345 and loaded.iteration == 7
    fixed = rng.normal(rng.stream_key(31, np.arange(64), 0, 77), 5)
    a0, _ = agent.policy.act(fixed, stochastic=False)
    a1, _ = loaded.policy.act(fixed, stochastic=False)
    assert np.array_equal(a0, a1)
    v0 = agent.value(rng.normal(rng.stream_key(32, np.arange(8), 0, 77), 7))
    v1 = loaded.value(rng.normal(rng.stream_key(32, np.arange(8), 0, 77), 7))
    assert np.array_equal(v0, v1)
    # optimizer moments survived
    assert loaded.opt_policy.t == agent.opt_policy.t
    assert np.array_equal(loaded.opt_policy.m[0], agent.opt_policy.m[0])


def test_checkpoint_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bogus.tckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(ValueError):
        ppo_mod.read_checkpoint(str(p))


def test_checkpoint_tensors_are_little_endian_f32(tmp_path):
    agent = PPOAgent(5, 7, 2, PPOConfig(policy_hidden=(8,), value_hidden=(8,),
                                        batch_size=64, minibatch_size=64), seed=1)
    path = str(tmp_path / "a.tckpt")
    agent.save(path)
    tensors, meta = ppo_mod.read_checkpoint(path)
    assert tensors["policy.p0"].dtype == np.float32
    assert meta["policy_layer_sizes"] == [5, 8, 2]
    # manifest-described layout: re-read a tensor by hand from raw bytes
    import json as json_mod
    raw = open(path, "rb").read()
    mlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    manifest = json_mod.loads(raw[16 : 16 + mlen])
    entry = next(e for e in manifest["tensors"] if e["name"] == "policy.p0")
    start = 16 + mlen + entry["offset"]
    by_hand = np.frombuffer(raw[start : start + entry["nbytes"]], dtype=entry["dtype"]).reshape(entry["shape"])
    assert np.array_equal(by_hand, tensors["policy.p0"])


def test_truncated_checkpoint_names_tensor_and_sizes(tmp_path):
    agent = f64_agent()
    path = tmp_path / "a.tckpt"
    agent.save(str(path))
    raw = path.read_bytes()
    mlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    path.write_bytes(raw[:-3])  # cut inside the last tensor, off its element size
    import json as json_mod
    last = json_mod.loads(raw[16 : 16 + mlen])["tensors"][-1]
    payload = len(raw) - 16 - mlen - 3
    with pytest.raises(ValueError) as err:
        ppo_mod.read_checkpoint(str(path))
    msg = str(err.value)
    assert str(path) in msg and repr(last["name"]) in msg
    assert str(last["offset"] + last["nbytes"]) in msg and str(payload) in msg
    # cut inside the 16-byte header, then inside the JSON manifest; then
    # full-length files with a manifest byte that is not UTF-8 or not JSON
    for bad, what in ((raw[:12], "header ends after 12 bytes"),
                      (raw[:40], f"manifest holds 24 of its {mlen} bytes"),
                      (raw[:20] + b"\xff" + raw[21:], "unreadable checkpoint manifest"),
                      (raw[:16] + b"x" + raw[17:], "unreadable checkpoint manifest")):
        path.write_bytes(bad)
        with pytest.raises(ValueError) as err:
            ppo_mod.read_checkpoint(str(path))
        assert str(path) in str(err.value) and what in str(err.value)


# ------------------------------------------------------------ nets


def test_elu_grad_consistency():
    x = np.linspace(-3, 3, 101)
    y = elu(x)
    h = 1e-7
    fd = (elu(x + h) - elu(x - h)) / (2 * h)
    assert np.max(np.abs(elu_grad(y) - fd)) < 1e-6


class ReferenceMLP:
    """The textbook ELU MLP: ``np.where`` activation, ``(h, z, a)`` cache,
    gradient from the pre-activation, fresh temporaries everywhere."""

    def __init__(self, net: MLP):
        self.net = net

    def forward(self, x):
        net = self.net
        h = np.ascontiguousarray(x, dtype=net.dtype)
        cache = []
        for li in range(net.n_layers):
            z = h @ net.weights[li].T + net.biases[li]
            with np.errstate(over="ignore"):  # expm1 of large z is discarded by where
                a = np.where(z > 0.0, z, np.expm1(z)) if li < net.n_layers - 1 else z
            cache.append((h, z, a))
            h = a
        return h, cache

    def backward(self, cache, dout):
        net = self.net
        grads = [None] * (2 * net.n_layers)
        delta = np.ascontiguousarray(dout, dtype=net.dtype)
        for li in reversed(range(net.n_layers)):
            h, z, a = cache[li]
            if li < net.n_layers - 1:
                delta = delta * np.where(z > 0.0, 1.0, a + 1.0)
            grads[2 * li] = delta.T @ h
            grads[2 * li + 1] = delta.sum(axis=0)
            if li > 0:
                delta = delta @ net.weights[li]
        return grads


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_mlp_matches_reference(sizes, n_rows, dtype):
    net = MLP(sizes, seed_words=(9, 1), dtype=dtype)
    for li, b in enumerate(net.biases):
        b[:] = 0.1 * rng.normal(rng.stream_key(40, li, 0, 78), b.size)
    x = 3.0 * rng.normal(rng.stream_key(41, np.arange(n_rows), 0, 78), sizes[0])
    x[0] = 0.0  # exact zeros reach the first ELU as z == bias
    x[1, :3] = 0.0
    x[2] = -1e4  # large negatives saturate ELU at -1
    x[3, 3:] = -50.0
    x[-1] = -1e4  # and in the last row, the ragged block when run in blocks
    net.biases[0][:4] = 0.0  # and some z are exactly zero
    dout = rng.normal(rng.stream_key(42, np.arange(n_rows), 0, 78), sizes[-1])
    x_before, dout_before = x.copy(), dout.copy()
    dout_in = dout.astype(dtype)  # already contiguous in the net dtype: no copy on entry

    ref = ReferenceMLP(net)
    want_out, ref_cache = ref.forward(x)
    got_out, cache = net.forward(x)
    assert same_bytes(got_out, want_out)
    assert any(np.any(z == 0.0) for _, z, _ in ref_cache[:-1])
    assert any(np.any(a == -1.0) for _, _, a in ref_cache[:-1])
    for got, want in zip(net.backward(cache, dout_in), ref.backward(ref_cache, dout_in)):
        assert same_bytes(got, want)
    assert same_bytes(x, x_before)
    assert same_bytes(dout_in, dout_before.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_in_place_matches_reference_bytes(dtype):
    check_mlp_matches_reference([6, 16, 16, 3], 32, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_mlp_matches_reference_bytes(dtype, monkeypatch):
    # 7-row blocks of the 37-wide layer (16 rows of the 16-wide one): 50 rows
    # end in a ragged block, and neither width is a multiple of a SIMD width
    monkeypatch.setattr(nets, "BLOCK_BYTES", 7 * 37 * np.dtype(dtype).itemsize)
    assert nets._block_rows(np.empty((50, 37), dtype)) == 7
    check_mlp_matches_reference([6, 37, 16, 3], 50, dtype)


def test_elementwise_passes_allocate_at_most_a_block():
    """The blocked passes never make a full-batch temporary: on an 8 MiB
    activation the traced peak stays within two blocks."""
    h = rng.normal(rng.stream_key(48, np.arange(4096), 0, 78), 512).astype(np.float32)
    b = np.full(512, 0.1, dtype=np.float32)
    delta = np.ones_like(h)
    for run_pass in (lambda: nets.bias_elu_(h, b), lambda: nets.mul_elu_grad_(delta, h)):
        tracemalloc.start()
        try:
            run_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= 2 * nets.BLOCK_BYTES


@pytest.mark.parametrize("block_bytes", [nets.BLOCK_BYTES, 5 * 16 * 4], ids=["default", "5-row"])
def test_update_with_reference_mlp_gives_identical_parameters(block_bytes, monkeypatch):
    # 5-row: the 16-wide layers take the 32-row minibatches in ragged 5-row blocks
    monkeypatch.setattr(nets, "BLOCK_BYTES", block_bytes)

    def run(forward, backward):
        monkeypatch.setattr(MLP, "forward", forward)
        monkeypatch.setattr(MLP, "backward", backward)
        agent = PPOAgent(5, 7, 2, PPOConfig(policy_hidden=(16, 8), value_hidden=(16, 8),
                                            batch_size=64, minibatch_size=32), seed=4)
        b = 64
        obs = rng.normal(rng.stream_key(43, np.arange(b), 0, 79), 5)
        key = rng.stream_key(44, np.arange(b), 0, rng.CH_POLICY_SAMPLE)
        actions, logp = agent.act(obs, stochastic=True, key=key)
        batch = {
            "actor_obs": agent.prep_actor_obs(obs),
            "critic_obs": agent.prep_critic_obs(rng.normal(rng.stream_key(45, np.arange(b), 0, 79), 7)),
            "actions": actions, "logp": logp - 0.1,
            "advantages": rng.normal(rng.stream_key(46, np.arange(b), 0, 79), 1)[:, 0],
            "returns": rng.normal(rng.stream_key(47, np.arange(b), 0, 79), 1)[:, 0],
        }
        stats = agent.update(batch, lr=1e-3)
        return stats, agent.policy.parameters() + agent.value.parameters()

    got_stats, got = run(MLP.forward, MLP.backward)
    ref_stats, want = run(
        lambda self, x: ReferenceMLP(self).forward(x),
        lambda self, cache, dout: ReferenceMLP(self).backward(cache, dout),
    )
    assert got_stats == ref_stats
    assert all(same_bytes(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_value_head_backward_matches_reference_bytes(dtype):
    # a one-wide output makes the first delta product an outer product
    check_mlp_matches_reference([6, 16, 16, 1], 32, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_running_norm_gives_the_textbook_bytes_and_leaves_its_input(dtype):
    norm = nets.RunningNorm(7, clip=2.0)
    for i in range(3):
        x = (3.0 * rng.normal(rng.stream_key(49, np.arange(50), i, 78), 7) + 1.0).astype(dtype)
        x_before = x.copy()
        count, mean, m2 = norm.count, norm.mean.copy(), norm.m2.copy()
        norm.update(x)
        xd = np.asarray(x, dtype=np.float64)
        batch_mean = xd.mean(axis=0)
        delta = batch_mean - mean
        total = count + 50
        assert same_bytes(norm.mean, mean + delta * (50 / total))
        want_m2 = m2 + (((xd - batch_mean) ** 2).sum(axis=0) + delta * delta * (count * 50 / total))
        assert same_bytes(norm.m2, want_m2)
        z = norm.normalize(x)
        assert same_bytes(z, np.clip((x - norm.mean) / norm.std, -2.0, 2.0))
        assert np.any(np.abs(z) == 2.0)  # the clip bites
        assert same_bytes(x, x_before) and not np.shares_memory(z, x)


def test_mlp_init_is_deterministic_and_orthogonal():
    a = MLP([10, 32, 4], seed_words=(5, 1), dtype=np.float64)
    b = MLP([10, 32, 4], seed_words=(5, 1), dtype=np.float64)
    assert all(np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters()))
    c = MLP([10, 32, 4], seed_words=(6, 1), dtype=np.float64)
    assert not np.array_equal(a.weights[0], c.weights[0])
    w = a.weights[0] / np.sqrt(2.0)  # remove the gain; shape (32, 10)
    assert np.max(np.abs(w.T @ w - np.eye(10))) < 1e-12  # orthonormal columns
    w_out = a.weights[1]  # final layer (4, 32), gain 1
    assert np.max(np.abs(w_out @ w_out.T - np.eye(4))) < 1e-12


def test_adam_matches_reference_formula():
    p = np.array([1.0, 2.0])
    opt = Adam([p])
    g = np.array([0.1, -0.2])
    opt.step([p], [g], lr=0.01)
    # first step: m_hat = g, v_hat = g^2 -> update = lr * sign-ish
    want = np.array([1.0, 2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(p - want)) < 1e-9
