"""The 6-DoF cube reposing task.

Observation layouts (all offsets pinned by tests):

* actor, ``keypoints`` variant (75): joint positions (9), joint velocities
  (9), cube keypoints (24), goal keypoints (24), last commanded torque (9).
* actor, ``pos_quat`` variant (41): the two 24-wide keypoint blocks are
  replaced by 7-dim pose blocks (translation + xyzw quaternion).
* critic (147 / 113): the actor layout built from noise-free state, then
  object velocity (6), fingertip poses (21), fingertip velocities (18),
  fingertip contact wrenches (18), applied joint torques (9).

The actor sees the world through the camera model: the noised cube pose
refreshes every ``camera_repeat`` policy steps and is held in between,
while proprioception refreshes every step.  Pose noise is applied in the
world frame before any keypoint conversion.  The simulated tracker also
reports an arbitrary quaternion sign at each refresh; the ``pos_quat``
observation path runs the sign filter to stay temporally consistent, the
keypoint path does not need it.  The critic always reads the true
simulator state.

Reward is ``w_fo * reach * 1(step_count * batch_envs <= cutoff) + w_fv *
vel_penalty + w_og * goal_reward``: the cutoff counts the env steps of the
whole batch, every shard of it included, up to this one.  ``goal_reward``
is either the sum over the 8 corners of the logistic kernel of keypoint
distance, or the position-kernel-plus-inverse-angle form; components are
reported raw so the weighted sum reconstructs the total exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import domrand, physics, rng, spatial
from .domains import FINITE, FLAG, NON_NEGATIVE, POSITIVE, TRIPLE, Checked, leaf, list_of, one_of
from .domrand import DRConfig
from .physics import N_JOINTS, EnvParams, PhysicsConfig
from .spatial import KernelParams

OBS_VARIANTS = ("keypoints", "pos_quat")
SUCCESS_ROT_22_DEG = np.deg2rad(22.0)
# the camera sees the arena only: each coordinate of a noised cube position
# is clipped to this bound (m), a box around the table and every goal
CAMERA_POS_LIMIT = 0.30


@dataclass
class TaskConfig(Checked):
    episode_length: int = leaf(750, POSITIVE)  # 15 s at 50 Hz
    success_pos_threshold: float = leaf(0.02, POSITIVE)
    success_rot_threshold: float = leaf(float(SUCCESS_ROT_22_DEG), POSITIVE)
    w_fingertip_reach: float = leaf(-750.0, FINITE)
    w_fingertip_vel: float = leaf(-0.5, FINITE)
    w_object_goal: float = leaf(40.0, FINITE)
    kernel_keypoints: KernelParams = field(default_factory=lambda: KernelParams(a=30.0, b=2.0))
    kernel_pos: KernelParams = field(default_factory=lambda: KernelParams(a=50.0, b=2.0))
    reach_cutoff_steps: float = leaf(5e7, NON_NEGATIVE)  # env steps of the whole batch
    obs_variant: str = leaf("keypoints", one_of(*OBS_VARIANTS))
    reward_variant: str = leaf("keypoints", one_of(*OBS_VARIANTS))
    goal_radius: float = leaf(0.15, NON_NEGATIVE)
    goal_z_max: float = leaf(0.25, POSITIVE)
    goal_yaw_only: bool = leaf(False, FLAG)
    camera_repeat: int = leaf(5, POSITIVE)
    camera_sign_flips: bool = leaf(True, FLAG)
    spawn_disc_radius: float = leaf(0.03, NON_NEGATIVE)
    joint_reset_noise: float = leaf(0.02, NON_NEGATIVE)
    # observed/reward keypoints come from this box; None derives it from the
    # physics object.  Zero-shot transfer pins it to the training cube.
    keypoint_half_extents: tuple | None = leaf(None, list_of(POSITIVE, TRIPLE), kind=float)


def pose_block_width(variant: str) -> int:
    return 24 if variant == "keypoints" else 7


def actor_layout(variant: str) -> dict:
    """Block name -> (start, end) offsets of the actor observation."""
    w = pose_block_width(variant)
    blocks = {}
    off = 0
    for name, width in [
        ("joint_pos", N_JOINTS),
        ("joint_vel", N_JOINTS),
        ("cube_pose", w),
        ("goal_pose", w),
        ("last_action", N_JOINTS),
    ]:
        blocks[name] = (off, off + width)
        off += width
    return blocks


def actor_obs_dim(variant: str) -> int:
    return max(end for _, end in actor_layout(variant).values())


def critic_layout(variant: str) -> dict:
    base = actor_obs_dim(variant)
    blocks = {"actor": (0, base)}
    off = base
    for name, width in [
        ("cube_vel", 6),
        ("fingertip_pose", 21),
        ("fingertip_vel", 18),
        ("fingertip_wrench", 18),
        ("joint_torque", N_JOINTS),
    ]:
        blocks[name] = (off, off + width)
        off += width
    return blocks


def critic_obs_dim(variant: str) -> int:
    return max(end for _, end in critic_layout(variant).values())


# ------------------------------------------------------------------ pure ops


def process_action(
    raw_action: np.ndarray, joint_vel: np.ndarray, pcfg: PhysicsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Map policy outputs in [-1, 1] to commanded torques.

    Clip, scale to the torque range, apply velocity-proportional safety
    damping, which only shrinks a torque.  Non-finite actions become zero
    torque and flag the env.  Returns (torques (N, 9), fault (N,)).
    """
    raw = np.asarray(raw_action, dtype=np.float64)
    fault = ~np.isfinite(raw).all(axis=-1)
    raw = np.where(fault[..., None], 0.0, raw)
    tau = np.clip(raw, -1.0, 1.0) * pcfg.hand.max_torque
    damp = 1.0 - pcfg.safety_damping_coef * np.abs(joint_vel) / pcfg.hand.max_joint_vel
    return tau * np.maximum(damp, 0.0), fault


def fingertip_to_object(
    prev_tips: np.ndarray, prev_obj_pos: np.ndarray, tips: np.ndarray, obj_pos: np.ndarray
) -> np.ndarray:
    """Per-step change of summed fingertip-to-object-centroid distance;
    negative while the fingertips approach."""
    d_now = np.linalg.norm(tips - obj_pos[:, None, :], axis=-1).sum(axis=-1)
    d_prev = np.linalg.norm(prev_tips - prev_obj_pos[:, None, :], axis=-1).sum(axis=-1)
    return d_now - d_prev


def object_goal_reward(
    obj_pos: np.ndarray,
    obj_quat: np.ndarray,
    goal_pos: np.ndarray,
    goal_quat: np.ndarray,
    cfg: TaskConfig,
    local_keypoints: np.ndarray,
    goal_keypoints: np.ndarray | None = None,
    obj_keypoints: np.ndarray | None = None,
) -> np.ndarray:
    """Pose-tracking reward (unweighted), per-env.  ``goal_keypoints``, if
    given, is ``transform_keypoints(goal_pos, goal_quat, local_keypoints)``
    computed once per episode; ``obj_keypoints`` likewise of the object's
    pose, computed once per step."""
    if cfg.reward_variant == "keypoints":
        kp_cur = obj_keypoints
        if kp_cur is None:
            kp_cur = spatial.transform_keypoints(obj_pos, obj_quat, local_keypoints)
        kp_goal = goal_keypoints
        if kp_goal is None:
            kp_goal = spatial.transform_keypoints(goal_pos, goal_quat, local_keypoints)
        dist = np.linalg.norm(kp_cur - kp_goal, axis=-1)
        return spatial.logistic_kernel(dist, cfg.kernel_keypoints).sum(axis=-1)
    pos_err = np.linalg.norm(obj_pos - goal_pos, axis=-1)
    ang = spatial.rot_dist(obj_quat, goal_quat)
    return spatial.logistic_kernel(pos_err, cfg.kernel_pos) + 1.0 / (3.0 * np.abs(ang) + 0.01)


def goal_errors(obj_pos, obj_quat, goal_pos, goal_quat) -> tuple[np.ndarray, np.ndarray]:
    """Per-env position error (m) and rotation error (rad) to the goal."""
    return np.linalg.norm(obj_pos - goal_pos, axis=-1), spatial.rot_dist(obj_quat, goal_quat)


def check_success(pos_err, rot_err, pos_threshold: float, rot_threshold: float) -> np.ndarray:
    """The success test: both ``goal_errors`` under their thresholds.  The
    thresholds are > 0, so a zero error passes its half of the test."""
    return (np.asarray(pos_err) < pos_threshold) & (np.asarray(rot_err) < rot_threshold)


def sample_goals(
    seed: int, env_ids: np.ndarray, episode_idx: np.ndarray, cfg: TaskConfig, z_min: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Goal poses: position uniform over a cylinder (area-uniform in the
    disc), orientation uniform over SO(3), or yaw-only when configured."""
    key_p = rng.stream_key(seed, env_ids, episode_idx, rng.CH_GOAL_POS)
    u = rng.uniform(key_p, 3)
    r = cfg.goal_radius * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    z = z_min + (cfg.goal_z_max - z_min) * u[:, 2]
    pos = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)

    key_q = rng.stream_key(seed, env_ids, episode_idx, rng.CH_GOAL_ROT)
    if cfg.goal_yaw_only:
        yaw = rng.uniform(key_q, 1, 0.0, 2.0 * np.pi)[:, 0]
        quat = spatial.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
    else:
        quat = spatial.quat_from_shoemake(rng.uniform(key_q, 3))
    return pos, quat


class EpisodicTask:
    """The episode bookkeeping every vectorized task shares: per-env step,
    episode and return counters, end-of-episode records with auto-reset,
    and the checkpoint arrays ``STATE_FIELDS`` under ``STATE_PREFIX``.  A
    task checkpoints only what it cannot derive; a load rebuilds the rest
    (``_derive``).

    The batch holds envs ``env_offset`` to ``env_offset + num_envs - 1``
    of a larger one: ``env_ids`` maps a local index to its global env id,
    which keys every random stream and names each record's ``env_id``, so
    two shards at offsets 0 and k step the envs of one batch bit for bit.

    A task defines ``_begin_episodes(ids, ep)``, the draws that start
    episode ``ep`` of the envs at local indices ``ids``, and
    ``_observations()``.
    """

    STATE_PREFIX = "task"
    STATE_FIELDS: tuple = ()

    def __init__(self, num_envs: int, seed: int, env_offset: int = 0):
        self.num_envs = num_envs
        self.seed = seed
        self.episode_step = np.zeros(num_envs, dtype=np.int64)
        self.episode_idx = np.full(num_envs, -1, dtype=np.int64)
        self.episode_return = np.zeros(num_envs)
        self._episode_records: list[dict] = []
        self.env_ids = np.arange(env_offset, env_offset + num_envs)

    def reset_all(self) -> dict:
        """Start a new episode in every env; returns the observations."""
        self._reset_envs(np.ones(self.num_envs, dtype=bool))
        return self._observations()

    def _reset_envs(self, mask: np.ndarray) -> None:
        ids = np.nonzero(mask)[0]
        if len(ids) == 0:
            return
        self.episode_idx[ids] += 1
        self.episode_step[ids] = 0
        self.episode_return[ids] = 0.0
        self._begin_episodes(ids, self.episode_idx[ids])

    def _count_step(self, reward: np.ndarray) -> None:
        self.episode_step += 1
        self.episode_return += reward

    def _end_episodes(self, done: np.ndarray, **columns: np.ndarray) -> None:
        """Record the episode of each ``done`` env, then start its next one.
        A record holds ``episode``, ``env_id`` and ``return``, plus the
        task's per-env end ``columns``."""
        for i in np.nonzero(done)[0]:
            record = {"episode": int(self.episode_idx[i]), "env_id": int(self.env_ids[i]),
                      "return": float(self.episode_return[i])}
            record.update((name, col[i].item()) for name, col in columns.items())
            self._episode_records.append(record)
        self._reset_envs(done)

    def drain_episode_records(self) -> list[dict]:
        out = self._episode_records
        self._episode_records = []
        return out

    def _arrays(self) -> dict:
        """The checkpointed arrays by name, live: a load copies into them."""
        return {f"{self.STATE_PREFIX}.{name}": getattr(self, name) for name in self.STATE_FIELDS}

    def load_state_dict(self, arrays: dict) -> dict:
        """Restore the arrays ``_arrays`` names, then what derives from
        them; returns the observations of the restored state.
        ``ValueError`` before any change if one is missing or of another
        dtype or shape."""
        from .ppo import load_into  # not at the top: env imports before nets (CHANGES.md)
        load_into(self._arrays(), arrays)
        self._derive()
        return self._observations()

    def _derive(self) -> None:
        """Rebuild the arrays that derive from the checkpointed ones."""


class CubeReposeTask(EpisodicTask):
    """Vectorized environment batch with auto-reset.

    All randomness is drawn from counter-based streams keyed by the run
    seed, the global env id, and either the per-env episode index (resets,
    episode randomization) or the per-env step counter (per-step noise), so
    replays and partitioned batches (see ``EpisodicTask``) are bit-identical.
    ``batch_envs`` (default ``num_envs``) is the env count of the whole
    batch, which the reach cutoff counts steps of (see the module docstring).
    """

    # per-env task arrays a checkpoint carries besides physics state and params
    STATE_FIELDS = (
        "goal_pos", "goal_quat", "episode_step", "episode_idx",
        "last_action_torque", "held_cube_pos", "held_cube_quat",
        "filtered_cube_quat", "episode_return", "success_any",
    )

    def __init__(
        self,
        num_envs: int,
        seed: int = 0,
        task: TaskConfig | None = None,
        phys: PhysicsConfig | None = None,
        dr: DRConfig | None = None,
        env_offset: int = 0,
        batch_envs: int | None = None,
    ):
        super().__init__(num_envs, seed, env_offset)
        self.batch_envs = num_envs if batch_envs is None else batch_envs
        self.cfg = task or TaskConfig()
        self.pcfg = phys or PhysicsConfig()
        self.dr = dr or DRConfig()
        self.action_dim = N_JOINTS
        self.actor_dim = actor_obs_dim(self.cfg.obs_variant)
        self.critic_dim = critic_obs_dim(self.cfg.obs_variant)
        # observations and reward always use the nominal-size corner points
        kp_half = self.cfg.keypoint_half_extents
        if kp_half is None:
            kp_half = self.pcfg.object.box_half_extents()
        self.local_keypoints = spatial.box_local_keypoints(kp_half)

        n = num_envs
        self.params = EnvParams.nominal(n)
        self.state = physics.make_rest_state(n, self.pcfg, self.params)
        self.goal_pos = np.zeros((n, 3))
        self.goal_quat = np.tile(spatial.QUAT_IDENTITY, (n, 1))
        self.last_action_torque = np.zeros((n, N_JOINTS))
        self.held_cube_pos = np.zeros((n, 3))
        self.held_cube_quat = np.tile(spatial.QUAT_IDENTITY, (n, 1))
        self.filtered_cube_quat = np.tile(spatial.QUAT_IDENTITY, (n, 1))
        self.success_any = np.zeros(n, dtype=bool)
        # the reward's goal corners and the observed goal, set from
        # goal_pos and goal_quat by set_goals alone
        self.goal_keypoints = np.empty((n, *self.local_keypoints.shape))
        self.goal_block = np.empty((n, pose_block_width(self.cfg.obs_variant)))
        self._derive()

    # ------------------------------------------------------------- resets

    reset_all = EpisodicTask.reset_all  # perfbench's tests read it from vars()

    def _begin_episodes(self, ids: np.ndarray, ep: np.ndarray) -> None:
        gids = self.env_ids[ids]
        new_params = domrand.sample_episode_randomization(self.seed, gids, ep, self.dr)
        for name in vars(self.params):
            getattr(self.params, name)[ids] = getattr(new_params, name)

        rest = physics.make_rest_state(len(ids), self.pcfg, new_params)
        key = rng.stream_key(self.seed, gids, ep, rng.CH_RESET_CUBE)
        u = rng.uniform(key, 3)
        r = self.cfg.spawn_disc_radius * np.sqrt(u[:, 0])
        theta = 2.0 * np.pi * u[:, 1]
        rest.obj_pos[:, 0] = r * np.cos(theta)
        rest.obj_pos[:, 1] = r * np.sin(theta)
        yaw = 2.0 * np.pi * u[:, 2]
        rest.obj_quat[:] = spatial.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)

        key_j = rng.stream_key(self.seed, gids, ep, rng.CH_RESET_JOINTS)
        jitter = rng.normal(key_j, N_JOINTS) * self.cfg.joint_reset_noise
        rest.joint_pos[:] = np.clip(
            rest.joint_pos + jitter, self.pcfg.hand.joint_lower, self.pcfg.hand.joint_upper
        )
        rest.step_count[:] = self.state.step_count[ids]  # survives across episodes

        for name in vars(self.state):
            getattr(self.state, name)[ids] = getattr(rest, name)

        z_min = physics.object_half_extents(self.pcfg, self.params)[ids, 2]
        self.set_goals(ids, *sample_goals(self.seed, gids, ep, self.cfg, z_min))

        self.last_action_torque[ids] = 0.0
        self.success_any[ids] = False
        self._kin = None
        self._refresh_camera(ids)
        # first frame of an episode: the filter has no history, take it raw
        self.filtered_cube_quat[ids] = self.held_cube_quat[ids]

    def set_goals(self, ids, pos: np.ndarray, quat: np.ndarray) -> None:
        """Pin the goal of envs ``ids`` (local indices, or a mask) to
        ``pos``/``quat``, with the goal observation and the reward's goal
        corners that derive from it."""
        self.goal_pos[ids] = pos
        self.goal_quat[ids] = quat
        self.goal_keypoints[ids] = spatial.transform_keypoints(
            self.goal_pos[ids], self.goal_quat[ids], self.local_keypoints)
        self.goal_block[ids] = self._pose_blocks(self.goal_pos[ids], self.goal_quat[ids])

    # ------------------------------------------------------------- camera

    def _refresh_camera(self, ids: np.ndarray) -> None:
        pos = self.state.obj_pos[ids]
        quat = self.state.obj_quat[ids]
        gids = self.env_ids[ids]
        if self.dr.enabled:
            key = rng.stream_key(self.seed, gids, self.state.step_count[ids], rng.CH_OBS_NOISE)
            pos = np.clip(domrand.apply_observation_noise(
                pos, self.dr.cube_position, self.params.cube_pos_offset[ids], key
            ), -CAMERA_POS_LIMIT, CAMERA_POS_LIMIT)
            quat = domrand.apply_orientation_noise(
                quat,
                self.dr.cube_orientation,
                self.params.cube_rot_offset[ids],
                rng.stream_key(self.seed, gids, self.state.step_count[ids], rng.CH_OBS_NOISE_CUBE_ROT),
            )
        if self.cfg.camera_sign_flips:
            # the tracker solves each frame from scratch: its sign is arbitrary
            key_s = rng.stream_key(
                self.seed, gids, self.state.step_count[ids], rng.CH_CAMERA_SIGN
            )
            flip = rng.uniform(key_s, 1)[:, 0] < 0.5
            quat = np.where(flip[:, None], -quat, quat)
        self.held_cube_pos[ids] = pos
        self.held_cube_quat[ids] = quat
        self.filtered_cube_quat[ids] = spatial.quat_sign_filter(
            quat, self.filtered_cube_quat[ids]
        )

    # ------------------------------------------------------------- stepping

    def step(self, actions: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray, dict]:
        if self._kin is None:
            self._kin = physics.fingertip_kinematics(self.state.joint_pos, self.state.joint_vel, self.pcfg.hand)
        prev_tips = self._kin.pos
        prev_obj_pos = self.state.obj_pos  # physics.step returns new arrays

        torque_cmd, action_fault = process_action(actions, self.state.joint_vel, self.pcfg)
        self.last_action_torque = torque_cmd
        torque_applied = torque_cmd
        if self.dr.enabled:
            key = rng.stream_key(
                self.seed, self.env_ids, self.state.step_count, rng.CH_ACT_NOISE
            )
            # physics.step clamps the noised torque to the actuator range
            torque_applied = domrand.apply_action_noise(
                torque_cmd, self.dr.torque, self.params.torque_offset, key
            )
            physics.apply_external_force(
                self.state, self.params, self.pcfg, self.dr.external_force, self.seed,
                self.env_ids,
            )

        self.state = physics.step(self.state, torque_applied, self.params, self.pcfg)
        kin = self._kin = physics.fingertip_kinematics(
            self.state.joint_pos, self.state.joint_vel, self.pcfg.hand)

        reach_raw = fingertip_to_object(prev_tips, prev_obj_pos, kin.pos, self.state.obj_pos)
        # the whole batch's env steps up to this one, which step_count now counts
        reach_on = self.state.step_count * self.batch_envs <= self.cfg.reach_cutoff_steps
        reach = np.where(reach_on, reach_raw, 0.0)
        vel_pen = np.sum(kin.linvel**2, axis=(-1, -2))
        # the object's true corners, shared by the reward and the critic
        needs_kps = "keypoints" in (self.cfg.reward_variant, self.cfg.obs_variant)
        true_kps = self._true_keypoints() if needs_kps else None
        goal_rew = object_goal_reward(
            self.state.obj_pos, self.state.obj_quat, self.goal_pos, self.goal_quat,
            self.cfg, self.local_keypoints, self.goal_keypoints, true_kps,
        )
        reward = (
            self.cfg.w_fingertip_reach * reach
            + self.cfg.w_fingertip_vel * vel_pen
            + self.cfg.w_object_goal * goal_rew
        )
        self._count_step(reward)

        pos_err, rot_err = goal_errors(
            self.state.obj_pos, self.state.obj_quat, self.goal_pos, self.goal_quat)
        in_goal = check_success(pos_err, rot_err, self.cfg.success_pos_threshold,
                                self.cfg.success_rot_threshold)
        self.success_any |= in_goal

        fault = self.state.fault | action_fault
        done = (self.episode_step >= self.cfg.episode_length) | fault
        self._end_episodes(
            done, success=in_goal & ~fault, success_any=self.success_any,
            final_pos_err=pos_err, final_rot_err=rot_err, fault=fault,
        )
        info = {
            "reward_components": {
                "fingertip_to_object": reach,
                "fingertip_velocity_penalty": vel_pen,
                "object_goal_reward": goal_rew,
            },
        }
        live_refresh = (~done) & (self.episode_step % self.cfg.camera_repeat == 0)
        if live_refresh.any():
            self._refresh_camera(np.nonzero(live_refresh)[0])

        if self.cfg.obs_variant == "keypoints" and done.any():  # reset envs start elsewhere
            true_kps[done] = self._true_keypoints(done)
        return self._observations(true_kps), reward, done, info

    # --------------------------------------------------------- observations

    def _true_keypoints(self, ids=slice(None)) -> np.ndarray:
        return spatial.transform_keypoints(
            self.state.obj_pos[ids], self.state.obj_quat[ids], self.local_keypoints)

    def _pose_blocks(self, pos: np.ndarray, quat: np.ndarray, keypoints=None) -> np.ndarray:
        """The observed pose; ``keypoints``, if given, are the corners of ``pos``/``quat``."""
        if self.cfg.obs_variant == "keypoints":
            if keypoints is None:
                keypoints = spatial.transform_keypoints(pos, quat, self.local_keypoints)
            return spatial.keypoints_to_flat(keypoints)
        return np.concatenate([pos, quat], axis=-1)

    def _observations(self, true_keypoints: np.ndarray | None = None) -> dict:
        """``true_keypoints``, if given, are ``_true_keypoints()`` of the current state."""
        n = self.num_envs
        if self._kin is None:
            self._kin = physics.fingertip_kinematics(self.state.joint_pos, self.state.joint_vel, self.pcfg.hand)
        kin = self._kin

        joint_pos = self.state.joint_pos
        joint_vel = self.state.joint_vel
        if self.dr.enabled:
            hand = self.pcfg.hand
            key = rng.stream_key(
                self.seed, self.env_ids, self.state.step_count, rng.CH_OBS_NOISE_JOINT_POS
            )
            joint_pos = np.clip(domrand.apply_observation_noise(
                joint_pos, self.dr.joint_position, self.params.joint_pos_offset, key
            ), hand.joint_lower, hand.joint_upper)
            key = rng.stream_key(
                self.seed, self.env_ids, self.state.step_count, rng.CH_OBS_NOISE_JOINT_VEL
            )
            joint_vel = np.clip(domrand.apply_observation_noise(
                joint_vel, self.dr.joint_velocity, self.params.joint_vel_offset, key
            ), -hand.max_joint_vel, hand.max_joint_vel)

        # the cube pose seen through the camera: held between frames, noised
        # in the world frame at each refresh
        cam_quat = self.filtered_cube_quat if self.cfg.obs_variant == "pos_quat" else self.held_cube_quat
        goal_block = self.goal_block
        actor = np.concatenate(
            [joint_pos, joint_vel, self._pose_blocks(self.held_cube_pos, cam_quat), goal_block,
             self.last_action_torque],
            axis=-1,
        )

        actor_true = np.concatenate(
            [self.state.joint_pos, self.state.joint_vel,
             self._pose_blocks(self.state.obj_pos, self.state.obj_quat, true_keypoints), goal_block,
             self.last_action_torque],
            axis=-1,
        )
        critic = np.concatenate(
            [
                actor_true,
                self.state.obj_linvel,
                self.state.obj_angvel,
                np.concatenate([kin.pos, physics.fingertip_quat(self.state.joint_pos)], axis=-1)
                .reshape(n, 21),
                np.concatenate([kin.linvel, kin.angvel], axis=-1).reshape(n, 18),
                self.state.fingertip_wrench.reshape(n, 18),
                self.state.joint_torque,
            ],
            axis=-1,
        )
        return {"actor": actor, "critic": critic}

    # ------------------------------------------------------------- plumbing

    def _arrays(self) -> dict:
        """Physics state and params as ``state.*`` and ``params.*``, then the
        task arrays."""
        arrays = {f"{prefix}.{name}": arr
                  for prefix, obj in (("state", self.state), ("params", self.params))
                  for name, arr in vars(obj).items()}
        return {**arrays, **super()._arrays()}

    def _derive(self) -> None:
        self._kin = None  # fingertip kinematics cache for the current state
        self.set_goals(slice(None), self.goal_pos, self.goal_quat)
