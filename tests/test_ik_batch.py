"""Lock-step batched FK and IK: every row of a batch gets, bit for bit,
what the same configuration or target gets alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitesim.geometry import Pose
from bitesim.kinematics import (IkParams, bundled_chain, fk_frames, fk_frames_batch,
                                forward_kinematics, ik_damped_least_squares,
                                ik_damped_least_squares_batch)

CHAINS = {name: bundled_chain(name) for name in ("panda_7dof", "panda_wrist_9dof")}
# a short budget and stall window make restarts and failures cheap
PARAMS = IkParams(max_iter=40, stall_window=4)
KINDS = ("reach", "stretch", "far")


def make_target(chain, kind, seed):
    """A target of one kind: "reach" is the tip pose of a random
    configuration, "stretch" pushes it 60 % further from the base, and
    "far" lies out of reach."""
    rng = np.random.default_rng(seed)
    pose = forward_kinematics(chain, chain.lower + rng.random(chain.dof)
                              * (chain.upper - chain.lower))
    if kind == "stretch":
        return Pose(1.6 * pose.position, pose.orientation)
    if kind == "far":
        return Pose(np.array([3.0, 0.0, 0.5]), pose.orientation)
    return pose


def rows(poses):
    """The poses as the (B, 7) rows [x, y, z, qw, qx, qy, qz] batch IK takes."""
    return np.array([np.concatenate([p.position, p.orientation]) for p in poses]).reshape(-1, 7)


def assert_same(a, b):
    assert np.array_equal(a.q, b.q)
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.restarts == b.restarts
    assert np.array_equal(a.residual, b.residual)


@settings(max_examples=25, deadline=None)
@given(chain_name=st.sampled_from(sorted(CHAINS)),
       spec=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=6),
       data=st.data())
def test_batch_rows_equal_lone_solves_in_any_order(chain_name, spec, data):
    chain = CHAINS[chain_name]
    targets = [make_target(chain, kind, seed) for kind, seed in spec]
    batch = ik_damped_least_squares_batch(chain, rows(targets), chain.home, PARAMS)
    assert len(batch) == len(targets)
    for i, target in enumerate(targets):
        assert_same(batch[i], ik_damped_least_squares(chain, target, chain.home, PARAMS))

    order = data.draw(st.permutations(range(len(targets))))
    permuted = ik_damped_least_squares_batch(chain, rows([targets[i] for i in order]),
                                             chain.home, PARAMS)
    for j, i in enumerate(order):
        assert_same(permuted[j], batch[i])


def test_fixed_mix_covers_every_exit():
    """Seeds 10 and 13 converge only after a restart, seed 0 and the
    far target fail, the rest converge on the first attempt."""
    chain = CHAINS["panda_7dof"]
    targets = [make_target(chain, "reach", s) for s in (0, 1, 10, 13)]
    targets.append(make_target(chain, "far", 0))
    batch = ik_damped_least_squares_batch(chain, rows(targets), chain.home, PARAMS)
    assert batch.converged.tolist() == [False, True, True, True, False]
    assert batch.restarts[1] == 0
    assert (batch.restarts[[0, 2, 3, 4]] > 0).all()
    assert batch.iterations[0] == batch.iterations[4] == PARAMS.max_iter
    for i, target in enumerate(targets):
        assert_same(batch[i], ik_damped_least_squares(chain, target, chain.home, PARAMS))


def test_per_row_seeds(chain7):
    targets = [make_target(chain7, "reach", s) for s in range(5)]
    seeds = chain7.lower + np.random.default_rng(9).random((5, 7)) * (chain7.upper
                                                                      - chain7.lower)
    batch = ik_damped_least_squares_batch(chain7, rows(targets), seeds, PARAMS)
    for i, target in enumerate(targets):
        assert_same(batch[i], ik_damped_least_squares(chain7, target, seeds[i], PARAMS))


def test_seed_shape_mismatch(chain7):
    targets = [make_target(chain7, "reach", s) for s in range(3)]
    with pytest.raises(ValueError):
        ik_damped_least_squares_batch(chain7, rows(targets), np.zeros(6))
    with pytest.raises(ValueError):
        ik_damped_least_squares_batch(chain7, rows(targets), np.zeros((2, 7)))


def test_empty_batch(chain7):
    batch = ik_damped_least_squares_batch(chain7, rows([]), chain7.home)
    assert len(batch) == 0
    assert batch.q.shape == (0, 7)


def test_restarts_counted(chain7):
    easy = ik_damped_least_squares(chain7, forward_kinematics(chain7, chain7.home),
                                   chain7.home)
    assert easy.restarts == 0
    far = ik_damped_least_squares(chain7, make_target(chain7, "far", 0), chain7.home)
    assert not far.converged
    assert far.restarts > 0


@pytest.mark.parametrize("chain_name", sorted(CHAINS))
def test_fk_frames_batch_rows_equal_lone_calls(chain_name):
    chain = CHAINS[chain_name]
    qs = chain.lower + np.random.default_rng(4).random((50, chain.dof)) * (
        chain.upper - chain.lower)
    stacked = fk_frames_batch(chain, qs)
    for i, q in enumerate(qs):
        for got, want in zip((a[i] for a in stacked), fk_frames(chain, q)):
            assert np.array_equal(got, want)


def test_fk_frames_batch_rejects_bad_shape(chain7):
    with pytest.raises(ValueError):
        fk_frames_batch(chain7, np.zeros(7))
    with pytest.raises(ValueError):
        fk_frames_batch(chain7, np.zeros((3, 9)))


def test_target_shape_mismatch(chain7):
    with pytest.raises(ValueError, match="rows of 7"):
        ik_damped_least_squares_batch(chain7, np.zeros((3, 6)), chain7.home)
    with pytest.raises(ValueError, match="rows of 7"):
        ik_damped_least_squares_batch(chain7, np.zeros(7), chain7.home)
