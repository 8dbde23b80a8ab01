"""Tests for the time-domain integrators and the adiabatic validity check."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavitymagnons import dynamics
from cavitymagnons.closed_forms import matrix_exponential, propagate_exact
from cavitymagnons.dynamics import (
    MAX_SPAN,
    adiabatic_validity_report,
    integrate_adiabatic,
    integrate_full,
    slaved_cavity_amplitude,
    step_count,
)
from cavitymagnons.model import (
    DriveParams,
    SystemParams,
    build_adiabatic_model,
    build_driven_system,
)
from cavitymagnons.response import steady_state

from conftest import system_params_strategy

SQRT2 = math.sqrt(2.0)

WEAK = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04)
# Weakly damped: still oscillating after several thousand accurate steps.
RINGING = SystemParams(kappa=1e-3, gamma1=0.0, gamma2=1e-3, g1=0.4, g2=0.25, s=0.3)
STRONG = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0.5)
FREE = DriveParams(delta=0.0, amplitude=0.0)


def rk4_reference(a, force, state0, t_end, n_steps):
    """Classical RK4 on dy/dt = A y + F, one step per loop iteration (the oracle)."""
    h = t_end / n_steps
    y = np.asarray(state0, dtype=complex).copy()
    states = [y]
    for _ in range(n_steps):
        k1 = a @ y + force
        k2 = a @ (y + 0.5 * h * k1) + force
        k3 = a @ (y + 0.5 * h * k2) + force
        k4 = a @ (y + h * k3) + force
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def accurate_dt(matrix) -> float:
    """Step with h |lambda| <= 0.1 for every eigenvalue: accurate and stable."""
    return 0.1 / max(1.0, np.linalg.norm(matrix, 2))


# Step counts around 64 and 64**2 rows, and EDGE_STEPS around the edges of the
# doubling (rows 2^k .. 2^(k+1) - 1 are one product from rows 0 .. 2^k - 1) and of
# the MAX_SPAN-row blocks that follow it, each one product from the block before.
BLOCK_STEPS = 64
PASS_STEPS = BLOCK_STEPS**2
EDGE_STEPS = sorted({n for k in range(10, 14) for n in (2**k - 1, 2**k, 2**k + 1)}
                    | {MAX_SPAN * j + d for j in (1, 2, 3) for d in (-1, 1)})
# Step counts that end mid-block, so partial blocks are covered, and on the edges of a block and a pass.
step_counts = st.sampled_from([1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 3 * BLOCK_STEPS + 5,
                               PASS_STEPS - 1, PASS_STEPS] + EDGE_STEPS)
# These end around and past one pass.
pass_step_counts = pytest.mark.parametrize("n_steps", [PASS_STEPS - 1, PASS_STEPS, PASS_STEPS + 1, 2 * PASS_STEPS + 5]
                                           + EDGE_STEPS)
unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


def assert_matches_reference(states, reference):
    assert states.shape == reference.shape
    assert np.abs(states - reference).max() <= 1e-11 * np.abs(reference).max()


class TestMatrixExponential:
    def test_diagonal_case(self):
        a = np.diag([1.0 + 0j, -2.0, 0.5j])
        assert_allclose(matrix_exponential(a), np.diag(np.exp(np.diag(a))), rtol=1e-13)

    def test_defective_generator(self):
        # Jordan block: exp([[0,1],[0,0]]) = [[1,1],[0,1]]
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert_allclose(matrix_exponential(a), [[1, 1], [0, 1]], atol=1e-12)

    def test_against_eigendecomposition_generic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w, v = np.linalg.eig(a)
        assert_allclose(matrix_exponential(a), (v * np.exp(w)) @ np.linalg.inv(v), rtol=1e-10)

    def test_agrees_with_scipy_expm_on_driven_generators(self):
        # -i(H - delta)t from 0.1 to 3000 cavity lifetimes: up to 10 squarings.
        # Both scaling-and-squaring codes err by up to ~1e-13 against a
        # 40-digit exponential here; they differ by at most 5e-13 over 500 cases.
        import scipy.linalg

        rng = np.random.default_rng(11)
        for t in np.geomspace(0.1, 3000.0, 40):
            p = SystemParams(kappa=1.0, gamma1=rng.uniform(0.0, 0.05), gamma2=rng.uniform(0.0, 0.05),
                             g1=rng.uniform(0.0, 0.5), g2=rng.uniform(0.0, 0.5), s=rng.uniform(-1.0, 1.0))
            a = -1j * t * build_driven_system(p, DriveParams(delta=rng.uniform(-0.1, 0.1), amplitude=1.0)).matrix
            expected = scipy.linalg.expm(a)
            assert np.abs(matrix_exponential(a) - expected).max() <= 2e-12 * np.abs(expected).max()


class TestBlockStepperMatchesReference:
    @given(system_params_strategy(), st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=0.0, max_value=2.0),
           st.lists(unit_floats, min_size=6, max_size=6), step_counts)
    @settings(max_examples=100, deadline=None)
    def test_integrate_full(self, p, delta, amplitude, parts, n_steps):
        drive = DriveParams(delta=delta, amplitude=amplitude)
        system = build_driven_system(p, drive)
        x0 = np.array(parts[:3]) + 1j * np.array(parts[3:])
        dt = accurate_dt(system.matrix)
        t_end = n_steps * dt
        traj = integrate_full(p, drive, x0, t_end, dt)
        assert_matches_reference(traj.states, rk4_reference(-1j * system.matrix, system.force, x0, t_end, n_steps))

    @given(system_params_strategy(), st.lists(unit_floats, min_size=4, max_size=4), step_counts)
    @settings(max_examples=100, deadline=None)
    def test_integrate_adiabatic(self, p, parts, n_steps):
        model = build_adiabatic_model(p)
        y0 = np.array(parts[:2]) + 1j * np.array(parts[2:])
        dt = accurate_dt(model.matrix)
        t_end = n_steps * dt
        traj = integrate_adiabatic(model, y0, t_end, dt)
        assert_matches_reference(traj.states, rk4_reference(-1j * model.matrix, np.zeros(2), y0, t_end, n_steps))

    @pass_step_counts
    @given(system_params_strategy(), st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=0.0, max_value=2.0),
           st.lists(unit_floats, min_size=6, max_size=6))
    @example(p=RINGING, delta=0.1, amplitude=1.0, parts=[0.2, -0.7, 0.5, 0.1, 0.3, -0.4])
    @settings(max_examples=2, deadline=None)
    def test_integrate_full_across_passes(self, n_steps, p, delta, amplitude, parts):
        # The reference is a Python loop, so few examples; the explicit one keeps
        # every component moving, where the first drawn ones start from rest.
        drive = DriveParams(delta=delta, amplitude=amplitude)
        system = build_driven_system(p, drive)
        x0 = np.array(parts[:3]) + 1j * np.array(parts[3:])
        dt = accurate_dt(system.matrix)
        t_end = n_steps * dt
        traj = integrate_full(p, drive, x0, t_end, dt)
        assert_matches_reference(traj.states, rk4_reference(-1j * system.matrix, system.force, x0, t_end, n_steps))

    @pass_step_counts
    @given(system_params_strategy(), st.lists(unit_floats, min_size=4, max_size=4))
    @example(p=RINGING, parts=[-0.7, 0.5, 0.3, -0.4])
    @settings(max_examples=2, deadline=None)
    def test_integrate_adiabatic_across_passes(self, n_steps, p, parts):
        model = build_adiabatic_model(p)
        y0 = np.array(parts[:2]) + 1j * np.array(parts[2:])
        dt = accurate_dt(model.matrix)
        t_end = n_steps * dt
        traj = integrate_adiabatic(model, y0, t_end, dt)
        assert_matches_reference(traj.states, rk4_reference(-1j * model.matrix, np.zeros(2), y0, t_end, n_steps))


class TestAnchorRows:
    def test_driven_run_matches_the_exact_propagator_at_every_anchor_and_pass_boundary(self):
        # Row 2^k - 1 is the end of a chain of k products of the doubling, and
        # each MAX_SPAN-row block is one more product from the block before it:
        # rounding in the powers compounds there.  At h |A| <= 1e-3 the RK4
        # truncation error is below 1e-16 per step, so rounding dominates.  The
        # bound is the error that complex powers of the step map gave on this run,
        # 1.44e-13 of the largest exact state, rounded up; real powers give 7.6e-14.
        drive = DriveParams(delta=0.1, amplitude=1.0)
        x0 = np.array([0.2 - 0.7j, 0.5 + 0.1j, 0.3 - 0.4j])
        dt = 0.01 * accurate_dt(build_driven_system(RINGING, drive).matrix)
        n_steps = 3 * PASS_STEPS + 5
        traj = integrate_full(RINGING, drive, x0, n_steps * dt, dt)
        rows = np.arange(0, n_steps + 1, BLOCK_STEPS)
        assert np.count_nonzero(rows % PASS_STEPS == 0) == 4
        rows = np.union1d(rows, 2 ** np.arange(1, 14) - 1)
        exact = np.array([propagate_exact(RINGING, drive, x0, float(traj.times[row])) for row in rows])
        assert np.abs(traj.states[rows] - exact).max() <= 2e-13 * np.abs(exact).max()


class TestStride:
    @pytest.mark.parametrize("stride", [2, 7, BLOCK_STEPS, BLOCK_STEPS + 1, 1000, PASS_STEPS + 3])
    @pytest.mark.parametrize("n_steps", [1, 999, 2 * PASS_STEPS + 5, 20000])
    @given(system_params_strategy(), st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=0.0, max_value=2.0),
           st.lists(unit_floats, min_size=6, max_size=6))
    @example(p=RINGING, delta=0.1, amplitude=1.0, parts=[0.2, -0.7, 0.5, 0.1, 0.3, -0.4])
    @settings(max_examples=3, deadline=None)
    def test_rows_are_every_stride_th_step_and_the_last(self, stride, n_steps, p, delta, amplitude, parts):
        drive = DriveParams(delta=delta, amplitude=amplitude)
        x0 = np.array(parts[:3]) + 1j * np.array(parts[3:])
        matrix = build_driven_system(p, drive).matrix
        dt = accurate_dt(matrix)
        t_end = n_steps * dt
        every = integrate_full(p, drive, x0, t_end, dt)
        strided = integrate_full(p, drive, x0, t_end, dt, stride=stride)
        rows = np.arange(0, n_steps + 1, stride)
        if rows[-1] != n_steps:
            rows = np.append(rows, n_steps)
        assert np.array_equal(strided.times, every.times[rows])
        assert strided.states.shape == (rows.size, 3)
        scale = np.abs(every.states).max()
        assert np.abs(strided.states - every.states[rows]).max() <= 1e-12 * scale
        assert strided.dt == every.dt
        # The residual is taken at the final step: it moves at most by |A| times the state difference.
        bound = 2e-12 * scale * np.linalg.norm(matrix, 2) + 1e-14
        assert abs(strided.final_residual - every.final_residual) <= bound

    @pytest.mark.parametrize("stride", [0, -3, 2.0, True, "4", None])
    def test_rejects_invalid_stride(self, stride):
        with pytest.raises(ValueError, match="stride"):
            integrate_full(WEAK, DriveParams(), np.zeros(3), t_end=1.0, dt=0.01, stride=stride)

    def test_numpy_integer_stride(self):
        traj = integrate_full(WEAK, DriveParams(), np.zeros(3), t_end=1.0, dt=0.01, stride=np.int64(10))
        assert traj.times.size == 11


X0 = np.array([0.2 - 0.7j, 0.5 + 0.1j, 0.3 - 0.4j])
Y0 = np.array([-0.6 + 0.1j, 0.25j, 0.9 - 0.3j])
M0 = np.array([0.8 + 0.3j, -0.4 + 0.6j])


DECOUPLED = SystemParams(kappa=1, gamma1=0.01, gamma2=0.03, g1=0, g2=0, s=0.3)


class TestSharedLayout:
    """The reduced model runs in the full model's 3-mode layout; free runs propagate P alone."""

    @pytest.mark.parametrize("n_steps", [1, BLOCK_STEPS - 1, PASS_STEPS + 1, 2 * PASS_STEPS + 5] + EDGE_STEPS)
    def test_reduced_rows_are_the_magnon_rows_of_a_decoupled_full_run(self, n_steps):
        # The cavity starts excited and decays on its own; it reaches no magnon.
        x0 = np.array([0.7 - 0.2j, 1.0 + 0.25j, -0.5 + 0.5j])
        full = integrate_full(DECOUPLED, FREE, x0, n_steps * 0.01, 0.01)
        reduced = integrate_adiabatic(build_adiabatic_model(DECOUPLED), x0[1:], n_steps * 0.01, 0.01)
        assert reduced.states.shape == (n_steps + 1, 2)
        assert reduced.states.tobytes() == full.states[:, 1:].tobytes()
        assert np.array_equal(reduced.times, full.times)

    @pytest.mark.parametrize("n_steps,stride", [(PASS_STEPS + 3, 1), (2 * PASS_STEPS + 5, 1), (20000, 7), (999, 64)]
                             + [(n, 1) for n in EDGE_STEPS])
    def test_driven_rows_keep_the_constant_exactly(self, n_steps, stride):
        # Only row 0 is given the drive's constant; the step map's last two
        # columns carry it to every later row, the tail row of a strided run included.
        drive = DriveParams(delta=0.1, amplitude=1.0)
        dt = accurate_dt(build_driven_system(RINGING, drive).matrix)
        traj = integrate_full(RINGING, drive, X0, n_steps * dt, dt, stride)
        rows = traj.states.base
        assert rows.shape == (1, traj.times.size, 4)
        assert rows[0, :, 3].tobytes() == np.ones(traj.times.size, dtype=complex).tobytes()

    def test_identical_runs_give_identical_bytes(self):
        drive = DriveParams(delta=0.1, amplitude=1.0)
        runs = [(integrate_full(RINGING, drive, np.zeros(3), 2000.0, 0.05, 3),
                 integrate_adiabatic(build_adiabatic_model(WEAK), [0.8, -0.6j], 100.0, 0.01),
                 adiabatic_validity_report(WEAK, [1.0, 0.5j], t_end=100.0, dt=0.01))
                for _ in range(2)]
        (full, reduced, report), (full2, reduced2, report2) = runs
        assert full.states.tobytes() == full2.states.tobytes()
        assert reduced.states.tobytes() == reduced2.states.tobytes()
        assert report == report2


def full_run(params, drive, state0):
    """The run (A, F, y0) that integrate_full steps."""
    system = build_driven_system(params, drive)
    return -1j * system.matrix, system.force, np.asarray(state0, dtype=complex)


def reduced_run(params, state0):
    """The run (A, F, y0) that integrate_adiabatic steps."""
    return -1j * build_adiabatic_model(params).matrix, np.zeros(2, dtype=complex), np.asarray(state0, dtype=complex)


class TestBatch:
    """Runs on one grid step as one batch, and each member is byte for byte its run alone."""

    @pytest.mark.parametrize("n_steps", [1, BLOCK_STEPS - 1, PASS_STEPS + 1, 2 * PASS_STEPS + 5] + EDGE_STEPS)
    def test_driven_members_equal_their_runs_alone(self, n_steps):
        drive = DriveParams(delta=0.05, amplitude=1.3)
        other = DriveParams(delta=-0.1, amplitude=0.4)
        dt = accurate_dt(build_driven_system(RINGING, drive).matrix)
        t_end = n_steps * dt
        states, h = dynamics._integrate_batch([full_run(RINGING, drive, X0), full_run(WEAK, other, Y0)], t_end, dt)
        driven = integrate_full(RINGING, drive, X0, t_end, dt)
        assert h == driven.dt
        assert states[0].tobytes() == driven.states.tobytes()
        assert states[1].tobytes() == integrate_full(WEAK, other, Y0, t_end, dt).states.tobytes()

    @pytest.mark.parametrize("n_steps", [1, BLOCK_STEPS - 1, PASS_STEPS + 1, 2 * PASS_STEPS + 5] + EDGE_STEPS)
    @pytest.mark.parametrize("free", ["full", "reduced"])
    def test_rejects_driven_and_free_members(self, n_steps, free):
        # A free member would propagate the augmented map and round differently
        # from its run alone, so a batch is all driven or all free.
        drive = DriveParams(delta=0.05, amplitude=1.3)
        t_end = n_steps * 0.01
        free_run = full_run(WEAK, FREE, Y0) if free == "full" else reduced_run(WEAK, M0)
        for runs in ([full_run(WEAK, drive, X0), free_run], [free_run, full_run(WEAK, drive, X0)]):
            with pytest.raises(ValueError, match="mix driven and free"):
                dynamics._integrate_batch(runs, t_end, 0.01)

    @pytest.mark.parametrize("n_steps", [1, BLOCK_STEPS - 1, PASS_STEPS + 1, 2 * PASS_STEPS + 5] + EDGE_STEPS)
    def test_full_and_reduced_members_equal_their_runs_alone(self, n_steps):
        t_end = n_steps * 0.01
        full = integrate_full(WEAK, FREE, X0, t_end, 0.01)
        reduced = integrate_adiabatic(build_adiabatic_model(WEAK), M0, t_end, 0.01)
        states, _ = dynamics._integrate_batch([full_run(WEAK, FREE, X0), reduced_run(WEAK, M0)], t_end, 0.01)
        assert states[0].tobytes() == full.states.tobytes()
        assert states[1, :, 1:].tobytes() == reduced.states.tobytes()
        assert not states[1, :, 0].any()  # the reduced member's cavity slot stays exactly 0
        swapped, _ = dynamics._integrate_batch([reduced_run(WEAK, M0), full_run(WEAK, FREE, X0)], t_end, 0.01)
        assert swapped[::-1].tobytes() == states.tobytes()

    @pytest.mark.parametrize("n_steps,stride", [(20000, 7), (999, 64)])
    def test_strided_members_equal_their_runs_alone(self, n_steps, stride):
        assert n_steps % stride  # every member ends with a tail step
        drive = DriveParams(delta=-0.02, amplitude=0.7)
        dt = accurate_dt(build_driven_system(WEAK, drive).matrix)
        t_end = n_steps * dt
        other = DriveParams(delta=0.3, amplitude=1.1)
        driven, _ = dynamics._integrate_batch([full_run(WEAK, drive, X0), full_run(RINGING, other, Y0)], t_end, dt, stride)
        assert driven.shape == (2, n_steps // stride + 2, 3)
        assert driven[0].tobytes() == integrate_full(WEAK, drive, X0, t_end, dt, stride).states.tobytes()
        assert driven[1].tobytes() == integrate_full(RINGING, other, Y0, t_end, dt, stride).states.tobytes()
        states, _ = dynamics._integrate_batch([full_run(WEAK, FREE, Y0), reduced_run(WEAK, M0)], t_end, dt, stride)
        assert states.shape == (2, n_steps // stride + 2, 3)
        assert states[0].tobytes() == integrate_full(WEAK, FREE, Y0, t_end, dt, stride).states.tobytes()
        alone = dynamics._integrate_linear(*reduced_run(WEAK, M0), t_end, dt, stride)
        assert states[1, :, 1:].tobytes() == alone.states.tobytes()

    @pytest.mark.parametrize("n_steps,stride", [(n, 1) for n in [1, BLOCK_STEPS - 1, PASS_STEPS + 1, 2 * PASS_STEPS + 5]
                                                 + EDGE_STEPS] + [(20000, 7), (999, 64), (3 * PASS_STEPS + 5, 3)])
    @pytest.mark.parametrize("driven", [False, True])
    def test_blocks_are_the_rows_in_order(self, n_steps, stride, driven):
        # With on_block the rows pass through a ring of 2 MAX_SPAN rows: the blocks
        # handed out, the tail row included, are byte for byte the stored rows.
        drive = DriveParams(delta=0.05, amplitude=1.3) if driven else FREE
        runs = [full_run(RINGING, drive, X0), full_run(WEAK, drive, Y0)]
        dt = accurate_dt(build_driven_system(RINGING, drive).matrix)
        t_end = n_steps * dt
        stored, _ = dynamics._integrate_batch(runs, t_end, dt, stride)
        blocks = []
        states, _ = dynamics._integrate_batch(runs, t_end, dt, stride, on_block=lambda block: blocks.append(block.copy()))
        assert states is None
        assert all(0 < block.shape[1] <= MAX_SPAN for block in blocks)
        assert np.concatenate(blocks, axis=1).tobytes() == stored.tobytes()

    @pytest.mark.parametrize("first,second", [
        ("stable", "unstable"),
        ("stable", "overflowing"),
        ("unstable", "overflowing"),
        ("overflowing", "unstable"),
    ])
    def test_rejects_with_the_message_of_its_first_failing_member(self, first, second):
        params = {
            "stable": WEAK,
            # Lossless magnons at +-60: h |lambda| = 3.4 lies past the RK4 bound 2 sqrt(2).
            "unstable": SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=60),
            "overflowing": SystemParams(kappa=1.67, gamma1=1e150, gamma2=0.98, g1=1.0, g2=1.57, s=27),
        }
        runs = [full_run(params[first], FREE, X0), full_run(params[second], FREE, Y0)]
        culprit = params[second if first == "stable" else first]
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as alone:
                integrate_full(culprit, FREE, X0, t_end=27.5, dt=0.0574)
            with pytest.raises(ValueError) as batch:
                dynamics._integrate_batch(runs, t_end=27.5, dt=0.0574)
        assert "stability" in str(alone.value) or "overflows" in str(alone.value)
        assert str(batch.value) == str(alone.value)

    def test_rejects_with_the_message_of_an_amplifying_reduced_member(self):
        # The reduced member's zero cavity row gives its map the phantom
        # eigenvalue exactly 1, so the check reads it as it reads a full member.
        unstable = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=60)
        with pytest.raises(ValueError, match="stability") as alone:
            integrate_adiabatic(build_adiabatic_model(unstable), M0, t_end=27.5, dt=0.0574)
        with pytest.raises(ValueError) as batch:
            dynamics._integrate_batch([full_run(WEAK, FREE, X0), reduced_run(unstable, M0)], t_end=27.5, dt=0.0574)
        assert str(batch.value) == str(alone.value)


class TestIntegrateFull:
    def test_free_decay_to_vacuum(self):
        traj = integrate_full(STRONG, DriveParams(delta=0.0, amplitude=0.0),
                              [1.0, 0.5j, -0.25], t_end=30.0, dt=0.02)
        assert np.linalg.norm(traj.states[-1]) < 1e-10
        assert traj.final_residual < 1e-10

    def test_converges_to_closed_form_steady_state(self):
        drive = DriveParams(delta=0.0, amplitude=1.0)
        traj = integrate_full(WEAK, drive, np.zeros(3), t_end=50 / 0.05, dt=0.05)
        point = steady_state(WEAK, drive)
        target = np.array([point.a, point.m1, point.m2])
        assert np.linalg.norm(traj.states[-1] - target) < 1e-8

    def test_decoupled_magnons_stay_dark(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0, g2=0, s=0.3)
        traj = integrate_full(p, DriveParams(delta=0.0, amplitude=1.0),
                              np.zeros(3), t_end=20.0, dt=0.02)
        assert np.abs(traj.states[:, 1:]).max() == 0.0

    def test_matches_exact_propagator(self):
        drive = DriveParams(delta=0.3, amplitude=1.0)
        x0 = np.array([0.2, -0.1j, 0.05 + 0.05j])
        traj = integrate_full(STRONG, drive, x0, t_end=10.0, dt=1e-3)
        exact = propagate_exact(STRONG, drive, x0, 10.0)
        assert np.linalg.norm(traj.states[-1] - exact) < 1e-8

    def test_fourth_order_convergence(self):
        drive = DriveParams(delta=0.3, amplitude=1.0)
        x0 = np.array([0.2, -0.1j, 0.05 + 0.05j])
        exact = propagate_exact(STRONG, drive, x0, 5.0)
        errors = []
        for dt in (0.05, 0.025):
            traj = integrate_full(STRONG, drive, x0, t_end=5.0, dt=dt)
            errors.append(np.linalg.norm(traj.states[-1] - exact))
        assert errors[0] / errors[1] >= 12.0

    def test_monotone_approach_on_trajectory_tail(self):
        drive = DriveParams(delta=0.1, amplitude=1.0)
        traj = integrate_full(STRONG, drive, np.zeros(3), t_end=40.0, dt=0.02)
        point = steady_state(STRONG, drive)
        target = np.array([point.a, point.m1, point.m2])
        distance = np.linalg.norm(traj.states - target, axis=1)
        tail = distance[-(len(distance) // 5):]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_times_strictly_increasing(self):
        traj = integrate_full(WEAK, DriveParams(), np.zeros(3), t_end=1.0, dt=0.01)
        assert np.all(np.diff(traj.times) > 0)

    def test_rejects_unstable_step(self):
        # stiffest decay ~ kappa; RK4 blows up past dt ~ 2.8/kappa
        with pytest.raises(ValueError):
            integrate_full(STRONG, DriveParams(), np.zeros(3), t_end=10.0, dt=3.0)

    def test_rejects_lossless_oscillation_outside_stability_region(self):
        # No decay rate limits dt here, but |R(h lambda)| > 1 for h|lambda| ~ 5:
        # the step-by-step loop grew this state to ~1e133 by t = 50.
        lossless = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=10)
        with pytest.raises(ValueError, match="stability"):
            integrate_full(lossless, DriveParams(), [0.0, 1.0, 1j], t_end=50.0, dt=0.5)

    def test_stability_rule_is_exact_on_the_imaginary_axis(self):
        # Undamped magnons at frequencies +-1: |R(iy)| <= 1 exactly for y <= 2 sqrt(2).
        p = SystemParams(kappa=0.1, gamma1=0, gamma2=0, g1=0, g2=0, s=1)
        traj = integrate_full(p, FREE, [0.0, 1.0, 1j], t_end=28.0, dt=2.8)
        assert np.abs(traj.states).max() <= 1.0
        with pytest.raises(ValueError, match="stability"):
            integrate_full(p, FREE, [0.0, 1.0, 1j], t_end=28.5, dt=2.85)

    def test_undamped_dark_mode_is_accepted_and_kept(self):
        # Lossless symmetric magnons at s = 0: the dark mode has eigenvalue exactly 0,
        # so the step map's spectral radius is 1; here it is computed as 1 + 6.7e-16.
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.8, g2=0.8, s=0)
        dark = np.array([0.0, 1.0, -1.0]) / SQRT2
        traj = integrate_full(p, FREE, dark, t_end=800.0, dt=0.08)
        assert_allclose(traj.states[-1], dark, atol=1e-12)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_full(WEAK, DriveParams(), np.zeros(3), t_end=1.0, dt=0.0)

    def test_rejects_wrong_state_shape(self):
        with pytest.raises(ValueError):
            integrate_full(WEAK, DriveParams(), np.zeros(2), t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError, match="finite"):
            integrate_full(WEAK, DriveParams(), [0.0, bad, 0.0], t_end=1.0, dt=0.01)

    def test_rejects_overflowing_step_map(self):
        # z^3 / 24 overflows for a damping of 1e150: the map is not finite.
        p = SystemParams(kappa=1.67, gamma1=1e150, gamma2=0.98, g1=1.0, g2=1.57, s=27)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"dt=0\.0574 overflows the RK4 step map"):
            integrate_full(p, FREE, np.zeros(3), t_end=27.5, dt=0.0574)


class TestQuietRejection:
    @pytest.mark.parametrize("run", [
        lambda: adiabatic_validity_report(SystemParams(g1=1e200, g2=1e200), [1, 0.5j], 10.0, 0.01),
        lambda: integrate_full(SystemParams(kappa=1.67, gamma1=1e150, gamma2=0.98, g1=1.0, g2=1.57, s=27),
                               FREE, np.zeros(3), t_end=27.5, dt=0.0574),
    ], ids=["report", "integrate_full"])
    def test_overflowing_step_map_raises_without_warnings(self, run):
        # Warnings turned into errors must not preempt the ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as quiet:
                run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as strict:
                run()
        assert "overflows the RK4 step map" in str(strict.value)
        assert str(strict.value) == str(quiet.value)


class TestStepCount:
    @pytest.mark.parametrize("t_end,dt", [(1.0, np.inf), (1.0, np.nan), (np.inf, 0.1), (np.nan, 0.1),
                                          (1.0, -0.1), (0.0, 0.1)])
    def test_rejects_non_finite_or_non_positive(self, t_end, dt):
        with pytest.raises(ValueError, match="positive and finite"):
            step_count(t_end, dt)


class TestIntegrateAdiabatic:
    def test_bright_combination_decays_superradiantly(self):
        # At s=0 the (1,1)/sqrt(2) combination decays at gamma + 2 g^2/kappa.
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0)
        model = build_adiabatic_model(p)
        bright = np.array([1.0, 1.0]) / SQRT2
        traj = integrate_adiabatic(model, bright, t_end=10.0, dt=0.01)
        rate = 0.01 + 2 * 0.04
        expected = math.exp(-rate * 10.0)
        assert np.linalg.norm(traj.states[-1]) == pytest.approx(expected, rel=1e-8)

    def test_dark_combination_decays_at_bare_rate(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0)
        model = build_adiabatic_model(p)
        dark = np.array([1.0, -1.0]) / SQRT2
        traj = integrate_adiabatic(model, dark, t_end=10.0, dt=0.01)
        expected = math.exp(-0.01 * 10.0)
        assert np.linalg.norm(traj.states[-1]) == pytest.approx(expected, rel=1e-8)

    def test_norm_non_increasing(self):
        p = SystemParams(kappa=1, gamma1=0.02, gamma2=0.03, g1=0.3, g2=0.2, s=0.1)
        traj = integrate_adiabatic(build_adiabatic_model(p), [0.8, -0.6j], t_end=20.0, dt=0.01)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_rejects_wrong_state_shape(self):
        with pytest.raises(ValueError):
            integrate_adiabatic(build_adiabatic_model(WEAK), np.zeros(3), t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError, match="finite"):
            integrate_adiabatic(build_adiabatic_model(WEAK), [bad, 0.0], t_end=1.0, dt=0.01)


class TestSlavedCavity:
    def test_formula(self):
        p = SystemParams(kappa=2.0, g1=0.4, g2=0.6)
        assert slaved_cavity_amplitude(p, 1.0, 1j) == pytest.approx(
            -1j * (0.4 * 1.0 + 0.6 * 1j) / 2.0
        )


def report_reference(params, m0, t_end, dt):
    """The validity report from integrate_full and integrate_adiabatic run alone, squares summed by row."""
    m0 = np.array(m0, dtype=complex)
    m0 = np.ldexp(m0.view(float), -math.frexp(np.abs(m0.view(float)).max())[1]).view(complex)
    full0 = np.array([slaved_cavity_amplitude(params, m0[0], m0[1]), m0[0], m0[1]])
    full = integrate_full(params, FREE, full0, t_end, dt)
    reduced = integrate_adiabatic(build_adiabatic_model(params), m0, t_end, dt)
    parts = (full.states[:, 1:] - reduced.states).view(float)
    parts *= parts
    squares = parts[:, 0] + parts[:, 1] + parts[:, 2] + parts[:, 3]
    return math.sqrt(squares.max()) / np.linalg.norm(m0)


class TestAdiabaticValidityReport:
    def test_weak_coupling_regime_is_accurate(self):
        deviation = adiabatic_validity_report(WEAK, [1.0, 0.0], t_end=100.0, dt=0.01)
        assert deviation <= 0.1

    def test_strong_coupling_regime_fails(self):
        deviation = adiabatic_validity_report(STRONG, [1.0, 0.0], t_end=20.0, dt=0.002)
        assert deviation > 0.5

    @pytest.mark.parametrize("params,m0,t_end,dt", [
        (WEAK, [1.0, 0.5j], 100.0, 0.01),
        (STRONG, [0.3 - 0.2j, 1.0], 20.0, 0.002),
    ])
    def test_matches_the_largest_norm_of_the_trajectory_difference(self, params, m0, t_end, dt):
        m0 = np.array(m0, dtype=complex)
        full0 = np.array([slaved_cavity_amplitude(params, m0[0], m0[1]), m0[0], m0[1]])
        full = integrate_full(params, DriveParams(delta=0.0, amplitude=0.0), full0, t_end, dt)
        reduced = integrate_adiabatic(build_adiabatic_model(params), m0, t_end, dt)
        expected = np.linalg.norm(full.states[:, 1:] - reduced.states, axis=1).max() / np.linalg.norm(m0)
        # The same squares summed in another order: a few ulps apart at most.
        assert adiabatic_validity_report(params, m0, t_end, dt) == pytest.approx(expected, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("params,m0,n_steps,dt", [
        (WEAK, [0.75 + 0.25j, -0.5j], 1, 0.01),
        (WEAK, [1.0, 0.5j], 10000, 0.01),
        (STRONG, [0.3 - 0.2j, 1.0], 10000, 0.002),
        (WEAK, [1e-200 - 3e-201j, 2e-201j], BLOCK_STEPS - 1, 0.1),
        (WEAK, [-0.6 + 2.0j, 0.1], 2 * PASS_STEPS + 5, 0.01),
    ])
    def test_equals_the_deviation_of_the_runs_alone(self, params, m0, n_steps, dt):
        assert adiabatic_validity_report(params, m0, n_steps * dt, dt) == report_reference(params, m0, n_steps * dt, dt)

    @given(system_params_strategy(), st.lists(unit_floats, min_size=4, max_size=4), step_counts)
    @settings(max_examples=50, deadline=None)
    def test_equals_the_deviation_of_the_runs_alone_on_random_systems(self, p, parts, n_steps):
        m0 = np.array(parts[:2]) + 1j * np.array(parts[2:])
        if not m0.any():
            m0[0] = 1.0
        dt = min(accurate_dt(build_driven_system(p, FREE).matrix), accurate_dt(build_adiabatic_model(p).matrix))
        assert adiabatic_validity_report(p, m0, n_steps * dt, dt) == report_reference(p, m0, n_steps * dt, dt)

    @pytest.mark.parametrize("n_steps", [10**5, 10**6])
    def test_keeps_a_ring_of_rows_not_the_runs(self, n_steps):
        # The report folds each block of rows into its maximum and keeps only a
        # ring of 2 MAX_SPAN rows per member: 0.99 MB traced at either length,
        # where storing both runs takes 9.6 MB per 10**5 steps.
        tracemalloc.start()
        try:
            deviation = adiabatic_validity_report(WEAK, [1.0, 0.5j], n_steps * 0.01, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        if n_steps == 10**5:
            assert deviation == report_reference(WEAK, [1.0, 0.5j], n_steps * 0.01, 0.01)

    def test_decoupled_systems_agree_exactly(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0, g2=0, s=0.3)
        assert adiabatic_validity_report(p, [1.0, 0.5j], t_end=10.0, dt=0.01) == 0.0

    def test_decoupled_systems_agree_exactly_across_passes(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0, g2=0, s=0.3)
        n_steps = 2 * BLOCK_STEPS**2 + 5
        assert adiabatic_validity_report(p, [1.0, 0.5j], t_end=n_steps * 0.01, dt=0.01) == 0.0

    @pytest.mark.parametrize("m0,exponent", [
        ([1e200, 0.0], -700),
        ([1e-320, 0.0], 1100),
        ([1e300 + 1e300j, -1e299j], -1000),
        ([3e-310, -1e-320j], 1030),
    ])
    def test_does_not_depend_on_the_scale_of_the_initial_state(self, m0, exponent):
        # Squares of these amplitudes overflow or underflow; scaled by 2**exponent
        # they are ordinary, and the report is the same to the bit.
        m0 = np.array(m0, dtype=complex)
        ordinary = np.ldexp(m0.view(float), exponent).view(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deviation = adiabatic_validity_report(WEAK, m0, t_end=20.0, dt=0.01)
        assert deviation == adiabatic_validity_report(WEAK, ordinary, t_end=20.0, dt=0.01)
        assert 0 < deviation <= 0.1

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_initial_state(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                adiabatic_validity_report(WEAK, [bad, 0.0], t_end=1.0)

    def test_rejects_zero_initial_state(self):
        with pytest.raises(ValueError):
            adiabatic_validity_report(WEAK, [0.0, 0.0], t_end=1.0)
