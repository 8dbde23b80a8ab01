"""Tests for eigenvalue computation, branch tracking and the EP search."""

import cmath
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavitymagnons.closed_forms import adiabatic_eigenvalues, closed_form_symmetric, weak_coupling_approx
from cavitymagnons.model import SystemParams, build_adiabatic_model, build_full_hamiltonian
from cavitymagnons.spectra import (
    EP_GAP_TOLERANCE,
    TRACK_BLOCK_STEPS,
    ExceptionalPoint,
    ExceptionalPointNotFound,
    _magnon_pair,
    eigenvalues_3x3,
    find_exceptional_point,
    sweep_eigenvalues,
    track_branches,
)

from conftest import best_match_errors, couplings, kappas, splittings, system_params_strategy

SQRT2 = math.sqrt(2.0)

params_strategy = system_params_strategy()


def track_branches_reference(raw, ambiguity_tol=1e-9):
    """Per-step nearest-matching tracker: the loop that track_branches vectorizes."""
    raw = np.asarray(raw, dtype=complex)
    n, k = raw.shape
    tracked = raw.copy()
    ambiguous_steps = []
    perms = list(itertools.permutations(range(k)))
    for i in range(1, n):
        prev = tracked[i - 1]
        costs = [sum(abs(raw[i, p[j]] - prev[j]) for j in range(k)) for p in perms]
        order = int(np.argmin(costs))
        best = costs[order]
        runner_up = min(c for m, c in enumerate(costs) if m != order)
        scale = max(best, np.abs(raw[i]).max(), 1e-300)
        if runner_up - best <= ambiguity_tol * scale:
            ambiguous_steps.append(i)
        tracked[i] = raw[i, list(perms[order])]
    return tracked, ambiguous_steps


def pair_gap_reference(params, s, adiabatic):
    """Gap and mean of the magnon-like pair, building and solving H(s) at each s."""
    if adiabatic:
        m = build_adiabatic_model(params, s=s).matrix
        mean = (m[0, 0] + m[1, 1]) / 2.0
        radical = cmath.sqrt(((m[0, 0] - m[1, 1]) / 2.0) ** 2 + m[0, 1] * m[1, 0])
        values = np.array([mean + radical, mean - radical], dtype=complex)
    else:
        values = eigenvalues_3x3(build_full_hamiltonian(params, s=s))
        values = np.delete(values, np.argmin(values.imag))
    return abs(values[0] - values[1]), complex(values.mean())


# Bracket width at which the reference search stops, in kappa units.  The gap
# rises as sqrt(|s - s_ep|) away from a coalescence, so reaching a 1e-6 gap
# requires localizing s far more tightly than 1e-6.
REFERENCE_SEARCH_XATOL = 1e-13


def golden_section_min(func, a, b, xatol):
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Uses an absolute interval tolerance: unlike smooth-minimum stopping rules
    (which give up at sqrt(eps)*|x| resolution) this keeps shrinking the
    bracket, which matters at a square-root cusp where the function still
    varies strongly at tiny scales.  It never returns when xatol is below the
    float spacing of the bracket.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = func(x1), func(x2)
    while b - a > xatol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = func(x2)
    return 0.5 * (a + b)


def find_exceptional_point_reference(params, s_min, s_max, model):
    """Golden-section minimum of pair_gap_reference, without the tolerance check.

    The search that the discriminant roots replaced; with one coalescence in
    the bracket it lands on it.
    """
    adiabatic = model == "adiabatic"
    location = golden_section_min(
        lambda s: pair_gap_reference(params, s, adiabatic)[0],
        float(s_min), float(s_max), REFERENCE_SEARCH_XATOL * params.kappa,
    )
    gap, value = pair_gap_reference(params, location, adiabatic)
    return ExceptionalPoint(location=location, degenerate_value=value, gap_at_location=gap)


# Sweep lengths around the tracker's block boundaries.
BLOCK_EDGE_SIZES = (1, 2, TRACK_BLOCK_STEPS - 1, TRACK_BLOCK_STEPS, TRACK_BLOCK_STEPS + 1,
                    2 * TRACK_BLOCK_STEPS + 1)


def char_poly_residual(h, lam):
    """|det(lam I - h)| by cofactor expansion.

    An LU determinant divides by its pivots and returns NaN when one is tiny
    (g1 = 5e-308 with an exact eigenvalue); the expansion only multiplies.
    """
    m = lam * np.eye(3) - h
    return abs(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestEigenvalues3x3:
    def test_symmetric_strong_coupling(self):
        h = build_full_hamiltonian(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0))
        expected = np.array([-1j, 2 * SQRT2 - 1j, -2 * SQRT2 - 1j])
        assert best_match_errors(eigenvalues_3x3(h), expected).max() < 1e-12

    def test_decoupled_block_diagonal(self):
        h = build_full_hamiltonian(SystemParams(kappa=2, gamma1=0.3, gamma2=0.7, g1=0, g2=0, s=1.5))
        expected = np.array([-2j, 1.5 - 0.3j, -1.5 - 0.7j])
        assert best_match_errors(eigenvalues_3x3(h), expected).max() < 1e-14

    def test_against_companion_matrix_oracle(self):
        h = build_full_hamiltonian(SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.1))
        coeffs = np.poly(h)
        oracle = np.roots(coeffs)  # companion-matrix eigensolver
        assert best_match_errors(eigenvalues_3x3(h), oracle).max() < 1e-9

    @given(params_strategy)
    @settings(max_examples=150)
    def test_against_lapack_oracle(self, params):
        h = build_full_hamiltonian(params)
        mine = eigenvalues_3x3(h)
        oracle = np.linalg.eigvals(h)
        scale = max(1.0, np.abs(oracle).max())
        # Multiple roots are ill-conditioned for every solver (eps**(1/3) for a
        # triple root), so the value comparison is tiered on root separation.
        gaps = [abs(oracle[i] - oracle[j]) for i in range(3) for j in range(i + 1, 3)]
        tol = 1e-9 * scale if min(gaps) > 1e-3 * scale else 1e-5 * scale
        assert best_match_errors(mine, oracle).max() < tol

    @given(params_strategy)
    @settings(max_examples=150)
    def test_root_sum_and_product(self, params):
        h = build_full_hamiltonian(params)
        roots = eigenvalues_3x3(h)
        trace = np.trace(h)
        det = np.linalg.det(h)
        # Members of a degenerate cluster carry the intrinsic eps**(1/3) root
        # sensitivity (~6e-6 relative), so the identity checks are tiered.
        scale = max(1.0, np.abs(roots).max())
        gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
        tol = 1e-10 if min(gaps) > 1e-3 * scale else 1e-4
        assert abs(roots.sum() - trace) < tol * max(1.0, abs(trace), scale)
        assert abs(roots.prod() - det) < max(tol, 1e-9) * max(1.0, abs(det), scale ** 3)

    @given(params_strategy)
    @example(SystemParams(kappa=1.0, gamma1=0.0, gamma2=0.0, g1=5.082810711395547e-308, g2=1.0, s=2.0))
    @settings(max_examples=100)
    def test_polished_roots_satisfy_characteristic_equation(self, params):
        h = build_full_hamiltonian(params)
        norm = np.linalg.norm(h)
        for lam in eigenvalues_3x3(h):
            assert char_poly_residual(h, lam) <= 1e-9 * max(1.0, norm) ** 3

    def test_rejects_non_finite(self):
        h = np.eye(3, dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            eigenvalues_3x3(h)
        with pytest.raises(ValueError):
            eigenvalues_3x3(np.stack([np.eye(3), h]))

    @given(params_strategy, st.integers(min_value=1, max_value=40))
    @settings(max_examples=50)
    def test_stack_matches_single_matrices_exactly(self, params, n):
        s_values = np.linspace(-abs(params.s) - 1.0, abs(params.s) + 1.0, n)
        stacked = eigenvalues_3x3(build_full_hamiltonian(params, s=s_values))
        assert stacked.shape == (n, 3)
        for i, s in enumerate(s_values):
            single = eigenvalues_3x3(build_full_hamiltonian(SystemParams(
                kappa=params.kappa, gamma1=params.gamma1, gamma2=params.gamma2,
                g1=params.g1, g2=params.g2, s=float(s))))
            assert np.array_equal(stacked[i], single)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eigenvalues_3x3(np.eye(2))


class TestClosedFormSymmetric:
    def test_minimum_gap_is_two_sqrt_two_g(self):
        values = closed_form_symmetric(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0))
        gap = values[1].real - values[2].real
        assert gap == pytest.approx(4 * SQRT2, abs=1e-14)

    def test_detuned_plus_branch(self):
        values = closed_form_symmetric(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=3))
        assert values[1] == pytest.approx(math.sqrt(17) - 1j, abs=1e-14)

    def test_triple_degeneracy_without_coupling(self):
        values = closed_form_symmetric(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=0, g2=0, s=0))
        assert_allclose(values, np.full(3, -1j), atol=0)

    @given(kappas, couplings, splittings)
    @settings(max_examples=100)
    def test_agrees_with_cubic_solver(self, kappa, g, s):
        p = SystemParams(kappa=kappa, gamma1=kappa, gamma2=kappa, g1=g, g2=g, s=s)
        closed = closed_form_symmetric(p)
        numeric = eigenvalues_3x3(build_full_hamiltonian(p))
        scale = max(1.0, np.abs(closed).max())
        split = math.sqrt(s * s + 2 * g * g)
        tol = 1e-10 * scale if split > 1e-3 * scale else 1e-5 * scale
        assert best_match_errors(numeric, closed).max() < tol

    def test_rejects_unequal_dampings(self):
        with pytest.raises(ValueError):
            closed_form_symmetric(SystemParams(kappa=1, gamma1=0.5, gamma2=1, g1=1, g2=1))


class TestWeakCouplingApprox:
    def test_resonant_narrow_and_broad_modes(self):
        # s=0: lambda+ = 0 exactly, lambda- = -2i*Gamma
        values = weak_coupling_approx(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=0))
        assert values[1] == pytest.approx(0.0, abs=1e-15)
        assert values[2] == pytest.approx(-0.08j, abs=1e-15)

    def test_coalescence_at_induced_rate(self):
        # 0.2**2 != 0.04 exactly in binary, so the radical leaves ~1e-9 crumbs.
        values = weak_coupling_approx(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=0.04))
        assert values[1] == pytest.approx(values[2], abs=1e-8)
        assert values[1] == pytest.approx(-0.04j, abs=1e-8)

    def test_narrow_mode_quadratic_linewidth(self):
        # For s << Gamma the narrow branch approaches -i s^2 / (2 Gamma).
        values = weak_coupling_approx(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=0.01))
        gamma_big = 0.04
        target = -1j * 0.01 ** 2 / (2 * gamma_big)
        assert abs(values[1] - target) <= 0.05 * abs(target)

    def test_cavity_branch_linewidth_reduction(self):
        values = weak_coupling_approx(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=0))
        assert values[0] == pytest.approx(-1j * (1 - 0.08), abs=1e-15)

    def test_rejects_asymmetric_couplings(self):
        with pytest.raises(ValueError):
            weak_coupling_approx(SystemParams(g1=0.1, g2=0.2))

    def test_level_attraction_window_real_parts_coincide(self):
        for s in np.linspace(-0.039, 0.039, 21):
            values = weak_coupling_approx(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=s))
            assert values[1].real == pytest.approx(0.0, abs=1e-15)
            assert values[2].real == pytest.approx(0.0, abs=1e-15)


class TestAdiabaticEigenvalues:
    def test_coalesced_at_phase_transition(self):
        # 0.2**2 != 0.04 exactly in binary, so the radical leaves ~1e-9 crumbs.
        model = build_adiabatic_model(SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04))
        values = adiabatic_eigenvalues(model)
        assert values[0] == pytest.approx(-0.05j, abs=1e-8)
        assert values[1] == pytest.approx(-0.05j, abs=1e-8)

    def test_large_detuning_limit(self):
        # |s| >> Gamma: real parts approach the bare +-s, common width gamma + Gamma
        model = build_adiabatic_model(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=2.0))
        values = adiabatic_eigenvalues(model)
        real_parts = sorted(v.real for v in values)
        assert real_parts[1] == pytest.approx(2.0, rel=1e-3)
        assert real_parts[0] == pytest.approx(-2.0, rel=1e-3)
        for v in values:
            assert v.imag == pytest.approx(-0.04, abs=1e-12)

    def test_matches_weak_coupling_form_for_zero_gamma(self):
        for s in np.linspace(-0.1, 0.1, 41):
            p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=s)
            reduced = adiabatic_eigenvalues(build_adiabatic_model(p))
            approx = weak_coupling_approx(p)[1:]
            assert best_match_errors(reduced, approx).max() < 1e-14

    def test_rejects_unequal_dressed_dampings(self):
        model = build_adiabatic_model(SystemParams(gamma1=0.01, gamma2=0.02))
        with pytest.raises(ValueError):
            adiabatic_eigenvalues(model)


class TestBranchTracking:
    def test_tracking_only_permutes(self):
        params = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2)
        branch_set = sweep_eigenvalues(params, -0.2, 0.2, 101)
        for i, s in enumerate(branch_set.sweep_values):
            raw = eigenvalues_3x3(build_full_hamiltonian(SystemParams(
                kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=float(s))))
            assert best_match_errors(np.sort_complex(branch_set.branches[i]), np.sort_complex(raw)).max() == 0

    def test_branches_are_continuous(self):
        params = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2)
        branch_set = sweep_eigenvalues(params, -6, 6, 241)
        steps = np.abs(np.diff(branch_set.branches, axis=0))
        # With this grid no branch should jump by more than a few grid steps in value.
        assert steps.max() < 0.3

    def test_single_point_sweep(self):
        params = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0.5)
        branch_set = sweep_eigenvalues(params, 0.5, 0.5, 1)
        raw = eigenvalues_3x3(build_full_hamiltonian(params))
        assert best_match_errors(branch_set.branches[0], raw).max() == 0

    def test_identity_preferred_on_ties(self):
        raw = np.array([[1 + 0j, -1 + 0j], [1 + 0j, -1 + 0j]])
        tracked, ambiguous = track_branches(raw)
        assert_allclose(tracked, raw)
        assert not ambiguous

    def test_coalesced_steps_are_flagged(self):
        raw = np.array([[0.5 + 0j, -0.5 + 0j], [0.1 + 0j, 0.1 + 0j]])
        tracked, ambiguous = track_branches(raw)
        assert ambiguous == [1]

    def test_strong_coupling_gap(self):
        # Repulsion: minimum real-part gap between the outer branches is 2*sqrt(2)*g.
        branch_set = sweep_eigenvalues(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2), -6, 6, 241)
        plus, minus = branch_set.magnon_branch_indices()
        gap = branch_set.branches[:, plus].real - branch_set.branches[:, minus].real
        assert gap.min() == pytest.approx(4 * SQRT2, abs=1e-9)
        assert branch_set.sweep_values[np.argmin(gap)] == pytest.approx(0.0, abs=1e-12)

    def test_weak_coupling_attraction_window(self):
        # Attraction: the magnon-like real parts coincide for |s| below g^2/kappa.
        branch_set = sweep_eigenvalues(
            SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2), -0.2, 0.2, 201
        )
        plus, minus = branch_set.magnon_branch_indices()
        inside = np.abs(branch_set.sweep_values) < 0.04
        diff = np.abs(
            branch_set.branches[inside, plus].real - branch_set.branches[inside, minus].real
        )
        assert diff.max() < 1e-9

    @given(
        params_strategy,
        st.floats(min_value=1e-3, max_value=6.0),
        st.sampled_from(BLOCK_EDGE_SIZES),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_step_reference(self, params, half_width, n, adiabatic):
        s_values = np.linspace(-half_width, half_width, n)
        if adiabatic:
            raw = np.linalg.eigvals(build_adiabatic_model(params, s=s_values).matrix)
        else:
            raw = eigenvalues_3x3(build_full_hamiltonian(params, s=s_values))
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(BLOCK_EDGE_SIZES))
    @settings(max_examples=30, deadline=None)
    def test_random_walks_match_per_step_reference(self, seed, n):
        # Unstructured eigenvalue clouds force every permutation to be chosen.
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    def test_ties_and_coalescences_across_block_edges(self):
        n = 2 * TRACK_BLOCK_STEPS + 1
        raw = np.tile(np.array([1 + 0j, -1 + 0j, 0.5j]), (n, 1))
        coalesced = [TRACK_BLOCK_STEPS - 1, TRACK_BLOCK_STEPS, TRACK_BLOCK_STEPS + 1, n - 1]
        for i in coalesced:
            raw[i] = [0.2 + 0j, 0.2 + 0j, 0.5j]
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous
        # Every step into or out of a coalesced row is flagged; steps between
        # unchanged distinct rows are not.
        assert ambiguous == sorted({i for c in coalesced for i in (c, c + 1) if i < n})

    def test_near_tie_matches_per_step_reference(self):
        # The two assignments cost the same up to rounding, so the choice
        # depends on rounding each modulus as abs() of a complex scalar does.
        raw = np.array([
            [-0.31630015636915454 - 0.12853466294403426j, 0.4116305363741328 + 1.3664634705496859j],
            [1.0425133694426776 - 0.6651946734866133j, 1.0425133694426776 - 0.6651946734866135j],
        ])
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    @pytest.mark.parametrize("n", [1, 2, TRACK_BLOCK_STEPS + 1])
    def test_single_branch_is_returned_unchanged(self, n):
        raw = (np.linspace(-1.0, 1.0, n) - 0.1j)[:, None]
        tracked, ambiguous = track_branches(raw)
        assert tracked.shape == (n, 1)
        assert np.array_equal(tracked, raw)
        assert ambiguous == []

    def test_adiabatic_sweep_has_two_branches(self):
        branch_set = sweep_eigenvalues(SystemParams(), -0.2, 0.2, 51, adiabatic=True)
        assert branch_set.branches.shape == (51, 2)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            sweep_eigenvalues(SystemParams(), 1.0, -1.0, 10)
        with pytest.raises(ValueError):
            sweep_eigenvalues(SystemParams(), -1.0, 1.0, 0)

    @pytest.mark.parametrize("adiabatic", [False, True])
    def test_rejects_non_finite_sweep_points(self, adiabatic):
        with pytest.raises(ValueError):
            sweep_eigenvalues(SystemParams(), -math.inf, 1.0, 10, adiabatic=adiabatic)
        with pytest.raises(ValueError):
            sweep_eigenvalues(SystemParams(), -1e308, 1e308, 10, adiabatic=adiabatic)


class TestFindExceptionalPoint:
    def test_reduced_model_lossless_magnons(self):
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2)
        point = find_exceptional_point(p, 0.02, 0.06)
        assert point.location == pytest.approx(0.04, abs=1e-6)
        assert point.gap_at_location <= 1e-6

    def test_location_is_damping_independent(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2)
        point = find_exceptional_point(p, 0.02, 0.06, model="adiabatic")
        assert point.location == pytest.approx(0.04, abs=1e-6)
        assert point.degenerate_value == pytest.approx(-0.05j, abs=1e-6)

    def test_full_model_location_is_shifted_upward(self):
        # The three-mode coalescence sits above g^2/kappa by O(g^2/kappa^2)
        # relative corrections: s_ep ~ (g^2/kappa)/sqrt(1 - 2 g^2/kappa^2).
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2)
        point = find_exceptional_point(p, 0.02, 0.06, model="full")
        predicted = 0.04 / math.sqrt(1 - 2 * 0.2 ** 2)
        assert point.location == pytest.approx(predicted, abs=2e-4)
        assert point.location > 0.041

    def test_no_coupling_means_no_coalescence(self):
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0)
        with pytest.raises(ExceptionalPointNotFound):
            find_exceptional_point(p, 0.02, 0.06)

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            find_exceptional_point(SystemParams(), 0.06, 0.02)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            find_exceptional_point(SystemParams(), 0.02, 0.06, model="other")

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    @pytest.mark.parametrize("bracket", [
        (math.nan, 0.06), (0.02, math.inf), (-math.inf, math.inf), (0.02, math.nan),
        # Finite ends whose width overflows.
        (-1e308, 1e308),
    ])
    def test_rejects_non_finite_bracket(self, model, bracket):
        with pytest.raises(ValueError, match="must be finite"):
            find_exceptional_point(SystemParams(), *bracket, model=model)

    def test_not_a_number_gap_is_not_a_coalescence(self):
        # g^2/kappa overflows, so the reduced matrix holds infinities and every
        # gap is NaN; NaN must not pass the tolerance test.
        p = SystemParams(kappa=0.5, gamma1=0, gamma2=0, g1=1e154, g2=1e154)
        with np.errstate(invalid="ignore"):
            assert math.isnan(pair_gap_reference(p, 0.04, adiabatic=True)[0])
        with pytest.raises(ExceptionalPointNotFound, match="gap nan"):
            find_exceptional_point(p, 0.02, 0.06, model="adiabatic")

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    def test_overflowing_discriminant_is_not_a_coalescence(self, model):
        # g^2 overflows: no roots to take, and never a LinAlgError from them.
        p = SystemParams(g1=1e200, g2=1e200)
        with pytest.raises(ExceptionalPointNotFound, match="coefficients are not finite"):
            find_exceptional_point(p, 0.02, 0.06, model=model)

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    @pytest.mark.parametrize("params", [
        SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2),
        SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2),
        SystemParams(kappa=2, gamma1=0.05, gamma2=0.05, g1=0.6, g2=0.6),
        # Near the end of the bad-cavity regime, where the pair's gap rises
        # steeply away from the coalescence.
        SystemParams(kappa=1.2881688143730812, gamma1=0.015087734875737448,
                     gamma2=0.015087734875737448, g1=0.4889791143864091, g2=0.4889791143864091),
    ])
    def test_matches_search_over_per_point_solves(self, params, model):
        bracket = (0.5 * params.induced_rate, 1.5 * params.induced_rate)
        expected = find_exceptional_point_reference(params, *bracket, model)
        point = find_exceptional_point(params, *bracket, model=model)
        assert abs(point.location - expected.location) <= 1e-12 * params.kappa
        assert abs(point.degenerate_value - expected.degenerate_value) <= 1e-12 * params.kappa
        assert point.gap_at_location <= EP_GAP_TOLERANCE * params.kappa

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    def test_far_bracket_returns_at_once(self, model):
        # |s| ~ 1000 kappa: a bracket-shrinking search can never get its width
        # below one ulp (~1e-13) there and so never stopped on the full model.
        start = time.perf_counter()
        with pytest.raises(ExceptionalPointNotFound, match=r"no coalescence in \[1000, 1001\]"):
            find_exceptional_point(SystemParams(), 1000, 1001, model=model)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("model,root", [
        # Closed form (a11 - a00)/2 +/- sqrt(-a01*a10): the imaginary part is
        # half the difference of the dressed dampings 0.06 and 0.0725.
        ("adiabatic", 0.05 - 0.00625j),
        ("full", 0.0538674500 - 0.0071447j),
    ])
    def test_not_found_names_the_off_axis_root(self, model, root):
        p = SystemParams(gamma1=0.02, g2=0.25)
        with pytest.raises(ExceptionalPointNotFound) as err:
            find_exceptional_point(p, 0.02, 0.06, model=model)
        named = complex(re.search(r"nearest discriminant root s=(\S+)$", str(err.value)).group(1))
        assert abs(named - root) <= 1e-6

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    def test_bracket_with_both_coalescences_gives_the_lower(self, model):
        point = find_exceptional_point(SystemParams(), -0.06, 0.06, model=model)
        assert point.location < 0
        assert point == find_exceptional_point(SystemParams(), -0.06, 0.0, model=model)


class TestPairGapFunction:
    """_magnon_pair's gap and mean against building and solving H(s) at each s."""

    @given(params_strategy, splittings, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_solve_bitwise(self, params, s, adiabatic):
        # Also probe the point's own splitting and the reduced EP location.
        for at in (s, params.s, params.induced_rate, -params.induced_rate):
            gap, mean = _magnon_pair(params, at, adiabatic)
            expected_gap, expected_mean = pair_gap_reference(params, at, adiabatic)
            assert gap == expected_gap
            assert mean == expected_mean

    @pytest.mark.parametrize("params,tied", [
        # Decoupled modes: the eigenvalues are the diagonal, exactly.
        (SystemParams(kappa=1, gamma1=1, gamma2=0.5, g1=0, g2=0, s=0.3), (0, 1)),
        (SystemParams(kappa=1, gamma1=0.3, gamma2=1, g1=0, g2=0, s=0.3), (0, 2)),
        (SystemParams(kappa=1, gamma1=2, gamma2=2, g1=0, g2=0, s=0.3), (1, 2)),
        (SystemParams(kappa=1, gamma1=1, gamma2=1, g1=0, g2=0, s=0.3), (0, 1, 2)),
        # Equal linewidths with coupling: all three share -i*kappa.
        (SystemParams(kappa=1, gamma1=1, gamma2=1, g1=0.5, g2=0.5, s=0.0), (0, 1, 2)),
    ])
    def test_drops_the_first_of_tied_broadest_eigenvalues(self, params, tied):
        imag = eigenvalues_3x3(build_full_hamiltonian(params)).imag
        assert tuple(np.flatnonzero(imag == imag.min())) == tied
        gap, mean = _magnon_pair(params, params.s, adiabatic=False)
        expected_gap, expected_mean = pair_gap_reference(params, params.s, adiabatic=False)
        assert gap == expected_gap
        assert mean == expected_mean
