"""Tests for eigenvalue computation, branch tracking and the EP search."""

import cmath
import itertools
import math
import re
import struct
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavitymagnons import model as model_module
from cavitymagnons import spectra
from cavitymagnons.closed_forms import adiabatic_eigenvalues, closed_form_symmetric, weak_coupling_approx
from cavitymagnons.model import SystemParams, build_adiabatic_model, build_full_hamiltonian
from cavitymagnons.spectra import (
    AMBIGUITY_TOL,
    EP_GAP_TOLERANCE,
    ROOT_BLOCK_ROWS,
    TRACK_BLOCK_STEPS,
    EigenBranchSet,
    ExceptionalPoint,
    ExceptionalPointNotFound,
    _cubic_roots,
    _discriminant_polynomial,
    _discriminant_roots,
    _magnon_pair,
    _pair_roots,
    eigenvalues_3x3,
    find_exceptional_point,
    sweep_eigenvalues,
    track_branches,
)

from conftest import best_match_errors, couplings, kappas, matrix_stack, splittings, system_params_strategy

SQRT2 = math.sqrt(2.0)

params_strategy = system_params_strategy()


def track_branches_reference(raw, ambiguity_tol=1e-9):
    """Per-step nearest-matching tracker: the loop that track_branches vectorizes.

    Step i costs each matching sigma of raw slots (slot b at row i - 1 to slot
    sigma[b] at row i) its displacements summed in slot order, and composes
    the best onto the previous assignment.
    """
    raw = np.asarray(raw, dtype=complex)
    n, k = raw.shape
    tracked = raw.copy()
    ambiguous_steps = []
    perms = list(itertools.permutations(range(k)))
    taken = list(range(k))
    for i in range(1, n):
        costs = [sum(abs(raw[i, sigma[b]] - raw[i - 1, b]) for b in range(k)) for sigma in perms]
        order = int(np.argmin(costs))
        best = costs[order]
        runner_up = min(c for m, c in enumerate(costs) if m != order)
        scale = max(best, np.abs(raw[i]).max(), 1e-300)
        if runner_up - best <= ambiguity_tol * scale:
            ambiguous_steps.append(i)
        taken = [perms[order][q] for q in taken]
        tracked[i] = raw[i, taken]
    return tracked, ambiguous_steps


def every_step_tied(n):
    """Rows alternating an exact coalescence with two distinct values in either order."""
    raw = np.tile(np.array([1 + 0j, -1 + 0j, 0.5j]), (n, 1))
    raw[::2] = [0.2 + 0j, 0.2 + 0j, 0.5j]
    raw[1::4] = [-1 + 0j, 1 + 0j, 0.5j]
    return raw


def margin_rows(k, n):
    """n rows of k values: a spread row w, then in turn rows whose step from w lies -16 ... 16 ulps off
    track_branches' screening margin, each followed by w again.

    w holds 0 and 1, so sep = 1, and past k = 2 values 3 off the real axis (top = 3).  The other rows
    move 0 and 1 toward each other along the real axis, by x = 0.25 and 1 - z1, so disp = 1.25 - z1 and
    a swap costs exactly 2 (sep - disp) more than the identity.  The margin is where sep - disp =
    (AMBIGUITY_TOL/2 + 4 k eps) (disp + 8 top).
    """
    w = np.array([0.0, 1.0, 3j, -3j])[:k]
    top = 1.0 if k == 2 else 3.0
    slack = 0.5 * AMBIGUITY_TOL + 4 * k * np.finfo(float).eps
    z1 = 1.25 - (1.0 - 8.0 * slack * top) / (1.0 + slack)
    cycle = []
    for ulps in range(-16, 17):
        z = w.copy()
        z[0], z[1] = 0.25, z1 + ulps * np.spacing(z1)
        cycle += [w, z]
    return np.array([cycle[i % len(cycle)] for i in range(n)])


def scored_steps(raw):
    """track_branches(raw) and the steps that its screen left to be scored."""
    with mock.patch.object(spectra, "_score_step", wraps=spectra._score_step) as score:
        result = track_branches(raw)
    return result, sorted(call.args[1] for call in score.call_args_list)


def pair_gap_reference(params, s, adiabatic):
    """Gap and mean of the magnon-like pair, building and solving H(s) at each s."""
    if adiabatic:
        m = matrix_stack(params, s, adiabatic=True)
        mean = (m[0, 0] + m[1, 1]) / 2.0
        radical = cmath.sqrt(((m[0, 0] - m[1, 1]) / 2.0) ** 2 + m[0, 1] * m[1, 0])
        values = np.array([mean + radical, mean - radical], dtype=complex)
    else:
        values = eigenvalues_3x3(matrix_stack(params, s))
        values = np.delete(values, np.argmin(values.imag))
    return abs(values[0] - values[1]), complex(values.mean())


def complex_bits(values) -> bytes:
    """IEEE bits of complex values, so that signed zeros and NaN payloads compare too."""
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in map(complex, values))


def discriminant_polynomial_reference(params):
    """The full model's discriminant -4c^3 - 27d^2 through np.convolve.

    The products that _discriminant_polynomial writes out, in the complex128
    arithmetic they replaced.
    """
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = matrix_stack(params, 0.0).tolist()
    shift = (h00 + h11 + h22) / 3.0
    h00, h11, h22 = h00 - shift, h11 - shift, h22 - shift
    c = np.array([-1.0, h22 - h11, h00 * h11 + h00 * h22 + h11 * h22 - h01 * h10 - h02 * h20 - h12 * h21])
    det0 = h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20) + h02 * (h10 * h21 - h11 * h20)
    d = np.array([h00, h02 * h20 - h01 * h10 - h00 * (h22 - h11), -det0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = -4.0 * np.convolve(np.convolve(c, c), c)
        disc[2:] -= 27.0 * np.convolve(d, d)
    return disc


def discriminant_roots_reference(params, horner=object):
    """np.roots of the reference discriminant plus one Newton step through np.polyval.

    horner=object evaluates np.polyval on Python complex numbers: Horner's
    rule in np.polyval's order, each product rounded on its own.
    horner=complex is np.polyval's usual complex128 evaluation, whose products
    numpy's SIMD loops may fuse into multiply-adds (with numpy 2.4 on an
    AVX-512 x86-64 CPU, 47% of random complex products differ from Python's
    in the last bit).  The quotient is numpy's complex128 division either way.
    """
    disc = discriminant_polynomial_reference(params)
    if not np.isfinite(disc).all():
        return []
    roots = np.roots(disc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.polyval(disc.astype(horner), roots.astype(horner)).astype(complex)
        df = np.polyval(np.polyder(disc).astype(horner), roots.astype(horner)).astype(complex)
        polished = roots - f / df
    return np.where(np.isfinite(polished), polished, roots).tolist()


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


def assert_matches_lapack(values, matrix):
    """values are the eigenvalues of matrix, against LAPACK, tiered on root separation.

    Multiple roots are ill-conditioned for every solver (eps**(1/3) for a
    triple root), so the tolerance is 1e-9 * max(1, |lambda|) for separated
    roots and 1e-5 * max(1, |lambda|) for clusters.
    """
    oracle = np.linalg.eigvals(matrix)
    scale = max(1.0, np.abs(oracle).max())
    gaps = [abs(oracle[i] - oracle[j]) for i in range(len(oracle)) for j in range(i + 1, len(oracle))]
    tol = 1e-9 * scale if min(gaps) > 1e-3 * scale else 1e-5 * scale
    assert best_match_errors(values, oracle).max() < tol


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
        assert_matches_lapack(eigenvalues_3x3(h), h)

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
        stacked = eigenvalues_3x3(matrix_stack(params, s_values))
        assert stacked.shape == (n, 3)
        for i, s in enumerate(s_values):
            single = eigenvalues_3x3(build_full_hamiltonian(SystemParams(
                kappa=params.kappa, gamma1=params.gamma1, gamma2=params.gamma2,
                g1=params.g1, g2=params.g2, s=float(s))))
            assert np.array_equal(stacked[i], single)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eigenvalues_3x3(np.eye(2))


class TestRootKernels:
    """_cubic_roots and _pair_roots, the closed-form kernels behind sweep_eigenvalues."""

    @given(params_strategy, st.floats(min_value=1e-3, max_value=6.0), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_roots_satisfy_characteristic_equation(self, params, half_width, n):
        s_values = np.linspace(-half_width, half_width, n)
        h = matrix_stack(params, s_values)
        for matrix, roots in zip(h, _cubic_roots(params, s_values)):
            norm = np.linalg.norm(matrix)
            for lam in roots:
                assert char_poly_residual(matrix, lam) <= 1e-9 * max(1.0, norm) ** 3

    @given(params_strategy, st.floats(min_value=1e-3, max_value=6.0), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_root_sum_and_product(self, params, half_width, n):
        s_values = np.linspace(-half_width, half_width, n)
        h = matrix_stack(params, s_values)
        for matrix, roots in zip(h, _cubic_roots(params, s_values)):
            trace = np.trace(matrix)
            det = np.linalg.det(matrix)
            # Tiered as for eigenvalues_3x3: a degenerate cluster carries the
            # intrinsic eps**(1/3) root sensitivity.
            scale = max(1.0, np.abs(roots).max())
            gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
            tol = 1e-10 if min(gaps) > 1e-3 * scale else 1e-4
            assert abs(roots.sum() - trace) < tol * max(1.0, abs(trace), scale)
            assert abs(roots.prod() - det) < max(tol, 1e-9) * max(1.0, abs(det), scale ** 3)

    @given(params_strategy, st.floats(min_value=1e-3, max_value=6.0), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_roots_match_lapack(self, params, half_width, n):
        s_values = np.linspace(-half_width, half_width, n)
        h = matrix_stack(params, s_values)
        for matrix, roots in zip(h, _cubic_roots(params, s_values)):
            assert_matches_lapack(roots, matrix)
        m = matrix_stack(params, s_values, adiabatic=True)
        for matrix, roots in zip(m, _pair_roots(params, s_values)):
            assert_matches_lapack(roots, matrix)

    @given(params_strategy, st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_one_row_stack_equals_its_row_of_the_sweep(self, params, n):
        s_values = np.linspace(-abs(params.s) - 1.0, abs(params.s) + 1.0, n)
        full = _cubic_roots(params, s_values)
        pair = _pair_roots(params, s_values)
        for i in range(n):
            assert np.array_equal(_cubic_roots(params, s_values[i:i + 1].copy()), full[i:i + 1])
            assert np.array_equal(_pair_roots(params, s_values[i:i + 1].copy()), pair[i:i + 1])

    def test_linewidths_match_lapack(self):
        # Narrow magnons at strong coupling: |Im lambda| is 1e-4 (the dark-like
        # root) and 0.5 (the polaritons) against |lambda| up to ~140.
        params = SystemParams(kappa=1, gamma1=1e-4, gamma2=1e-4, g1=50, g2=50)
        s_values = np.linspace(-100, 100, 2001)
        roots, oracle = _cubic_roots(params, s_values), np.linalg.eigvals(matrix_stack(params, s_values))
        # The real parts are at least 2 g apart, so sorting on them pairs the roots.
        roots = np.take_along_axis(roots, np.argsort(roots.real, axis=1), axis=1)
        oracle = np.take_along_axis(oracle, np.argsort(oracle.real, axis=1), axis=1)
        relative = np.abs(roots.imag - oracle.imag) / np.abs(oracle.imag)
        # Unpolished, Cardano's cancellation leaves 1e-10 in the narrow root
        # and 1e-13 in the polaritons; the polish brings them to 1e-12 and 3e-14.
        assert relative.max() <= 2e-12
        assert relative[:, [0, 2]].max() <= 5e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cardano_takes_the_larger_branch(self, sign):
        # Scaled by 1/4, kappa = 4, gamma = g = 1 and s = +/-1 give p = 0 and
        # q = -2i/64 exactly: one of -q/2 +/- sqrt(q^2/4) is exactly 0, and
        # taking it would read as a triple root.
        params = SystemParams(kappa=4, gamma1=1, gamma2=1, g1=1, g2=1)
        assert_matches_lapack(_cubic_roots(params, np.array([sign]))[0], matrix_stack(params, sign))

    def test_blocks_do_not_change_the_roots(self, monkeypatch):
        s_values = np.linspace(-3.0, 3.0, 2 * ROOT_BLOCK_ROWS + 1)
        full, pair = _cubic_roots(SystemParams(), s_values), _pair_roots(SystemParams(), s_values)
        monkeypatch.setattr(spectra, "ROOT_BLOCK_ROWS", len(s_values))
        assert np.array_equal(_cubic_roots(SystemParams(), s_values), full)
        assert np.array_equal(_pair_roots(SystemParams(), s_values), pair)

    @pytest.mark.parametrize("rate", [1.0, 0.25, 3.0])
    def test_triple_root_without_coupling(self, rate):
        # Equal diagonals and g = 0: p = q = 0 exactly, so u = 0 and all three roots are the shift.
        params = SystemParams(kappa=rate, gamma1=rate, gamma2=rate, g1=0, g2=0)
        assert np.array_equal(_cubic_roots(params, np.zeros(1)), np.full((1, 3), -1j * rate))

    def test_pair_roots_are_exact_at_the_reduced_coalescence(self):
        # g1 g2 / kappa = 0.25 and s = 0.25 are exact in binary: half^2 + a01 a10 = 0.
        params = SystemParams(kappa=1, gamma1=0.5, gamma2=0.5, g1=0.5, g2=0.5)
        assert np.array_equal(_pair_roots(params, np.array([0.25])), np.full((1, 2), -0.75j))

    def test_non_finite_roots_raise(self):
        # The bright polaritons sit near +/-sqrt(2) g, which overflows.
        params = SystemParams(g1=1.5e308, g2=1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("sweep point 0 (s=-0.5)")):
                _cubic_roots(params, np.array([-0.5, 0.5]))

    @pytest.mark.parametrize("adiabatic", [False, True])
    def test_sweeps_make_no_lapack_call(self, monkeypatch, adiabatic):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep called np.linalg.eigvals")

        def refuse_build(*args, **kwargs):
            raise AssertionError("a sweep built a model matrix")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for module in (model_module, spectra):
            for name in ("build_full_hamiltonian", "build_adiabatic_model"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse_build)
        branch_set = sweep_eigenvalues(SystemParams(), -0.2, 0.2, 51, adiabatic=adiabatic)
        assert np.isfinite(branch_set.branches).all()

    def test_tiny_scale_sweep(self):
        # Every rate times 1e-300: unscaled, p ~ 1e-600 and q ~ 1e-900 would underflow to 0.
        c = 1e-300
        unit = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2)
        tiny = SystemParams(kappa=c, gamma1=0.01 * c, gamma2=0.01 * c, g1=0.2 * c, g2=0.2 * c)
        unit_set = sweep_eigenvalues(unit, -0.2, 0.2, 41)
        branch_set = sweep_eigenvalues(tiny, -0.2 * c, 0.2 * c, 41)
        assert np.isfinite(branch_set.branches).all()
        for s, roots, unit_roots in zip(branch_set.sweep_values, branch_set.branches, unit_set.branches):
            # In kappa units, where the residual bound says something.
            h = build_full_hamiltonian(replace(tiny, s=float(s))) / c
            norm = np.linalg.norm(h)
            for lam in roots / c:
                assert char_poly_residual(h, lam) <= 1e-9 * max(1.0, norm) ** 3
            assert best_match_errors(roots / c, unit_roots).max() < 1e-9


class TestPassiveLinewidths:
    """Both sweep kernels write Im lambda <= 0, from g = 1 to g = 1e300.

    H = A - i B with A real symmetric and B positive semidefinite, so every
    eigenvalue of the passive system has Im lambda <= 0.  At g >> kappa the
    bright polaritons of the full model sit at -(kappa + gamma)/2 and its dark
    root at -gamma; the reduced model's narrow branch sits at -gamma once
    g^2/kappa >> gamma.
    """

    S_VALUES = np.linspace(-1.0, 1.0, 11)

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 0.0])
    def test_full_model(self, gamma):
        for e in range(0, 301, 10):
            roots = _cubic_roots(SystemParams(gamma1=gamma, gamma2=gamma, g1=10.0 ** e, g2=10.0 ** e), self.S_VALUES)
            assert roots.imag.max() <= 0, f"g = 1e{e}"
            if gamma > 0 and e >= 10:
                widths = np.sort(roots.imag, axis=1)
                assert_allclose(widths[:, :2], -(1.0 + gamma) / 2, rtol=1e-12, atol=0, err_msg=f"g = 1e{e}")
                assert_allclose(widths[:, 2], -gamma, rtol=1e-12, atol=0, err_msg=f"g = 1e{e}")

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 0.0])
    def test_reduced_model(self, gamma):
        for e in [8, *range(0, 301, 10)]:
            params = SystemParams(gamma1=gamma, gamma2=gamma, g1=10.0 ** e, g2=10.0 ** e)
            if not math.isfinite(params.g1 * params.g1):
                with pytest.raises(ValueError, match="reduced-model matrix is not finite"):
                    _pair_roots(params, self.S_VALUES)
                continue
            roots = _pair_roots(params, self.S_VALUES)
            assert roots.imag.max() <= 0, f"g = 1e{e}"
            if gamma > 0 and e >= 8:
                # The narrow branch is -gamma - s^2 kappa/(2 g^2) to leading order.
                assert_allclose(roots.imag.max(axis=1), -gamma, rtol=1e-12, atol=0, err_msg=f"g = 1e{e}")

    def test_reduced_narrow_branch_with_unequal_rates(self):
        # At g^2/kappa >> gamma the narrow branch is the dark combination
        # (g2, -g1), whose linewidth is -(g2^2 gamma1 + g1^2 gamma2)/|g|^2.
        params = SystemParams(kappa=0.7, gamma1=0.013, gamma2=0.029, g1=1.3e10, g2=2.9e10)
        roots = _pair_roots(params, self.S_VALUES)
        expected = -(2.9**2 * 0.013 + 1.3**2 * 0.029) / (2.9**2 + 1.3**2)
        assert_allclose(roots.imag.max(axis=1), expected, rtol=1e-12, atol=0)

    # g1 = gamma1 = 0: magnon 1 is decoupled and lossless, its eigenvalue s exactly real.
    @example(SystemParams(kappa=1, gamma1=0, gamma2=0.5, g1=0, g2=0.3), 1.0, 21)
    @given(params_strategy, st.floats(min_value=1e-3, max_value=6.0), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_no_linewidth_is_positive(self, params, half_width, n):
        s_values = np.linspace(-half_width, half_width, n)
        assert _cubic_roots(params, s_values).imag.max() <= 0
        assert _pair_roots(params, s_values).imag.max() <= 0


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
            h = build_full_hamiltonian(SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=float(s)))
            # The sweep's roots at s, reordered only: a one-row stack gives them bit for bit.
            raw = _cubic_roots(params, np.array([s]))[0]
            assert best_match_errors(np.sort_complex(branch_set.branches[i]), np.sort_complex(raw)).max() == 0
            assert_matches_lapack(raw, h)

    def test_branches_are_continuous(self):
        params = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2)
        branch_set = sweep_eigenvalues(params, -6, 6, 241)
        steps = np.abs(np.diff(branch_set.branches, axis=0))
        # With this grid no branch should jump by more than a few grid steps in value.
        assert steps.max() < 0.3

    def test_single_point_sweep(self):
        params = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0.5)
        branch_set = sweep_eigenvalues(params, 0.5, 0.5, 1)
        h = build_full_hamiltonian(params)
        assert best_match_errors(branch_set.branches[0], _cubic_roots(params, np.array([0.5]))[0]).max() == 0
        assert_matches_lapack(branch_set.branches[0], h)

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

    @pytest.mark.parametrize("noise", [0.0, 2e-16, -2e-16])
    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_real_part_tie_labels_the_narrow_branch_plus(self, noise, order):
        # Inside an attraction window both real parts are 0 up to rounding;
        # the labels must not follow the raw order or the sign of that rounding.
        values = np.array([[noise - 8.995j, -noise - 1.005j]] * 3)[:, order]
        branch_set = EigenBranchSet(sweep_values=np.array([-0.2, 0.0, 0.2]), branches=values)
        plus, minus = branch_set.magnon_branch_indices()
        assert values[-1, plus].imag == -1.005 and values[-1, minus].imag == -8.995

    def test_distinct_real_parts_ignore_the_linewidths(self):
        values = np.array([[0.1 - 8.0j, -0.1 - 1.0j], [0.3 - 8.0j, -0.3 - 1.0j]])
        branch_set = EigenBranchSet(sweep_values=np.array([0.0, 0.3]), branches=values)
        assert branch_set.magnon_branch_indices() == (0, 1)

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
            raw = np.linalg.eigvals(matrix_stack(params, s_values, adiabatic=True))
        else:
            raw = eigenvalues_3x3(matrix_stack(params, s_values))
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

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(BLOCK_EDGE_SIZES))
    @settings(max_examples=20, deadline=None)
    def test_four_branch_walks_match_per_step_reference(self, seed, n):
        # k = 4: 24 matchings per step.  Half the draws are smooth walks with
        # an exact coalescence every tenth row, half unstructured clouds.
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        if seed % 2:
            raw = steps
        else:
            raw = np.cumsum(0.01 * steps, axis=0)
            raw[::10, 1] = raw[::10, 0]
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    @given(params_strategy, st.sampled_from(BLOCK_EDGE_SIZES), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_the_package_roots_match_per_step_reference(self, params, n, adiabatic):
        # The rows that sweep_eigenvalues tracks: _pair_roots and _cubic_roots, not LAPACK's.
        s_values = np.linspace(-3.0, 3.0, n)
        if adiabatic:
            raw = _pair_roots(params, s_values)
        else:
            raw = _cubic_roots(params, s_values)
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -600])
    def test_every_step_tied_across_block_edges(self, scale):
        # Rows alternate between two distinct values and an exact coalescence,
        # so every step is tied, in every block, at any scale.
        n = 2 * TRACK_BLOCK_STEPS + 3
        raw = scale * every_step_tied(n)
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous == list(range(1, n))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_overflowing_costs_match_per_step_reference(self, k):
        # Displacements between values near 1e308 overflow to inf, so whole
        # rows of costs tie at inf; inf - inf is NaN and is not flagged.
        rng = np.random.default_rng(k)
        shape = (2 * TRACK_BLOCK_STEPS + 1, k)
        raw = 1e308 * (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))
        raw[::7, 1] = raw[::7, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            tracked, ambiguous = track_branches(raw)
            expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous

    def test_sweep_near_the_float_limit_warns_nothing(self):
        # The displacements between the roots overflow to inf; the costs still
        # rank the matchings, and the scoring raises no warning.
        p = SystemParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = sweep_eigenvalues(p, -1.7e308, -1.6e308, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected, expected_ambiguous = track_branches_reference(spectra._cubic_roots(p, sweep.sweep_values))
        assert np.array_equal(sweep.branches, expected)
        assert sweep.ambiguous_spans == () and expected_ambiguous == []

    @pytest.mark.parametrize("walk", ["random", "smooth", "tied", "margin"])
    def test_a_window_tracks_as_the_whole_sweep(self, walk):
        # A step's matching and flag depend only on its two rows, so tracking
        # raw[a:b] gives the whole sweep's rows a ... b - 1 up to one column
        # permutation, and its flagged steps shifted by a.
        n = 2 * TRACK_BLOCK_STEPS + 3
        rng = np.random.default_rng(7)
        clouds = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        if walk == "random":
            raw = clouds
        elif walk == "smooth":
            raw = np.cumsum(0.01 * clouds, axis=0)
            raw[::10, 1] = raw[::10, 0]
        elif walk == "tied":
            raw = every_step_tied(n)
        else:
            raw = margin_rows(3, n)
        whole, whole_ambiguous = track_branches(raw)
        for a, b in [(0, n), (1, n), (5, 40), (TRACK_BLOCK_STEPS - 2, n), (300, 2 * TRACK_BLOCK_STEPS + 1)]:
            window, ambiguous = track_branches(raw[a:b])
            assert any(np.array_equal(window[:, list(p)], whole[a:b]) for p in itertools.permutations(range(3)))
            assert [i + a for i in ambiguous] == [i for i in whole_ambiguous if a < i < b]

    def test_near_coalescence_inside_the_flag_band(self):
        # Two branches 2e-11 apart: the best and runner-up matchings differ by
        # 4e-11, far above rounding but inside the 1e-9 relative flag band.
        raw = np.tile(np.array([1 + 0j, -1 + 0j, 0.5j]), (5, 1))
        raw[2] = [0.2 + 1e-11, 0.2 - 1e-11, 0.5j]
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous == [2, 3]

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -600])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_steps_at_the_screen_margin_match_per_step_reference(self, k, scale):
        # Steps a few ulps either side of the margin: the screen settles some and leaves the
        # rest, and either way the result is the scored one.  The margin is relative, so a
        # power-of-two scale moves no step across it.
        raw = scale * margin_rows(k, 2 * TRACK_BLOCK_STEPS + 3)
        (tracked, ambiguous), scored = scored_steps(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous
        onto_margin = [i for i in scored if i % 2]
        assert 0 < len(onto_margin) < len(raw) // 2

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -600])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_coalescence_that_rounds_below_sep_matches_per_step_reference(self, k, scale):
        # -3 and 0.7 meet at -0.6: swap and identity cost the same, and the computed displacement
        # 2.4 + 1.3 rounds 4.4e-16 below sep = 3.7.  Only the screen's rounding slack keeps it from
        # settling the tie as an unflagged identity, at any power-of-two scale.
        far = np.array([5j, -5j])[:k - 2]
        raw = scale * np.array([[-3.0, 0.7, *far], [-0.6, -0.6, *far]] * (TRACK_BLOCK_STEPS + 1))
        assert abs(-0.6 + 3.0) + abs(-0.6 - 0.7) < 3.7
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous
        assert set(range(1, len(raw), 2)) <= set(ambiguous)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_coalescence_at_row_i_minus_1_only_matches_per_step_reference(self, k):
        far = np.array([5j, -5j])[:k - 2]
        raw = np.array([[0.2, 0.2, *far], [0.201, 0.199, *far], [0.2, 0.2, *far]] * (TRACK_BLOCK_STEPS // 2 + 1))
        tracked, ambiguous = track_branches(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous
        # The step out of each coalesced row ties and is flagged.
        assert set(range(1, len(raw), 3)) <= set(ambiguous)

    def test_the_screen_reads_the_separation_of_row_i_minus_1(self):
        # Spread rows (sep 1) alternate with crowded ones (sep 0.1), each step displacing 0.9:
        # out of a spread row the bound settles the step, out of a crowded row it cannot.
        spread, crowded = [0.0, 1.0, 2.0], [0.45, 0.55, 2.0]
        n = 2 * TRACK_BLOCK_STEPS + 3
        raw = np.array([spread, crowded] * (n // 2) + [spread], dtype=complex)
        (tracked, ambiguous), scored = scored_steps(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous == []
        assert scored == list(range(2, n, 2))

    @pytest.mark.parametrize("params,half_width", [
        (SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2), 6.0),
        (SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2), 0.2),
        (SystemParams(kappa=1, gamma1=0.05, gamma2=0.2, g1=0.9, g2=0.4), 3.0),
    ], ids=["strong", "bad-cavity", "asymmetric"])
    @pytest.mark.parametrize("adiabatic", [False, True])
    def test_the_screen_leaves_few_steps_of_a_sweep_to_score(self, params, half_width, adiabatic):
        s_values = np.linspace(-half_width, half_width, 4001)
        raw = (_pair_roots if adiabatic else _cubic_roots)(params, s_values)
        (tracked, ambiguous), scored = scored_steps(raw)
        expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected)
        assert ambiguous == expected_ambiguous
        assert len(scored) <= 8

    def test_a_screen_bound_that_overflows_is_scored(self):
        # The screen's 8 top overflows to inf and settles nothing; scoring keeps the
        # identity, whose cost 0 is far below the swap's inf, and flags no step.
        row = [-8e307 * (1 + 1j), 8e307 * (1 + 1j)]
        raw = np.array([row] * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            (tracked, ambiguous), scored = scored_steps(raw)
            expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected) and np.array_equal(tracked, raw)
        assert ambiguous == expected_ambiguous == []
        assert scored == [1, 2]

    @pytest.mark.parametrize("start", [0, 1, 2, 3, TRACK_BLOCK_STEPS - 1])
    @pytest.mark.parametrize("walk", ["sweep", "random", "tied", "margin", "subnormal", "non-finite"])
    def test_walks_across_block_edges_match_per_step_reference(self, walk, start):
        # Each walk is tracked from row start on, so its rows meet the block edges at other steps.
        n = 2 * TRACK_BLOCK_STEPS + 1 + start
        spread_crowded = np.array([[0.0, 1.0, 2.0], [0.45, 0.55, 2.0]] * (n // 2) + [[0.0, 1.0, 2.0]], dtype=complex)
        if walk == "subnormal":
            # Costs near 1e-311, below the 1e-300 floor of the flag's scale.
            raw = 1e-310 * spread_crowded
        elif walk == "non-finite":
            raw = spread_crowded
            raw[5::7, 0], raw[9::11, 1], raw[13::17] = np.nan, np.inf, -np.inf * 1j
        elif walk == "sweep":
            raw = _cubic_roots(SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2),
                               np.linspace(-0.2, 0.2, n))
        elif walk == "random":
            rng = np.random.default_rng(11)
            raw = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        elif walk == "tied":
            raw = every_step_tied(n)
        else:
            raw = margin_rows(3, n)
        raw = raw[start:]
        with np.errstate(invalid="ignore"):
            tracked, ambiguous = track_branches(raw)
            expected, expected_ambiguous = track_branches_reference(raw)
        assert np.array_equal(tracked, expected, equal_nan=True)
        assert ambiguous == expected_ambiguous

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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permutations_are_built_once_read_only_and_identity_first(self, k):
        perms = spectra._permutations(k)
        assert spectra._permutations(k) is perms
        assert not perms.flags.writeable
        assert perms[0].tolist() == list(range(k))
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(k))]

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
        # g^2 overflows, or (g1*g2/kappa)^2 does: no roots to take, and never a
        # LinAlgError from them.  The reduced roots +/-1e156 would be finite,
        # but the pair's half^2 overflows there and cannot confirm them.
        for g in (1e200, 1e78):
            p = SystemParams(g1=g, g2=g)
            with pytest.raises(ExceptionalPointNotFound, match="discriminant coefficients are not finite"):
                find_exceptional_point(p, 0.02, 0.06, model=model)

    def test_reduced_location_is_the_induced_rate_where_its_square_underflows(self):
        # (1e-160)**2 is subnormal, and its square root only about 1e-160.
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=1e-80, g2=1e-80)
        point = find_exceptional_point(p, 0.5 * p.induced_rate, 1.5 * p.induced_rate)
        assert point.location == p.induced_rate

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

    @pytest.mark.parametrize("model,bracket,root", [
        ("adiabatic", (1e308, 1.5e308), 0.04),
        ("full", (1e308, 1.5e308), 0.0422493),
        ("adiabatic", (-1.5e308, -1e308), -0.04),
        ("full", (-1.5e308, -1e308), -0.0422493),
    ])
    def test_not_found_names_the_root_nearer_along_the_real_axis(self, model, bracket, root):
        # Every root's distance to the bracket rounds to 1e308, so only an
        # exact comparison of the real parts tells the nearer root.
        with pytest.raises(ExceptionalPointNotFound) as err:
            find_exceptional_point(SystemParams(), *bracket, model=model)
        named = complex(re.search(r"nearest discriminant root s=(\S+)$", str(err.value)).group(1))
        assert named == root

    @pytest.mark.parametrize("g,bracket", [(0.39, (0.2, 0.21)), (0.45, (0.28, 0.3)), (0.5, (-0.4, -0.3))])
    def test_not_found_names_the_upper_root_of_a_conjugate_pair(self, g, bracket):
        # Equal dampings past the coupling where the full model's EPs vanish:
        # the roots nearest the bracket are a conjugate pair, equally near.
        # Their computed Im parts differ in the last bits, here so that the
        # lower root comes out nearer.
        p = SystemParams(g1=g, g2=g)
        roots = _discriminant_roots(p, adiabatic=False)
        with pytest.raises(ExceptionalPointNotFound) as err:
            find_exceptional_point(p, *bracket, model="full")
        named = complex(re.search(r"nearest discriminant root s=(\S+)$", str(err.value)).group(1))
        assert named.imag > 0
        # Six printed digits name the root; its conjugate is a root too.
        upper = min(roots, key=lambda r: abs(r - named))
        assert abs(named - upper) <= 1e-5 * abs(upper) and bracket[0] <= upper.real <= bracket[1]
        assert min(abs(r - upper.conjugate()) for r in roots) <= 1e-12

    @pytest.mark.parametrize("model", ["adiabatic", "full"])
    def test_bracket_with_both_coalescences_gives_the_lower(self, model):
        point = find_exceptional_point(SystemParams(), -0.06, 0.06, model=model)
        assert point.location < 0
        assert point == find_exceptional_point(SystemParams(), -0.06, 0.0, model=model)


# Parameters from 0 to the float range, subnormals included, so that the
# products overflow, underflow and meet signed zeros.
wide_params_strategy = st.builds(
    SystemParams,
    kappa=st.floats(min_value=5e-324, max_value=1.7e308),
    gamma1=st.floats(min_value=0.0, max_value=1.7e308),
    gamma2=st.floats(min_value=0.0, max_value=1.7e308),
    g1=st.floats(min_value=0.0, max_value=1.7e308),
    g2=st.floats(min_value=0.0, max_value=1.7e308),
)
# Decoupled, so the discriminant is 4 s^6 (kappa = gamma) or has two trailing
# zeros (gamma = g = 0); couplings whose squares overflow; and the default.
PINNED_DISCRIMINANTS = [
    SystemParams(kappa=1, gamma1=1, gamma2=1, g1=0, g2=0),
    SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0),
    SystemParams(g1=1e200, g2=1e200),
    SystemParams(),
]


def _pinned(test):
    for params in PINNED_DISCRIMINANTS:
        test = example(params)(test)
    return test


class TestDiscriminantRoots:
    """_discriminant_polynomial and _discriminant_roots against np.convolve, np.roots and np.polyval."""

    @_pinned
    @given(params_strategy)
    @settings(max_examples=300, deadline=None)
    def test_polynomial_matches_convolve_bitwise(self, params):
        expected = discriminant_polynomial_reference(params)
        expected = expected.tolist() if np.isfinite(expected).all() else []
        assert complex_bits(_discriminant_polynomial(params)) == complex_bits(expected)

    @given(wide_params_strategy)
    @settings(max_examples=300, deadline=None)
    def test_polynomial_matches_convolve_bitwise_over_the_float_range(self, params):
        expected = discriminant_polynomial_reference(params)
        expected = expected.tolist() if np.isfinite(expected).all() else []
        assert complex_bits(_discriminant_polynomial(params)) == complex_bits(expected)

    @_pinned
    @given(params_strategy)
    @settings(max_examples=300, deadline=None)
    def test_roots_match_np_roots_and_polyval_order_bitwise(self, params):
        expected = discriminant_roots_reference(params, horner=object)
        assert complex_bits(_discriminant_roots(params, adiabatic=False)) == complex_bits(expected)

    @given(wide_params_strategy)
    @settings(max_examples=100, deadline=None)
    def test_roots_match_over_the_float_range(self, params):
        expected = discriminant_roots_reference(params, horner=object)
        assert complex_bits(_discriminant_roots(params, adiabatic=False)) == complex_bits(expected)

    @given(kappas, couplings, st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=200, deadline=None)
    def test_real_roots_match_the_complex128_newton_step(self, kappa, g, gamma):
        # Equal dampings and couplings, where the real roots are the EPs: a
        # real root's products have one exact zero term, so fusing changes
        # nothing and the complex128 step gives the same bits.
        params = SystemParams(kappa=kappa, gamma1=gamma * kappa, gamma2=gamma * kappa, g1=g, g2=g)
        expected = discriminant_roots_reference(params, horner=complex)
        roots = _discriminant_roots(params, adiabatic=False)
        assert len(roots) == len(expected)
        for root, reference in zip(roots, expected):
            if reference.imag == 0.0:
                assert complex_bits([root]) == complex_bits([reference])

    def test_decoupled_equal_rates_give_six_exact_zero_roots(self):
        params = PINNED_DISCRIMINANTS[0]
        assert _discriminant_polynomial(params) == [4.0] + [0.0] * 6
        assert complex_bits(_discriminant_roots(params, adiabatic=False)) == complex_bits([0j] * 6)

    def test_trailing_zero_coefficients_become_zero_roots(self):
        roots = _discriminant_roots(PINNED_DISCRIMINANTS[1], adiabatic=False)
        assert complex_bits(roots[4:]) == complex_bits([0j, 0j])
        # s = +/-i, where s or -s meets the cavity's -i, twice each.
        assert best_match_errors(roots[:4], [1j, 1j, -1j, -1j]).max() < 1e-8

    @pytest.mark.parametrize("adiabatic", [False, True])
    def test_overflowing_coefficients_give_no_roots(self, adiabatic):
        assert _discriminant_roots(PINNED_DISCRIMINANTS[2], adiabatic) == []

    @example(PINNED_DISCRIMINANTS[1])
    @example(PINNED_DISCRIMINANTS[3])
    @given(params_strategy)
    @settings(max_examples=200, deadline=None)
    def test_companion_matrix_is_the_one_np_roots_builds(self, params):
        disc = discriminant_polynomial_reference(params)
        assume(np.isfinite(disc).all())
        p = disc[:np.flatnonzero(disc)[-1] + 1]
        assume(len(p) > 1)
        expected = np.diag(np.ones(len(p) - 2, dtype=complex), -1)
        expected[0, :] = -p[1:] / p[0]
        seen, eigvals = [], np.linalg.eigvals

        def capture(a):
            seen.append(np.array(a))
            return eigvals(a)

        with mock.patch.object(np.linalg, "eigvals", capture):
            _discriminant_roots(params, adiabatic=False)
        assert len(seen) == 1
        assert seen[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("adiabatic", [False, True])
    def test_a_search_makes_at_most_one_numpy_eigvals_call(self, monkeypatch, adiabatic):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        def refuse(*args, **kwargs):
            raise AssertionError("the discriminant search called a numpy polynomial routine")

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for name in ("convolve", "roots", "polyval", "polyder"):
            monkeypatch.setattr(np, name, refuse)
        _discriminant_roots(SystemParams(), adiabatic)
        assert calls == ([] if adiabatic else [(6, 6)])


class TestPairGapFunction:
    """_magnon_pair's gap and mean against building and solving H(s) at each s."""

    @example(SystemParams(), -0.0, True)
    @example(SystemParams(), -0.0, False)
    @given(params_strategy, splittings, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_solve_bitwise(self, params, s, adiabatic):
        # Also probe the point's own splitting and the reduced EP location.
        for at in (s, params.s, params.induced_rate, -params.induced_rate):
            gap, mean = _magnon_pair(params, at, adiabatic)
            expected_gap, expected_mean = pair_gap_reference(params, at, adiabatic)
            assert gap == expected_gap
            assert complex_bits([mean]) == complex_bits([expected_mean])

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
