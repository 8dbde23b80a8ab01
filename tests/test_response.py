"""Tests for the driven steady state, spincurrent spectra and scattering."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavitymagnons.closed_forms import (
    analytic_magnon_response,
    resonance_peak_height,
    symmetric_response_closed_form,
    zero_detuning_scattering_closed_form,
)
from cavitymagnons.model import DriveParams, SystemParams, build_driven_system, drive_frame_matrices
from cavitymagnons.response import (
    ResponsePoint,
    reflection_transmission,
    spincurrent_spectrum,
    steady_state,
)

from conftest import system_params_strategy

SQRT2 = math.sqrt(2.0)

WEAK = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.0)
STRONG = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0.0)

rates = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_subnormal=False)
positive_rates = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False, allow_subnormal=False)
couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
kappas = st.floats(min_value=0.1, max_value=5.0, allow_nan=False, allow_subnormal=False)
splittings = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False)
detunings = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False, allow_subnormal=False)

damped_params = st.builds(
    SystemParams, kappa=kappas, gamma1=positive_rates, gamma2=positive_rates,
    g1=couplings, g2=couplings, s=splittings,
)


class TestSteadyState:
    def test_bare_cavity(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0, g2=0, s=0)
        point = steady_state(p, DriveParams(delta=0.0, amplitude=2.0))
        assert point.m1 == 0 and point.m2 == 0
        assert abs(point.a) == pytest.approx(2.0, rel=1e-14)  # |a| = E/sqrt(kappa)

    def test_residual_of_linear_system(self):
        drive = DriveParams(delta=0.3, amplitude=1.5)
        p = SystemParams(kappa=1, gamma1=0.02, gamma2=0.05, g1=0.3, g2=0.4, s=0.2)
        point = steady_state(p, drive)
        system = build_driven_system(p, drive)
        x = np.array([point.a, point.m1, point.m2])
        residual = np.linalg.norm(system.matrix @ x + 1j * system.force)
        assert residual <= 1e-12 * np.linalg.norm(system.force)

    def test_symmetric_resonant_closed_form(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0)
        for delta in (-1.0, 0.0, 0.7):
            drive = DriveParams(delta=delta, amplitude=1.0)
            point = steady_state(p, drive)
            expected = symmetric_response_closed_form(p, drive)
            assert point.m1 == pytest.approx(expected, rel=1e-12)
            assert point.m2 == pytest.approx(expected, rel=1e-12)

    def test_matches_printed_formulas_at_equal_dampings(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04)
        drive = DriveParams(delta=0.04, amplitude=1.0)
        point = steady_state(p, drive)
        m1, m2 = analytic_magnon_response(p, drive)
        assert point.m1 == pytest.approx(m1, rel=1e-10)
        assert point.m2 == pytest.approx(m2, rel=1e-10)

    def test_definitional_fields(self):
        p = SystemParams(kappa=1, gamma1=0.3, gamma2=0.1, g1=0.5, g2=0.8, s=0.6)
        point = steady_state(p, DriveParams(delta=0.2, amplitude=1.3))
        assert point.total_spincurrent == abs(point.m1) ** 2 + abs(point.m2) ** 2
        assert point.dark_amplitude == (point.m1 - point.m2) / SQRT2

    def test_derived_values_follow_the_fields(self):
        # A point stores delta, a, m1, m2 and t; the rest is computed from them.
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.03, g1=0.2, g2=0.3, s=0.05)
        point = steady_state(p, DriveParams(delta=0.0, amplitude=1.0))
        moved = replace(point, m1=2 * point.m1, t=0.5)
        assert moved.total_spincurrent == abs(2 * point.m1) ** 2 + abs(point.m2) ** 2
        assert moved.dark_amplitude == (2 * point.m1 - point.m2) / SQRT2
        assert moved.r == 0.5 - 1.0
        assert [field.name for field in fields(ResponsePoint)] == ["delta", "a", "m1", "m2", "t"]

    def test_singular_system_raises(self):
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0, s=0.5)
        with pytest.raises(np.linalg.LinAlgError):
            steady_state(p, DriveParams(delta=0.5, amplitude=1.0))

    @given(damped_params, detunings)
    @settings(max_examples=100)
    def test_amplitudes_scale_linearly_with_drive(self, params, delta):
        base = steady_state(params, DriveParams(delta=delta, amplitude=1.0))
        scaled = steady_state(params, DriveParams(delta=delta, amplitude=3.0))
        for field in ("a", "m1", "m2"):
            assert getattr(scaled, field) == pytest.approx(3.0 * getattr(base, field), rel=1e-12, abs=1e-300)
        assert scaled.total_spincurrent == pytest.approx(9.0 * base.total_spincurrent, rel=1e-12, abs=1e-300)


def exact_determinant_is_zero(p: SystemParams, delta: float) -> bool:
    """det(H - delta) = abc - g1^2 c - g2^2 b == 0 in exact rational arithmetic."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    f = Fraction
    a = (-f(delta), -f(p.kappa))
    b = (f(p.s) - f(delta), -f(p.gamma1))
    c = (-f(p.s) - f(delta), -f(p.gamma2))
    abc = mul(a, mul(b, c))
    g1, g2 = f(p.g1) ** 2, f(p.g2) ** 2
    return all(abc[i] - g1 * c[i] - g2 * b[i] == 0 for i in (0, 1))


def backward_error(p: SystemParams, deltas, states, amplitude: float = 1.0) -> float:
    """Largest |(H - delta) X + i F| / (|H - delta| |X| + |F|) over the rows, in max-norms.

    Max-norms, because Frobenius norms square entries of 1e200 into overflow.
    """
    matrices = drive_frame_matrices(p, np.atleast_1d(np.asarray(deltas, dtype=float)))
    states = np.atleast_2d(states)
    force = np.array([math.sqrt(p.kappa) * amplitude, 0.0, 0.0])
    residual = np.abs(np.einsum("nij,nj->ni", matrices, states) + 1j * force).max(axis=1)
    scale = np.abs(matrices).max(axis=(1, 2)) * np.abs(states).max(axis=1) + force[0]
    return float((residual / scale).max())


class TestClosedFormResolvent:
    """The first inverse column of the arrowhead H - delta, in scaled real arithmetic."""

    @given(system_params_strategy(), detunings)
    @settings(max_examples=300, deadline=None)
    def test_residual_or_exactly_singular(self, params, delta):
        try:
            point = steady_state(params, DriveParams(delta=delta, amplitude=1.0))
        except np.linalg.LinAlgError as exc:
            assert exact_determinant_is_zero(params, delta), str(exc)
            return
        # Backward stable at any conditioning: the residual is rounding-sized
        # relative to |H - delta| |X| + |F|.
        assert backward_error(params, delta, [point.a, point.m1, point.m2]) <= 1e-15

    def test_residual_where_the_lu_solve_loses_it(self):
        # Rates 300 decades apart: LAPACK's LU solve leaves a residual of order
        # ||F|| here, the closed form one at rounding level.
        p = SystemParams(kappa=1e150, gamma1=1e-150, gamma2=1e-150, g1=1e100, g2=1e100, s=1.0)
        point = steady_state(p, DriveParams(delta=0.0, amplitude=1.0))
        system = build_driven_system(p, DriveParams(delta=0.0, amplitude=1.0))
        x = np.array([point.a, point.m1, point.m2])
        assert np.isfinite(x).all()
        residual = np.linalg.norm(system.matrix @ x + 1j * system.force)
        assert residual <= 1e-12 * np.linalg.norm(system.force)

    @pytest.mark.parametrize("params", [
        SystemParams(g1=1e200, g2=1e200),
        SystemParams(kappa=1e-300, gamma1=1e-300, gamma2=2e-300, g1=1e-300, g2=3e-300, s=1e-300),
        SystemParams(kappa=1e150, gamma1=1e-150, gamma2=1e-150, g1=1e100, g2=1e100, s=1.0),
        # At delta = 0 the magnon entries are +-1e-194: their product underflows
        # unless the magnon rows are scaled on their own.
        SystemParams(kappa=1.0, gamma1=0.0, gamma2=0.0, g1=0.0, g2=0.0, s=9.13729233565088e-195),
    ])
    def test_extreme_scales_stay_finite_and_equal_their_points(self, params):
        scale = max(params.kappa, params.g1, abs(params.s))
        deltas = np.linspace(-3.0, 3.0, 13) * scale
        sweep = spincurrent_spectrum(params, deltas)
        assert np.isfinite(sweep.states).all() and np.isfinite(sweep.t).all()
        assert backward_error(params, deltas, sweep.states) <= 1e-15
        for i, delta in enumerate(deltas):
            point = steady_state(params, DriveParams(delta=float(delta)))
            assert np.array_equal(sweep.states[i], [point.a, point.m1, point.m2]) and sweep.t[i] == point.t

    def test_singular_sweep_names_its_first_singular_detuning(self):
        # Undamped decoupled magnons at +-0.5: det = abc is exactly 0 at delta = -0.5 and 0.5.
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0, s=0.5)
        with pytest.raises(np.linalg.LinAlgError, match=r"^singular steady-state system at delta=-0\.5$"):
            spincurrent_spectrum(p, np.linspace(-1, 1, 9))
        assert issubclass(np.linalg.LinAlgError, ValueError)

    def test_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        sweep = spincurrent_spectrum(WEAK, np.linspace(-1, 1, 21))
        delta = float(sweep.deltas[13])
        assert steady_state(WEAK, DriveParams(delta=delta)) == sweep.points[13]
        assert reflection_transmission(WEAK, DriveParams(delta=delta)) == (sweep.r[13], sweep.t[13])


class TestAnalyticMagnonResponse:
    @given(kappas, positive_rates, couplings, couplings, splittings, detunings)
    @settings(max_examples=200)
    def test_agrees_with_solver_for_equal_dampings(self, kappa, gamma, g1, g2, s, delta):
        p = SystemParams(kappa=kappa, gamma1=gamma, gamma2=gamma, g1=g1, g2=g2, s=s)
        drive = DriveParams(delta=delta, amplitude=1.0)
        point = steady_state(p, drive)
        m1, m2 = analytic_magnon_response(p, drive)
        scale = max(abs(point.m1), abs(point.m2), 1e-30)
        assert abs(point.m1 - m1) <= 1e-10 * scale
        assert abs(point.m2 - m2) <= 1e-10 * scale

    def test_symmetric_amplitudes_coincide_on_resonance(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0)
        m1, m2 = analytic_magnon_response(p, DriveParams(delta=0.4, amplitude=1.0))
        assert m1 == pytest.approx(m2, rel=1e-14)

    def test_splitting_separates_the_amplitudes(self):
        # For kappa = gamma the two numerators differ as (delta + s + i kappa)
        # versus (delta - s + i kappa) over a common denominator.
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0.7)
        delta = 0.4
        m1, m2 = analytic_magnon_response(p, DriveParams(delta=delta, amplitude=1.0))
        assert m1 != pytest.approx(m2, rel=1e-6)
        expected_ratio = (delta + p.s + 1j) / (delta - p.s + 1j)
        assert m1 / m2 == pytest.approx(expected_ratio, rel=1e-12)

    def test_unequal_damping_discrepancy_is_confined_to_m1(self):
        # The printed m1 numerator carries gamma1 where the exact cofactor has
        # gamma2; m2 and the determinant match the exact expansion.  Document
        # the size of the deviation rather than asserting it away.
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.3, g1=0.2, g2=0.2, s=0.1)
        drive = DriveParams(delta=0.05, amplitude=1.0)
        point = steady_state(p, drive)
        m1, m2 = analytic_magnon_response(p, drive)
        assert point.m2 == pytest.approx(m2, rel=1e-12)
        deviation = abs(point.m1 - m1) / abs(point.m1)
        assert deviation > 1e-3  # genuine formula-vs-solver disagreement
        print(f"\nprinted-formula m1 deviation at unequal dampings: {deviation:.3%}")


class TestSpincurrentSpectrum:
    def test_dark_resonance_leaves_two_peaks(self):
        sweep = spincurrent_spectrum(STRONG, np.linspace(-6, 6, 241))
        assert len(sweep.peaks) == 2

    def test_splitting_restores_three_peaks(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=2.0)
        sweep = spincurrent_spectrum(p, np.linspace(-6, 6, 241))
        assert len(sweep.peaks) == 3

    def test_weak_coupling_single_coalesced_peak(self):
        sweep = spincurrent_spectrum(WEAK, np.linspace(-0.3, 0.3, 301))
        assert len(sweep.peaks) == 1
        assert sweep.peaks[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_outer_peaks_sit_near_hybridized_frequencies(self):
        # The outer maxima sit near +-sqrt(s^2 + 2 g^2) but are pulled inward
        # by the overlapping kappa-wide resonances (~0.23 here).
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=2.0)
        sweep = spincurrent_spectrum(p, np.linspace(-6, 6, 2401), refine_peaks=True)
        outer = [d for d, _ in sweep.peaks if d > 1]
        assert outer[0] == pytest.approx(3.233, abs=5e-3)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            spincurrent_spectrum(WEAK, [])

    @pytest.mark.parametrize("deltas,amplitude", [
        ([0.0, math.nan], 1.0),
        ([0.0, math.inf], 1.0),
        ([[0.0, 0.1]], 1.0),
        ([0.0, 0.1], -1.0),
        ([0.0, 0.1], math.inf),
    ])
    def test_rejects_invalid_grid_or_amplitude(self, deltas, amplitude):
        with pytest.raises(ValueError):
            spincurrent_spectrum(WEAK, deltas, amplitude)

    @given(damped_params, st.lists(detunings, min_size=1, max_size=40), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_single_point_solves(self, params, deltas, amplitude):
        sweep = spincurrent_spectrum(params, deltas, amplitude)
        spin, dark, r = sweep.total_spincurrent, sweep.dark_amplitude, sweep.r
        for i, delta in enumerate(deltas):
            point = steady_state(params, DriveParams(delta=delta, amplitude=amplitude))
            assert np.array_equal(sweep.states[i], [point.a, point.m1, point.m2])
            assert spin[i] == point.total_spincurrent
            assert dark[i] == point.dark_amplitude
            assert sweep.t[i] == point.t and r[i] == point.r
            assert (r[i], sweep.t[i]) == reflection_transmission(params, DriveParams(delta=delta))

    def test_columns_are_read_only(self):
        sweep = spincurrent_spectrum(WEAK, np.linspace(-0.1, 0.1, 5))
        for column in (sweep.deltas, sweep.states, sweep.t):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_grid_is_copied(self):
        deltas = np.linspace(-0.1, 0.1, 5)
        spincurrent_spectrum(WEAK, deltas)
        deltas[0] = 1.0  # the caller's array stays writable

    def test_points_view(self):
        deltas = np.linspace(-0.3, 0.3, 7)
        sweep = spincurrent_spectrum(WEAK, deltas, amplitude=2.0)
        points = sweep.points
        singles = [steady_state(WEAK, DriveParams(delta=float(d), amplitude=2.0)) for d in deltas]
        assert len(points) == 7
        assert all(isinstance(p, ResponsePoint) for p in points)
        assert list(points) == singles
        assert points[0] == singles[0] and points[6] == singles[6]
        assert points[-1] == singles[-1] and points[-7] == singles[0]
        assert points[2:5] == tuple(singles[2:5])
        assert points[::-2] == tuple(singles[::-2])
        assert points[5:2] == ()
        for index in (7, -8):
            with pytest.raises(IndexError):
                points[index]
        assert sweep.total_spincurrent.tolist() == [p.total_spincurrent for p in points]

    @given(st.builds(
        SystemParams, kappa=kappas, gamma1=positive_rates, gamma2=positive_rates,
        g1=couplings, g2=couplings, s=splittings,
    ))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_system_spectrum_mirrors_under_s_flip(self, params):
        from dataclasses import replace
        symmetric = replace(params, gamma2=params.gamma1, g2=params.g1)
        flipped = replace(symmetric, s=-symmetric.s)
        deltas = np.linspace(-4, 4, 81)
        forward = spincurrent_spectrum(symmetric, deltas).total_spincurrent
        mirrored = spincurrent_spectrum(flipped, -deltas[::-1]).total_spincurrent[::-1]
        assert_allclose(forward, mirrored, rtol=1e-10, atol=1e-300)


class TestResonancePeakHeight:
    def test_minimum_at_zero_splitting(self):
        from dataclasses import replace
        base = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0)
        scan = np.linspace(-3, 3, 121)
        heights = [resonance_peak_height(replace(base, s=float(s))) for s in scan]
        assert np.argmin(heights) == len(scan) // 2

    def test_zero_coupling_gives_zero(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=0, g2=0, s=0.5)
        assert resonance_peak_height(p) == 0.0

    def test_against_both_printed_denominator_powers(self):
        # The exact solve is the oracle; the squared-denominator variant
        # 2 g^2 E^2 (s^2 + kappa^2) / (kappa (s^2 + 2 g^2 + kappa^2)^2)
        # reproduces it, while the linear-denominator variant as printed is
        # off by the factor (s^2 + 2 g^2 + kappa^2).
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=1.0)
        exact = resonance_peak_height(p, amplitude=1.0)
        squared = 2 * 4 * (1 + 1) / (1 * (1 + 8 + 1) ** 2)
        linear = 2 * 4 * (1 + 1) / (1 * (1 + 8 + 1))
        assert exact == pytest.approx(squared, rel=1e-12)
        assert exact == pytest.approx(linear / 10.0, rel=1e-12)
        print(f"\npeak height: exact {exact:.6g}, squared-denominator {squared:.6g}, "
              f"linear-denominator {linear:.6g}")

    def test_rejects_asymmetric_parameters(self):
        with pytest.raises(ValueError):
            resonance_peak_height(SystemParams(kappa=1, gamma1=1, gamma2=0.5, g1=2, g2=2))
        with pytest.raises(ValueError):
            resonance_peak_height(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=1))


class TestReflectionTransmission:
    def test_perfect_transparency_for_lossless_magnons(self):
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0.2, g2=0.2, s=0.01)
        r, t = reflection_transmission(p, DriveParams(delta=0.0))
        assert t == pytest.approx(1.0, abs=1e-10)
        assert r == pytest.approx(0.0, abs=1e-10)

    def test_transmission_window_at_coalescence(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04)
        r, t = reflection_transmission(p, DriveParams(delta=0.0))
        assert t == pytest.approx(0.68, abs=1e-10)
        assert r == pytest.approx(-0.32, abs=1e-10)

    def test_closed_form_zero_detuning(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04)
        r_exact, t_exact = reflection_transmission(p, DriveParams(delta=0.0))
        r_form, t_form = zero_detuning_scattering_closed_form(p)
        assert t_exact == pytest.approx(t_form, rel=1e-12)
        assert r_exact == pytest.approx(r_form, rel=1e-12)

    def test_bare_cavity_is_lossless_two_port(self):
        p = SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0, s=0)
        for delta in (-2.0, -0.3, 0.4, 5.0):
            r, t = reflection_transmission(p, DriveParams(delta=delta))
            assert t == pytest.approx(1j / (delta + 1j), rel=1e-12)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_printed_equal_damping_formula_is_exact(self):
        p = SystemParams(kappa=1.3, gamma1=0.02, gamma2=0.02, g1=0.3, g2=0.3, s=0.1)
        for delta in (-0.5, 0.0, 0.17, 2.0):
            r, t = reflection_transmission(p, DriveParams(delta=delta))
            gamma, g, kappa, s = 0.02, 0.3, 1.3, 0.1
            numerator = 1j * kappa * (delta - s + 1j * gamma) * (delta + s + 1j * gamma)
            denominator = (
                (delta + 1j * kappa) * (delta - s + 1j * gamma) * (delta + s + 1j * gamma)
                - 2 * g ** 2 * (delta + 1j * gamma)
            )
            assert t == pytest.approx(numerator / denominator, rel=1e-12)
            assert r == pytest.approx(t - 1.0, rel=1e-12)

    def test_scattering_unitarity_for_lossless_magnons(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = SystemParams(
                kappa=rng.uniform(0.2, 4.0), gamma1=0.0, gamma2=0.0,
                g1=rng.uniform(0, 2.5), g2=rng.uniform(0, 2.5), s=rng.uniform(-4, 4),
            )
            delta = rng.uniform(-6, 6)
            try:
                r, t = reflection_transmission(p, DriveParams(delta=delta))
            except np.linalg.LinAlgError:
                continue  # exact magnon resonance with g = 0 is singular
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-10)

    @given(damped_params, detunings)
    @settings(max_examples=150)
    def test_passivity(self, params, delta):
        r, t = reflection_transmission(params, DriveParams(delta=delta))
        assert abs(t) ** 2 + abs(r) ** 2 <= 1.0 + 1e-10

    def test_amplitude_independent(self):
        p = WEAK
        r0, t0 = reflection_transmission(p, DriveParams(delta=0.1, amplitude=0.0))
        r1, t1 = reflection_transmission(p, DriveParams(delta=0.1, amplitude=7.0))
        assert r0 == r1 and t0 == t1


class TestDarkMode:
    def test_extinct_at_perfect_symmetry(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0)
        for delta in np.linspace(-6, 6, 25):
            point = steady_state(p, DriveParams(delta=float(delta), amplitude=1.0))
            assert abs(point.dark_amplitude) <= 1e-12 * max(abs(point.m1), 1e-300)

    def test_grows_with_splitting(self):
        from dataclasses import replace
        base = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0)
        drive = DriveParams(delta=0.3, amplitude=1.0)
        magnitudes = [
            abs(steady_state(replace(base, s=s), drive).dark_amplitude) for s in (0.1, 0.25, 0.5)
        ]
        assert magnitudes[0] < magnitudes[1] < magnitudes[2]

    def test_asymmetric_couplings_break_extinction(self):
        p = SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=1.5, s=0)
        assert abs(steady_state(p, DriveParams(delta=0.0, amplitude=1.0)).dark_amplitude) > 1e-3
