"""Tests for the parameter types and matrix builders."""

import math

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavitymagnons.model import (
    HBAR,
    DriveParams,
    SystemParams,
    build_adiabatic_model,
    build_driven_system,
    build_full_hamiltonian,
    drive_amplitude_from_power,
    drive_frame_matrices,
)
from cavitymagnons.closed_forms import (
    adiabatic_eigenvalues,
    coupling_strength_estimate,
    lindblad_mean_field_drift,
    polariton_basis,
    polariton_transform,
)

from conftest import best_match_errors, couplings, kappas, rates, splittings, system_params_strategy

SQRT2 = math.sqrt(2.0)


class TestSystemParams:
    def test_defaults_are_bad_cavity_regime(self):
        p = SystemParams()
        assert p.kappa == 1.0
        assert p.gamma1 == p.gamma2 == 0.01
        assert p.g1 == p.g2 == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"kappa": 0.0},
        {"kappa": -1.0},
        {"gamma1": -0.1},
        {"gamma2": -0.1},
        {"g1": -0.5},
        {"g2": -0.5},
        {"s": float("nan")},
        {"kappa": float("inf")},
    ])
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_negative_s_is_allowed(self):
        assert SystemParams(s=-3.0).s == -3.0


class TestDriveParams:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            DriveParams(amplitude=-1.0)

    def test_rejects_non_finite_delta(self):
        with pytest.raises(ValueError):
            DriveParams(delta=float("inf"))


class TestFullHamiltonian:
    def test_strong_coupling_matrix(self):
        # kappa=1, gamma_i=1, g=2, s=0
        h = build_full_hamiltonian(SystemParams(kappa=1, gamma1=1, gamma2=1, g1=2, g2=2, s=0))
        expected = np.array([[-1j, 2, 2], [2, -1j, 0], [2, 0, -1j]], dtype=complex)
        assert_allclose(h, expected)

    def test_decoupled_limit_is_diagonal(self):
        h = build_full_hamiltonian(SystemParams(kappa=1, gamma1=0, gamma2=0, g1=0, g2=0, s=0.5))
        assert_allclose(h, np.diag([-1j, 0.5, -0.5]))

    @given(system_params_strategy())
    def test_complex_symmetric(self, params):
        h = build_full_hamiltonian(params)
        assert_allclose(h, h.T, rtol=0, atol=0)

    @given(system_params_strategy())
    def test_structure(self, params):
        h = build_full_hamiltonian(params)
        assert h[1, 2] == 0 and h[2, 1] == 0
        assert h[0, 1] == params.g1 and h[0, 2] == params.g2
        assert_allclose(np.diag(h).imag, [-params.kappa, -params.gamma1, -params.gamma2])

    @given(system_params_strategy())
    @settings(max_examples=100)
    def test_characteristic_polynomial_expansion(self, params):
        # Coefficients of det(lambda I - H) against the expanded product form
        # (lambda + i kappa)(lambda - s + i gamma1)(lambda + s + i gamma2)
        #   - g1^2 (lambda + s + i gamma2) - g2^2 (lambda - s + i gamma1).
        h = build_full_hamiltonian(params)
        p = params
        r1 = np.array([1.0, 1j * p.kappa])
        r2 = np.array([1.0, -p.s + 1j * p.gamma1])
        r3 = np.array([1.0, p.s + 1j * p.gamma2])
        product = np.polymul(np.polymul(r1, r2), r3)
        expected = np.polyadd(
            product,
            np.polyadd(
                -p.g1 ** 2 * np.array([1.0, p.s + 1j * p.gamma2]),
                -p.g2 ** 2 * np.array([1.0, -p.s + 1j * p.gamma1]),
            ),
        )
        numeric = np.poly(h)
        scale = np.abs(expected).max()
        assert_allclose(numeric, expected, rtol=0, atol=1e-12 * max(scale, 1.0))


class TestSweepStacks:
    @given(system_params_strategy(), st.lists(splittings, min_size=1, max_size=20))
    def test_stacks_equal_single_point_builds(self, params, s_values):
        full = build_full_hamiltonian(params, s=s_values)
        reduced = build_adiabatic_model(params, s=s_values).matrix
        assert full.shape == (len(s_values), 3, 3) and reduced.shape == (len(s_values), 2, 2)
        for i, s in enumerate(s_values):
            point = replace(params, s=s)
            assert np.array_equal(full[i], build_full_hamiltonian(point))
            assert np.array_equal(reduced[i], build_adiabatic_model(point).matrix)

    @given(system_params_strategy(), st.lists(splittings, min_size=1, max_size=20))
    def test_drive_frame_stack_equals_driven_systems(self, params, deltas):
        stack = drive_frame_matrices(params, np.array(deltas))
        assert stack.shape == (len(deltas), 3, 3)
        for i, delta in enumerate(deltas):
            assert np.array_equal(stack[i], build_driven_system(params, DriveParams(delta=delta)).matrix)


class TestDrivenSystem:
    def test_zero_detuning_matches_full_hamiltonian(self):
        p = SystemParams(kappa=1, gamma1=0.3, gamma2=0.1, g1=0.7, g2=0.4, s=0.2)
        system = build_driven_system(p, DriveParams(delta=0.0, amplitude=1.0))
        assert_allclose(system.matrix, build_full_hamiltonian(p))

    @pytest.mark.parametrize("kappa,amplitude,expected", [
        (1.0, 2.0, 2.0),
        (4.0, 1.0, 2.0),
    ])
    def test_force_vector(self, kappa, amplitude, expected):
        p = SystemParams(kappa=kappa)
        system = build_driven_system(p, DriveParams(delta=0.0, amplitude=amplitude))
        assert_allclose(system.force, [expected, 0.0, 0.0])

    def test_detuning_shifts_diagonal(self):
        p = SystemParams()
        system = build_driven_system(p, DriveParams(delta=0.25, amplitude=1.0))
        assert_allclose(system.matrix, build_full_hamiltonian(p) - 0.25 * np.eye(3))


class TestDriveAmplitudeFromPower:
    def test_zero_power(self):
        assert drive_amplitude_from_power(0.0, 2 * math.pi * 1e10) == 0.0

    def test_one_milliwatt_at_ten_gigahertz(self):
        # Direct evaluation of sqrt(1e-3 / (hbar * 2pi * 1e10)).
        value = drive_amplitude_from_power(1e-3, 2 * math.pi * 1e10)
        assert value == pytest.approx(12284910276.007067, rel=1e-12)
        assert value == math.sqrt(1e-3 / (HBAR * 2 * math.pi * 1e10))

    def test_square_root_scaling(self):
        omega = 2 * math.pi * 1e10
        assert drive_amplitude_from_power(4e-3, omega) == pytest.approx(
            2 * drive_amplitude_from_power(1e-3, omega), rel=1e-14
        )

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            drive_amplitude_from_power(1e-3, 0.0)
        with pytest.raises(ValueError):
            drive_amplitude_from_power(-1e-3, 1e10)

    @pytest.mark.parametrize("power,frequency,culprit", [
        (1e-3, -5.0, "drive_frequency"),
        (1e-3, 0.0, "drive_frequency"),
        (-1e-3, 1e10, "power"),
        # hbar * frequency underflows to 0.
        (1e300, 1e-300, "drive_frequency"),
        (0.0, 1e-320, "drive_frequency"),
        # The amplitude overflows to inf.
        (1e300, 1e-10, "power"),
    ])
    def test_rejection_names_the_argument_at_fault(self, power, frequency, culprit):
        with pytest.raises(ValueError) as err:
            drive_amplitude_from_power(power, frequency)
        assert str(err.value).split()[0] == culprit


class TestAdiabaticModel:
    def test_weak_coupling_matrix(self):
        # kappa=1, gamma=0.01, g=0.2, s=0 gives [[-0.05i, -0.04i], [-0.04i, -0.05i]]
        model = build_adiabatic_model(SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0))
        expected = np.array([[-0.05j, -0.04j], [-0.04j, -0.05j]])
        assert_allclose(model.matrix, expected, atol=1e-15)
        assert model.induced_rate == pytest.approx(0.04)
        assert model.gamma_tilde1 == pytest.approx(0.05)

    def test_vanishing_coupling_decouples(self):
        model = build_adiabatic_model(SystemParams(g1=0.0, g2=0.3, s=0.1))
        assert model.matrix[0, 1] == 0 and model.matrix[1, 0] == 0

    def test_diagonal_real_parts_are_plus_minus_s(self):
        model = build_adiabatic_model(SystemParams(s=0.37))
        assert model.matrix[0, 0].real == pytest.approx(0.37)
        assert model.matrix[1, 1].real == pytest.approx(-0.37)

    def test_eigenvalues_match_closed_form_over_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kappa = rng.uniform(0.5, 3.0)
            gamma = rng.uniform(0.0, 0.2)
            g = rng.uniform(0.0, 0.5)
            s = rng.uniform(-0.5, 0.5)
            model = build_adiabatic_model(SystemParams(kappa=kappa, gamma1=gamma, gamma2=gamma, g1=g, g2=g, s=s))
            numeric = np.linalg.eigvals(model.matrix)
            closed = adiabatic_eigenvalues(model)
            assert best_match_errors(numeric, closed).max() < 1e-12


class TestPolaritonTransform:
    def test_basis_is_unitary(self):
        u = polariton_basis()
        assert not u.flags.writeable
        assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_resonant_symmetric_case_is_diagonal(self):
        out = polariton_transform(SystemParams(g1=2, g2=2, s=0))
        assert_allclose(out, np.diag([0.0, 2 * SQRT2, -2 * SQRT2]), atol=1e-12)

    def test_zero_coupling_zero_splitting(self):
        out = polariton_transform(SystemParams(g1=0, g2=0, s=0))
        assert_allclose(out, np.zeros((3, 3)), atol=0)

    def test_splitting_couples_dark_mode_to_bright_modes(self):
        out = polariton_transform(SystemParams(g1=2, g2=2, s=0.5))
        assert out[0, 1] == pytest.approx(0.5 / SQRT2)
        assert out[0, 2] == pytest.approx(-0.5 / SQRT2)
        assert abs(out[1, 2]) < 1e-15

    @given(couplings, splittings)
    def test_matches_expected_structure(self, g, s):
        out = polariton_transform(SystemParams(g1=g, g2=g, s=s))
        expected = np.array(
            [
                [0.0, s / SQRT2, -s / SQRT2],
                [s / SQRT2, SQRT2 * g, 0.0],
                [-s / SQRT2, 0.0, -SQRT2 * g],
            ]
        )
        assert_allclose(out, expected, atol=1e-12 * max(1.0, abs(s), g))

    def test_rejects_asymmetric_couplings(self):
        with pytest.raises(ValueError):
            polariton_transform(SystemParams(g1=0.2, g2=0.3))


class TestLindbladMeanFieldDrift:
    def test_no_dissipators(self):
        drift = lindblad_mean_field_drift((0.5, -0.5), [])
        assert_allclose(drift, -1j * np.diag([0.5, -0.5]))

    def test_single_collective_dissipator(self):
        # rate 2*Gamma with c = (1, 1)/sqrt(2) gives -Gamma * ones((2, 2))
        gamma_c = 0.04
        drift = lindblad_mean_field_drift((0.0, 0.0), [(2 * gamma_c, (1 / SQRT2, 1 / SQRT2))])
        assert_allclose(drift, -gamma_c * np.ones((2, 2)), atol=1e-15)

    def test_three_reservoir_channels_reproduce_adiabatic_matrix(self):
        p = SystemParams(kappa=1, gamma1=0.01, gamma2=0.01, g1=0.2, g2=0.2, s=0.04)
        drift = lindblad_mean_field_drift(
            (p.s, -p.s),
            [
                (p.gamma1, (1, 0)),
                (p.gamma2, (0, 1)),
                (2 * p.g1 * p.g2 / p.kappa, (1 / SQRT2, 1 / SQRT2)),
            ],
        )
        assert_allclose(drift, -1j * build_adiabatic_model(p).matrix, atol=1e-15)

    @given(kappas, rates, rates, couplings, splittings)
    @settings(max_examples=100)
    def test_equivalence_over_random_draws(self, kappa, gamma1, gamma2, g, s):
        p = SystemParams(kappa=kappa, gamma1=gamma1, gamma2=gamma2, g1=g, g2=g, s=s)
        drift = lindblad_mean_field_drift(
            (p.s, -p.s),
            [
                (p.gamma1, (1, 0)),
                (p.gamma2, (0, 1)),
                (2 * g * g / kappa, (1 / SQRT2, 1 / SQRT2)),
            ],
        )
        target = -1j * build_adiabatic_model(p).matrix
        assert_allclose(drift, target, atol=1e-12 * max(1.0, np.abs(target).max()))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            lindblad_mean_field_drift((0, 0), [(-0.1, (1, 0))])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            lindblad_mean_field_drift((0, 0), [(0.1, (1, 0, 0))])


def test_coupling_strength_estimate_is_megahertz_scale():
    # ~1e18 spins, 10 GHz cavity, cm^3 mode volume
    g = coupling_strength_estimate(1e18, 2 * math.pi * 1e10, 1e-6)
    assert 1e5 < g / (2 * math.pi) < 1e9
