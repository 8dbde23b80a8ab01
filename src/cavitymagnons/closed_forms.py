"""The paper's closed forms, kept as named oracles for the tests.

Each function here states one printed result of the coupled-mode model: the
polariton basis, the symmetric and weak-coupling eigenvalues, the reduced
two-mode eigenvalues, the printed magnon response, the symmetric response
whose central pole cancels, the zero-detuning scattering, the mean-field drift
of the equivalent Lindblad model and the material-level coupling estimate.
It also holds the exact propagator exp(-i(H - delta)t) of the driven system,
propagate_exact, the oracle for the RK4 integrator, and resonance_peak_height,
the symmetric system's total spincurrent at zero detuning from the exact
steady state.  Its matrix exponential is a degree-13 Pade scaling and
squaring in numpy; the tests check it against scipy's expm.
The runtime modules never import this module.  Sweeps and steady states work
from the rates (eigenvalues as roots of the characteristic polynomial, steady
states from the resolvent's first column); single-point eigenvalues and RK4
dynamics work from the exact matrices.  The tests check all of them against
these forms.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import HBAR, AdiabaticModel, DriveParams, SystemParams, build_driven_system
from .response import steady_state

_SQRT2 = math.sqrt(2.0)
# Numerator coefficients of the degree-13 Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision (Higham 2005, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def polariton_basis() -> np.ndarray:
    """Unitary map from (a, m1, m2) to the normal modes (dark, upper, lower), read-only.

    Row order is (A, B, C) with A = (m1 - m2)/sqrt(2) the dark combination,
    B = (a + (m1 + m2)/sqrt(2))/sqrt(2) and C = (a - (m1 + m2)/sqrt(2))/sqrt(2)
    the two bright, counter-oscillating combinations.
    """
    u = np.array(
        [
            [0.0, 1.0 / _SQRT2, -1.0 / _SQRT2],
            [1.0 / _SQRT2, 0.5, 0.5],
            [1.0 / _SQRT2, -0.5, -0.5],
        ],
        dtype=complex,
    )
    u.setflags(write=False)
    return u


def polariton_transform(params: SystemParams) -> np.ndarray:
    """Rotate the undamped, symmetric-coupling system into the polariton basis.

    Uses only the Hermitian part (damping ignored) with g1 = g2 = g.  The
    result is diag(0, sqrt(2)g, -sqrt(2)g) plus s/sqrt(2) couplings that feed
    the dark mode A from the bright modes B and C once s != 0:

        [[ 0,        s/sqrt2,  -s/sqrt2 ],
         [ s/sqrt2,  sqrt2*g,   0       ],
         [-s/sqrt2,  0,        -sqrt2*g ]]

    Raises ValueError for asymmetric couplings, where this basis does not
    diagonalize the s = 0 system.
    """
    if params.g1 != params.g2:
        raise ValueError("polariton basis requires symmetric couplings g1 == g2")
    g, s = params.g1, params.s
    hermitian = np.array(
        [
            [0.0, g, g],
            [g, s, 0.0],
            [g, 0.0, -s],
        ],
        dtype=complex,
    )
    u = polariton_basis()
    return u @ hermitian @ u.conj().T


def lindblad_mean_field_drift(hamiltonian_diag, dissipators) -> np.ndarray:
    """Mean-field drift matrix of a two-mode Lindblad master equation.

    For H = delta1*m1'm1 + delta2*m2'm2 and collapse channels
    sigma_k = c_k . (m1, m2) entering as rate_k * L(sigma_k) with
    L(sigma) rho = 2 sigma rho sigma' - sigma'sigma rho - rho sigma'sigma,
    the first moments obey d<Y>/dt = M <Y> with

        M = -i*diag(delta1, delta2) - sum_k rate_k * outer(conj(c_k), c_k).

    With the three channels gamma1*L(m1), gamma2*L(m2) and
    2*(g1 g2/kappa)*L((m1+m2)/sqrt(2)) this reproduces exactly
    -i * build_adiabatic_model(...).matrix for delta = (+s, -s): a shared
    lossy reservoir generates the same dissipative coupling as the
    adiabatically eliminated cavity.
    """
    d1, d2 = hamiltonian_diag
    drift = -1j * np.diag([complex(d1), complex(d2)])
    for rate, coeff in dissipators:
        rate = float(rate)
        if rate < 0:
            raise ValueError(f"dissipator rate must be non-negative, got {rate}")
        c = np.asarray(coeff, dtype=complex)
        if c.shape != (2,):
            raise ValueError(f"dissipator coefficient vector must have length 2, got shape {c.shape}")
        drift = drift - rate * np.outer(c.conj(), c)
    return drift


def coupling_strength_estimate(spin_count: float, cavity_frequency: float, mode_volume: float) -> float:
    """Documented estimate of the collective magnon-photon coupling (rad/s).

    g = (sqrt(5)/2) * gamma_e * sqrt(N) * B_vac with gamma_e = 2pi * 28 GHz/T
    and B_vac = sqrt(mu0 * hbar * omega_c / (2 V)) the vacuum magnetic field
    of a cavity mode of angular frequency omega_c and volume V (SI form of
    the Gaussian-convention sqrt(2 pi hbar omega_c / V)).  For a 1 mm YIG
    sphere (N ~ 1e18 spins) in a centimeter-scale microwave cavity this lands
    in the tens-of-MHz range.  This helper documents how a material-level
    coupling arises; the simulation interface itself takes g directly in
    kappa units.
    """
    if spin_count < 0 or mode_volume <= 0 or cavity_frequency <= 0:
        raise ValueError("spin_count >= 0, cavity_frequency > 0 and mode_volume > 0 required")
    gamma_e = 2 * math.pi * 28e9  # rad/s per tesla
    mu0 = 4 * math.pi * 1e-7
    b_vac = math.sqrt(mu0 * HBAR * cavity_frequency / (2.0 * mode_volume))
    return (math.sqrt(5) / 2) * gamma_e * math.sqrt(spin_count) * b_vac


def closed_form_symmetric(params: SystemParams) -> np.ndarray:
    """Eigenvalues (lambda0, lambda+, lambda-) for kappa = gamma1 = gamma2, g1 = g2.

    lambda0 = -i*kappa and lambda+- = -i*kappa +/- sqrt(s^2 + 2 g^2): all three
    linewidths are identical and the real parts repel with minimum gap
    2*sqrt(2)*g at s = 0.
    """
    p = params
    if not (p.kappa == p.gamma1 == p.gamma2):
        raise ValueError("closed form requires kappa == gamma1 == gamma2")
    if p.g1 != p.g2:
        raise ValueError("closed form requires g1 == g2")
    split = math.sqrt(p.s ** 2 + 2.0 * p.g1 ** 2)
    lam0 = -1j * p.kappa
    return np.array([lam0, lam0 + split, lam0 - split], dtype=complex)


def weak_coupling_approx(params: SystemParams) -> np.ndarray:
    """Approximate eigenvalues (lambda0, lambda+, lambda-) for g, |s| << kappa, gamma ~ 0.

    lambda0  = -i*kappa*(1 - 2 g^2/(s^2 + kappa^2))   (cavity-like)
    lambda+- = -i*Gamma +/- i*sqrt(Gamma^2 - s^2)     (magnon-like), Gamma = g^2/kappa

    Inside |s| < Gamma the magnon pair is purely imaginary with coinciding real
    parts (level attraction) and coalesces at s = +/- Gamma; at s = 0 the
    narrow branch lambda+ is exactly 0 and the broad one is -2i*Gamma.
    Validity is the caller's concern; no parameter checks beyond symmetry.
    """
    p = params
    if p.g1 != p.g2:
        raise ValueError("weak-coupling form requires g1 == g2")
    g, s, kappa = p.g1, p.s, p.kappa
    big_gamma = g ** 2 / kappa
    lam0 = -1j * kappa * (1.0 - 2.0 * g ** 2 / (s ** 2 + kappa ** 2))
    radical = cmath.sqrt(complex(big_gamma ** 2 - s ** 2))
    return np.array(
        [lam0, -1j * big_gamma + 1j * radical, -1j * big_gamma - 1j * radical],
        dtype=complex,
    )


def adiabatic_eigenvalues(model: AdiabaticModel) -> np.ndarray:
    """Eigenvalues (lambda+, lambda-) of the reduced two-mode model, symmetric case.

    lambda+- = -i*(gamma + g^2/kappa) +/- sqrt(s^2 - (g1 g2/kappa)^2).  The
    radical is independent of gamma, so the phase-transition points sit at
    s = +/- g1 g2/kappa regardless of the magnon damping.
    """
    if model.gamma_tilde1 != model.gamma_tilde2:
        raise ValueError("closed-form adiabatic eigenvalues require equal dressed dampings")
    s = model.matrix[0, 0].real
    radical = cmath.sqrt(complex(s ** 2 - model.induced_rate ** 2))
    common = -1j * model.gamma_tilde1
    return np.array([common + radical, common - radical], dtype=complex)


def analytic_magnon_response(params: SystemParams, drive: DriveParams) -> tuple[complex, complex]:
    """Closed-form magnon amplitudes, implemented exactly as printed.

        m1 = -i sqrt(kappa) E g1 (s + delta + i gamma1) / D
        m2 = +i sqrt(kappa) E g2 (s - delta - i gamma1) / D
        D  = (delta + i kappa)(s - delta - i gamma1)(s + delta + i gamma2)
             + g1^2 (s + delta + i gamma2) - g2^2 (s - delta - i gamma1)

    Note the gamma1 in the m1 numerator: the exact cofactor carries gamma2
    there, so for gamma1 != gamma2 this form deviates from the linear solve in
    m1 (the m2 line and D itself agree with the exact expansion).  Tests
    cross-check against steady_state for gamma1 == gamma2 only and surface the
    asymmetric-damping discrepancy as a documented finding.
    """
    p, delta, amp = params, drive.delta, drive.amplitude
    det = (
        (delta + 1j * p.kappa)
        * (p.s - delta - 1j * p.gamma1)
        * (p.s + delta + 1j * p.gamma2)
        + p.g1 ** 2 * (p.s + delta + 1j * p.gamma2)
        - p.g2 ** 2 * (p.s - delta - 1j * p.gamma1)
    )
    if det == 0:
        raise ZeroDivisionError("response determinant vanishes at this detuning")
    root_kappa = math.sqrt(p.kappa)
    m1 = -1j * root_kappa * amp * p.g1 * (p.s + delta + 1j * p.gamma1) / det
    m2 = 1j * root_kappa * amp * p.g2 * (p.s - delta - 1j * p.gamma1) / det
    return m1, m2


def symmetric_response_closed_form(params: SystemParams, drive: DriveParams) -> complex:
    """Common magnon amplitude for s = 0, kappa = gamma1 = gamma2, g1 = g2.

        m = i sqrt(kappa) g E / ((delta + sqrt(2) g + i kappa)(delta - sqrt(2) g + i kappa))

    The pole at the cavity-like eigenvalue cancels, which is why the central
    spectral peak vanishes in the perfectly symmetric case.
    """
    p = params
    if p.s != 0 or not (p.kappa == p.gamma1 == p.gamma2) or p.g1 != p.g2:
        raise ValueError("closed form requires s == 0, kappa == gamma1 == gamma2, g1 == g2")
    g, kappa = p.g1, p.kappa
    split = _SQRT2 * g
    return (
        1j * math.sqrt(kappa) * g * drive.amplitude
        / ((drive.delta + split + 1j * kappa) * (drive.delta - split + 1j * kappa))
    )


def zero_detuning_scattering_closed_form(params: SystemParams) -> tuple[complex, complex]:
    """Closed-form (r, t) at delta = 0 for equal magnon dampings.

        t = (s^2 + gamma^2) / (s^2 + gamma^2 + 2 gamma Gamma),  r = t - 1,

    with Gamma = g^2/kappa.  For gamma -> 0 this tends to perfect
    transparency; the window closes as gamma*Gamma grows against s^2.
    """
    p = params
    if p.gamma1 != p.gamma2 or p.g1 != p.g2:
        raise ValueError("closed form requires gamma1 == gamma2 and g1 == g2")
    gamma = p.gamma1
    big_gamma = p.g1 ** 2 / p.kappa
    t = (p.s ** 2 + gamma ** 2) / (p.s ** 2 + gamma ** 2 + 2.0 * gamma * big_gamma)
    return t - 1.0, complex(t)


def resonance_peak_height(params: SystemParams, amplitude: float = 1.0) -> float:
    """Total spincurrent at zero drive detuning for the symmetric system.

    Requires kappa == gamma1 == gamma2 and g1 == g2.  Computed from the exact
    steady state; as a function of s this height is minimal at s = 0, where
    the dark mode swallows the central resonance.
    """
    p = params
    if not (p.kappa == p.gamma1 == p.gamma2):
        raise ValueError("peak height requires kappa == gamma1 == gamma2")
    if p.g1 != p.g2:
        raise ValueError("peak height requires g1 == g2")
    return steady_state(p, DriveParams(delta=0.0, amplitude=amplitude)).total_spincurrent


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring with the degree-13 Pade approximant (Higham 2005).

    A is scaled by 2^-s until its 1-norm is at most theta_13, where the
    approximant is accurate to double precision, and the result is squared s
    times.  It stays on numpy: scipy's expm hands its 3x3 LU solve to scipy's
    own OpenBLAS thread pool, which leaves a worker thread spinning after
    every call.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def propagate_exact(
    params: SystemParams,
    drive: DriveParams,
    state0,
    t: float,
) -> np.ndarray:
    """Closed-form solution exp(-i(H-delta)t) (X0 - Xss) + Xss of the driven system.

    Used as the integrator oracle.  The particular solution Xss requires a
    nonsingular (H - delta); with no drive the propagator alone is applied.
    """
    system = build_driven_system(params, drive)
    a = -1j * system.matrix
    state0 = np.asarray(state0, dtype=complex)
    propagator = matrix_exponential(a * t)
    if np.all(system.force == 0):
        return propagator @ state0
    x_ss = np.linalg.solve(a, -system.force)
    return propagator @ (state0 - x_ss) + x_ss
