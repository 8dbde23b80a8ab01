"""Parameter space and matrix builders for two magnon modes in a lossy cavity.

The basic object is a 3x3 non-Hermitian coupled-mode matrix in the fixed mode
order (a, m1, m2): one cavity mode with amplitude decay rate kappa, two magnon
modes with decay rates gamma1, gamma2, coherent couplings g1, g2 to the cavity,
and half-splitting s between the magnon frequencies.  The rotating frame sits
at the magnon midpoint, so the two magnons appear at +s and -s and the cavity
at zero detuning.  All rates are dimensionless in units of kappa unless stated
otherwise; the only SI-aware helper is :func:`drive_amplitude_from_power`.

Everything here is a pure function of immutable inputs and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA reduced Planck constant, J*s. Pinned for reproducible SI conversion.
HBAR = 1.0545718e-34

_EYE3 = np.eye(3)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Rates and detunings of the three-mode system, in units of kappa.

    kappa   : cavity amplitude decay rate (> 0; sets the rate unit)
    gamma1  : decay rate of magnon 1 (>= 0)
    gamma2  : decay rate of magnon 2 (>= 0)
    g1, g2  : coherent magnon-photon couplings (>= 0)
    s       : half the magnon-magnon frequency splitting; any real value,
              the usual sweep variable
    """

    kappa: float = 1.0
    gamma1: float = 0.01
    gamma2: float = 0.01
    g1: float = 0.2
    g2: float = 0.2
    s: float = 0.0

    def __post_init__(self):
        for name in ("kappa", "gamma1", "gamma2", "g1", "g2", "s"):
            _require_finite(name, getattr(self, name))
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        for name in ("gamma1", "gamma2", "g1", "g2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def induced_rate(self) -> float:
        """Cavity-mediated collective rate g1*g2/kappa."""
        return self.g1 * self.g2 / self.kappa


@dataclass(frozen=True)
class DriveParams:
    """Cavity drive: detuning delta from the magnon midpoint and amplitude.

    The amplitude carries square-root-of-photon-flux units; in kappa units the
    default drive strength is 1.
    """

    delta: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        _require_finite("delta", self.delta)
        _require_finite("amplitude", self.amplitude)
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude}")


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Drive-frame system: matrix (H - delta*I) and drive vector sqrt(kappa)*(E, 0, 0)."""

    matrix: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.force.setflags(write=False)


@dataclass(frozen=True)
class AdiabaticModel:
    """Reduced 2x2 magnon-only model after eliminating a fast cavity.

    matrix       : 2x2 complex matrix in mode order (m1, m2); the off-diagonal
                   entries are -i*g1*g2/kappa, a purely dissipative coupling
    induced_rate : g1*g2/kappa
    gamma_tilde1 : dressed decay rate gamma1 + g1**2/kappa
    gamma_tilde2 : dressed decay rate gamma2 + g2**2/kappa
    """

    matrix: np.ndarray
    induced_rate: float
    gamma_tilde1: float
    gamma_tilde2: float

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_full_hamiltonian(params: SystemParams) -> np.ndarray:
    """Build the 3x3 non-Hermitian coupled-mode matrix in mode order (a, m1, m2).

    The diagonal carries -i*kappa, s - i*gamma1, -s - i*gamma2; the couplings
    g1, g2 sit symmetrically between the cavity and each magnon, and there is
    no direct magnon-magnon element.
    """
    p = params
    return np.array(
        [
            [-1j * p.kappa, p.g1, p.g2],
            [p.g1, p.s - 1j * p.gamma1, 0.0],
            [p.g2, 0.0, -p.s - 1j * p.gamma2],
        ],
        dtype=complex,
    )


def build_driven_system(params: SystemParams, drive: DriveParams) -> EffectiveHamiltonian:
    """Shift into the drive frame: matrix = H - delta*I, force = sqrt(kappa)*(E, 0, 0)."""
    matrix = build_full_hamiltonian(params) - drive.delta * _EYE3
    force = np.array([math.sqrt(params.kappa) * drive.amplitude, 0.0, 0.0], dtype=complex)
    return EffectiveHamiltonian(matrix=matrix, force=force)


def drive_amplitude_from_power(power: float, drive_frequency: float) -> float:
    """Convert drive power (W) and angular frequency (rad/s) to an amplitude.

    Returns sqrt(P / (hbar * omega_d)) in units of sqrt(photons/s).  Raises
    ValueError, naming the argument at fault first, for a negative power, a
    non-positive frequency, a frequency whose photon energy underflows to 0,
    or an amplitude that overflows.
    """
    power = _require_finite("power", power)
    drive_frequency = _require_finite("drive_frequency", drive_frequency)
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    if drive_frequency <= 0:
        raise ValueError(f"drive_frequency must be positive, got {drive_frequency}")
    photon_energy = HBAR * drive_frequency
    if photon_energy == 0:
        raise ValueError(f"drive_frequency {drive_frequency!r} is too small: hbar * drive_frequency underflows to 0")
    amplitude = math.sqrt(power / photon_energy)
    if not math.isfinite(amplitude):
        raise ValueError(f"power {power!r} is too large for drive_frequency {drive_frequency!r}: the amplitude overflows")
    return amplitude


def _dressed_rates(p: SystemParams) -> tuple[float, float, float]:
    """gamma1 + g1**2/kappa, gamma2 + g2**2/kappa and the induced rate g1*g2/kappa."""
    # g * g overflows to inf where the float g ** 2 raises OverflowError.
    return p.gamma1 + p.g1 * p.g1 / p.kappa, p.gamma2 + p.g2 * p.g2 / p.kappa, p.induced_rate


def build_adiabatic_model(params: SystemParams) -> AdiabaticModel:
    """Eliminate the cavity by slaving it to the magnons (a = -i(g1 m1 + g2 m2)/kappa).

    Valid when the cavity relaxes much faster than everything else
    (kappa >> g_i, gamma_i).  The reduced matrix is

        [[ s - i*gamma_tilde1,  -i*g1*g2/kappa     ],
         [ -i*g1*g2/kappa,      -s - i*gamma_tilde2]]

    with gamma_tilde_i = gamma_i + g_i**2/kappa: each magnon picks up a
    cavity-induced decay, and the two magnons acquire a purely imaginary
    (dissipative) mutual coupling.
    """
    gt1, gt2, rate = _dressed_rates(params)
    matrix = np.array(
        [
            [params.s - 1j * gt1, -1j * rate],
            [-1j * rate, -params.s - 1j * gt2],
        ],
        dtype=complex,
    )
    return AdiabaticModel(matrix=matrix, induced_rate=rate, gamma_tilde1=gt1, gamma_tilde2=gt2)

