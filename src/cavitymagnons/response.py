"""Driven steady states: spincurrent spectra, dark-mode amplitude, scattering.

The single source of truth is the exact 3x3 linear solve of the drive-frame
steady state (H - delta) X = -i F; every printed closed form (magnon response
functions, central peak height, transmission/reflection) is implemented or
checked against that solve rather than trusted on its own.

Observables per drive detuning: the steady-state amplitudes (a, m1, m2), the
total spincurrent |m1|^2 + |m2|^2, the dark-mode amplitude (m1 - m2)/sqrt(2)
(exactly zero for a perfectly symmetric system on resonance), and the
input-output coefficients t = sqrt(kappa) a / E and r = t - 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, SystemParams, drive_frame_matrices

_SQRT2 = math.sqrt(2.0)
# Unit drive at the cavity port, as a (3, 1) right-hand side for the solve.
_CAVITY_PORT = np.array([[1.0], [0.0], [0.0]], dtype=complex)


@dataclass(frozen=True)
class ResponsePoint:
    """Steady-state response at one drive detuning.

    total_spincurrent is |m1|^2 + |m2|^2 and dark_amplitude is
    (m1 - m2)/sqrt(2), both definitional.  r and t are the reflection and
    transmission coefficients of the cavity port; they are amplitude
    independent and remain defined for amplitude = 0.
    """

    delta: float
    a: complex
    m1: complex
    m2: complex
    total_spincurrent: float
    dark_amplitude: complex
    r: complex
    t: complex


def _total_spincurrent(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """|m1|^2 + |m2|^2 over arrays, rounded as _response_point rounds one point.

    abs(m) ** 2 of a numpy scalar is hypot, then pow; np.abs and ** on arrays
    round differently (SIMD modulus, squaring), hypot and float_power do not.
    """
    return np.float_power(np.hypot(m1.real, m1.imag), 2) + np.float_power(np.hypot(m2.real, m2.imag), 2)


def _dark_amplitude(m1, m2):
    return (m1 - m2) / _SQRT2


def _response_point(delta: float, a, m1, m2, t) -> ResponsePoint:
    return ResponsePoint(
        delta=delta,
        a=a,
        m1=m1,
        m2=m2,
        total_spincurrent=abs(m1) ** 2 + abs(m2) ** 2,
        dark_amplitude=_dark_amplitude(m1, m2),
        r=t - 1.0,
        t=t,
    )


class ResponsePoints(Sequence):
    """Read-only view of sweep columns as ResponsePoint objects.

    Each point is built when it is accessed; its fields equal the sweep's
    column values bit for bit.  Indexing takes negative indices and slices (a
    slice gives a tuple of points) and raises IndexError out of range.
    """

    def __init__(self, deltas: np.ndarray, states: np.ndarray, t: np.ndarray):
        self._deltas = deltas
        self._states = states
        self._t = t

    def __len__(self) -> int:
        return len(self._deltas)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        a, m1, m2 = self._states[index]
        return _response_point(float(self._deltas[index]), a, m1, m2, self._t[index])


@dataclass(frozen=True)
class SpectrumSweep:
    """Steady-state response columns over a drive-detuning grid plus detected peaks.

    deltas : (n,) drive detunings
    states : (n, 3) steady-state amplitudes, columns (a, m1, m2)
    t      : (n,) transmission coefficients; r = t - 1 is the reflection
    peaks  : strict three-point local maxima of the total spincurrent on the
             grid, (delta, height) pairs in increasing delta order

    total_spincurrent, dark_amplitude and r are computed from these columns
    on access; points is a lazy read-only sequence of ResponsePoint objects.
    """

    deltas: np.ndarray
    states: np.ndarray
    t: np.ndarray
    peaks: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for column in (self.deltas, self.states, self.t):
            column.setflags(write=False)

    @property
    def total_spincurrent(self) -> np.ndarray:
        return _total_spincurrent(self.states[:, 1], self.states[:, 2])

    @property
    def dark_amplitude(self) -> np.ndarray:
        return _dark_amplitude(self.states[:, 1], self.states[:, 2])

    @property
    def r(self) -> np.ndarray:
        return self.t - 1.0

    @property
    def points(self) -> ResponsePoints:
        return ResponsePoints(self.deltas, self.states, self.t)


def _resolvent_columns(params: SystemParams, deltas) -> np.ndarray:
    """First column of (H - delta)^(-1) at each delta, from one stacked solve.

    Shape (*deltas.shape, 3): the response of each mode to the cavity port.
    Raises numpy.linalg.LinAlgError when any matrix of the stack is singular.
    """
    return np.linalg.solve(drive_frame_matrices(params, deltas), _CAVITY_PORT)[..., 0]


def _transmission(params: SystemParams, column: np.ndarray) -> np.ndarray:
    """t = sqrt(kappa) a / E from resolvent columns; amplitude independent."""
    # .T[0] rather than [..., 0]: a single column then gives a numpy scalar.
    return -1j * params.kappa * column.T[0]


def _steady_columns(params: SystemParams, deltas, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Steady states X = -i (H - delta)^(-1) F, shape (..., 3), and transmissions t, shape (...)."""
    column = _resolvent_columns(params, deltas)
    return (-1j * math.sqrt(params.kappa) * amplitude) * column, _transmission(params, column)


def steady_state(params: SystemParams, drive: DriveParams) -> ResponsePoint:
    """Solve the driven steady state (H - delta) X = -i F exactly.

    X = -i (H - delta)^(-1) F with F = sqrt(kappa) (E, 0, 0).  The system is
    nonsingular whenever any damping rate is positive.  Raises
    numpy.linalg.LinAlgError for a singular system (all dampings zero with the
    drive on a real eigenvalue).  This is the one-point case of the solve
    behind spincurrent_spectrum and gives the same values bit for bit.
    """
    (a, m1, m2), t = _steady_columns(params, drive.delta, drive.amplitude)
    return _response_point(drive.delta, a, m1, m2, t)


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


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict three-point local maxima."""
    inner = values[1:-1]
    return np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through three neighboring samples around i."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0:
        return float(x[i]), float(y[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    step = x[i + 1] - x[i]
    peak_x = x[i] + shift * step
    peak_y = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
    return float(peak_x), float(peak_y)


def spincurrent_spectrum(
    params: SystemParams,
    deltas,
    amplitude: float = 1.0,
    refine_peaks: bool = False,
) -> SpectrumSweep:
    """Total spincurrent |m1|^2 + |m2|^2 across a drive-detuning grid.

    In the strong-coupling symmetric regime the spectrum shows three peaks
    that collapse to two at s = 0, where the central resonance is extinguished
    by the dark mode; in the bad-cavity regime the magnon peaks coalesce into
    a single narrow line around s = 0.  Peak detection is a strict local
    maximum on the grid; refine_peaks=True adds parabolic sub-grid refinement
    of each detected peak.  All steady states come from one stacked solve;
    the returned sweep also carries r and t over the grid.
    """
    deltas = np.array(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("drive-detuning grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("drive detunings must be finite")
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and non-negative, got {amplitude!r}")
    states, t = _steady_columns(params, deltas, amplitude)
    heights = _total_spincurrent(states[:, 1], states[:, 2])
    peaks = []
    for i in _local_maxima(heights):
        if refine_peaks:
            peaks.append(_parabolic_refine(deltas, heights, i))
        else:
            peaks.append((float(deltas[i]), float(heights[i])))
    return SpectrumSweep(deltas=deltas, states=states, t=t, peaks=tuple(peaks))


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


def reflection_transmission(params: SystemParams, drive: DriveParams) -> tuple[complex, complex]:
    """Reflection and transmission coefficients (r, t) of the cavity port.

    From the input-output relations b_out = sqrt(kappa) a and
    a_out + E = sqrt(kappa) a, so t = sqrt(kappa) a / E and r = t - 1.
    Computed from the exact steady state via the resolvent, which is amplitude
    independent and valid for unequal magnon dampings as well; the printed
    equal-damping closed form serves as a test oracle only.  For lossless
    magnons (gamma = 0) the two-port is lossless: |t|^2 + |r|^2 = 1, with
    perfect transparency t = 1 at delta = 0 for any s != 0.
    """
    t = _transmission(params, _resolvent_columns(params, drive.delta))
    return t - 1.0, t


def dark_mode_amplitude(params: SystemParams, drive: DriveParams) -> complex:
    """Steady-state amplitude of the dark combination (m1 - m2)/sqrt(2).

    Exactly zero when the magnons are degenerate (s = 0) and coupled and
    damped symmetrically; any asymmetry in s, in the couplings or in the
    dampings repopulates it.
    """
    return steady_state(params, drive).dark_amplitude


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
