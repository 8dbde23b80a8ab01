"""Driven steady states: spincurrent spectra, dark-mode amplitude, scattering.

Every steady state is X = -i (H - delta)^(-1) F with F = sqrt(kappa) (E, 0, 0),
so only the first column of the inverse is needed.  H - delta is an arrowhead
matrix (no direct magnon-magnon element), whose first inverse column is
(bc, -g1 c, -g2 b) / det with det = abc - g1^2 c - g2^2 b on the diagonal
a, b, c.  _first_column writes that formula once, in real arithmetic with
power-of-two scaling, for one detuning as Python floats and for a sweep as
float arrays; both round identically, so a point equals its sweep row bit
for bit.  An exact det == 0 is the singular case.  The printed closed forms
(magnon response functions, the symmetric response, zero-detuning
transmission) live in closed_forms as test oracles and are checked against
these steady states.

Observables per drive detuning: the steady-state amplitudes (a, m1, m2), the
total spincurrent |m1|^2 + |m2|^2, the dark-mode amplitude (m1 - m2)/sqrt(2)
(exactly zero for a perfectly symmetric system on resonance), and the
input-output coefficients t = sqrt(kappa) a / E and r = t - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, SystemParams

_SQRT2 = math.sqrt(2.0)


def _total_spincurrent(m1, m2):
    """|m1|^2 + |m2|^2 of numpy complex scalars or arrays, rounded as abs(m1) ** 2 + abs(m2) ** 2.

    abs(m) ** 2 of a numpy scalar is hypot, then pow; np.abs and ** on arrays
    round differently (SIMD modulus, squaring), hypot and float_power do not.
    """
    return np.float_power(np.hypot(m1.real, m1.imag), 2) + np.float_power(np.hypot(m2.real, m2.imag), 2)


def _dark_amplitude(m1, m2):
    return (m1 - m2) / _SQRT2


@dataclass(frozen=True)
class ResponsePoint:
    """Steady-state response at one drive detuning.

    t is the transmission coefficient of the cavity port; it is amplitude
    independent and remains defined for amplitude = 0.  total_spincurrent
    (|m1|^2 + |m2|^2), dark_amplitude ((m1 - m2)/sqrt(2)) and the reflection
    r = t - 1 are computed from the fields on access, by the formulas of
    SpectrumSweep's columns.
    """

    delta: float
    a: complex
    m1: complex
    m2: complex
    t: complex

    @property
    def total_spincurrent(self) -> float:
        return _total_spincurrent(self.m1, self.m2)

    @property
    def dark_amplitude(self) -> complex:
        return _dark_amplitude(self.m1, self.m2)

    @property
    def r(self) -> complex:
        return self.t - 1.0


@dataclass(frozen=True)
class SpectrumSweep:
    """Steady-state response columns over a drive-detuning grid plus detected peaks.

    deltas : (n,) drive detunings
    states : (n, 3) steady-state amplitudes, columns (a, m1, m2)
    t      : (n,) transmission coefficients; r = t - 1 is the reflection
    peaks  : strict three-point local maxima of the total spincurrent on the
             grid, (delta, height) pairs in increasing delta order

    total_spincurrent, dark_amplitude and r are computed from these columns
    on access, and so is points, a tuple of ResponsePoint objects whose
    fields equal the column values bit for bit.
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
    def points(self) -> tuple[ResponsePoint, ...]:
        return tuple(
            ResponsePoint(float(delta), a, m1, m2, t) for delta, (a, m1, m2), t in zip(self.deltas, self.states, self.t)
        )


def _singular(delta) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"singular steady-state system at delta={float(delta):.17g}")


def _require_nonzero_point(det_re: float, det_im: float, delta: float) -> None:
    if det_re == 0 and det_im == 0:
        raise _singular(delta)


def _require_nonzero_sweep(det_re: np.ndarray, det_im: np.ndarray, deltas: np.ndarray) -> None:
    zero = (det_re == 0) & (det_im == 0)
    if zero.any():
        raise _singular(deltas[zero.argmax()])


def _ldexp_point(x: float, n: int) -> float:
    """math.ldexp, but overflowing to +/-inf as numpy.ldexp does instead of raising."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


# (frexp, ldexp, maximum, singular check) for one detuning as a Python float
# and for a float array of detunings; the formula below is written once for both.
_POINT_OPS = (math.frexp, _ldexp_point, max, _require_nonzero_point)
_SWEEP_OPS = (np.frexp, np.ldexp, np.maximum, _require_nonzero_sweep)


def _first_column(p: SystemParams, delta, ops) -> list:
    """Real and imaginary parts [(re, im) of each mode] of the first column of (H - delta)^(-1).

    H - delta is scaled symmetrically, D (H - delta) D with D = diag(2**-k_i)
    (one Ruiz equilibration step in powers of two), so that each row's
    largest real or imaginary part lies in [0.5, 2): no product of scaled
    entries overflows, and det underflows only where the scaled matrix is
    singular to working precision.  det is then scaled by a second power of two
    2**f, so |det|^2 neither overflows nor underflows, 1/det is
    conj(det)/|det|^2, and mode j of the column is scaled back by
    2**-(k_0 + k_j + f).  Each step is one IEEE operation on floats or float
    arrays (numpy's complex loops may fuse multiply-adds, Python's complex
    arithmetic does not), so a float delta and an array of them give the
    same bits.  Raises numpy.linalg.LinAlgError naming delta where det == 0.
    """
    frexp, ldexp, maximum, require_nonzero = ops
    # Diagonal a = -delta - i kappa, b = s - delta - i gamma1, c = -s - delta - i gamma2;
    # g1 and g2 couple a to b and to c.
    b_re, c_re = p.s - delta, -p.s - delta
    k0 = frexp(maximum(abs(delta), max(p.kappa, p.g1, p.g2)))[1] // 2
    k1 = frexp(maximum(abs(b_re), max(p.gamma1, p.g1)))[1] // 2
    k2 = frexp(maximum(abs(c_re), max(p.gamma2, p.g2)))[1] // 2
    d0, d1, d2 = ldexp(1.0, -k0), ldexp(1.0, -k1), ldexp(1.0, -k2)
    a_re, a_im = -delta * d0 * d0, -p.kappa * d0 * d0
    b_re, b_im = b_re * d1 * d1, -p.gamma1 * d1 * d1
    c_re, c_im = c_re * d2 * d2, -p.gamma2 * d2 * d2
    g1, g2 = p.g1 * d0 * d1, p.g2 * d0 * d2
    bc_re, bc_im = b_re * c_re - b_im * c_im, b_re * c_im + b_im * c_re
    g1g1, g2g2 = g1 * g1, g2 * g2
    det_re = a_re * bc_re - a_im * bc_im - g1g1 * c_re - g2g2 * b_re
    det_im = a_re * bc_im + a_im * bc_re - g1g1 * c_im - g2g2 * b_im
    require_nonzero(det_re, det_im, delta)
    f = frexp(maximum(abs(det_re), abs(det_im)))[1]
    det_re, det_im = ldexp(det_re, -f), ldexp(det_im, -f)
    modulus2 = det_re * det_re + det_im * det_im
    inv_re, inv_im = det_re / modulus2, -det_im / modulus2
    column = []
    for (n_re, n_im), k in (((bc_re, bc_im), k0), ((-g1 * c_re, -g1 * c_im), k1), ((-g2 * b_re, -g2 * b_im), k2)):
        back = -(k0 + k + f)
        column.append((ldexp(n_re * inv_re - n_im * inv_im, back), ldexp(n_re * inv_im + n_im * inv_re, back)))
    return column


def _steady_parts(p: SystemParams, column, amplitude: float) -> list:
    """Parts of X = -i sqrt(kappa) E column and of t = -i kappa column[0]: [a, m1, m2, t]."""
    drive = math.sqrt(p.kappa) * amplitude
    parts = [(drive * im, -(drive * re)) for re, im in column]
    re, im = column[0]
    parts.append((p.kappa * im, -(p.kappa * re)))
    return parts


def steady_state(params: SystemParams, drive: DriveParams) -> ResponsePoint:
    """Solve the driven steady state (H - delta) X = -i F exactly.

    X = -i (H - delta)^(-1) F with F = sqrt(kappa) (E, 0, 0), from the closed
    form of the inverse's first column.  The system is nonsingular whenever
    any damping rate is positive.  Raises numpy.linalg.LinAlgError (a
    ValueError) naming delta for a singular system (all dampings zero with
    the drive on a real eigenvalue).  This is the one-point case of the
    formula behind spincurrent_spectrum and gives the same values bit for bit.
    """
    column = _first_column(params, float(drive.delta), _POINT_OPS)
    a, m1, m2, t = np.array([complex(re, im) for re, im in _steady_parts(params, column, drive.amplitude)])
    return ResponsePoint(drive.delta, a, m1, m2, t)


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
    of each detected peak.  All steady states come from the closed-form
    resolvent column evaluated on arrays over the grid; the returned sweep
    also carries r and t over the grid.  Raises numpy.linalg.LinAlgError
    naming the first detuning where the system is singular.
    """
    deltas = np.array(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("drive-detuning grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("drive detunings must be finite")
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and non-negative, got {amplitude!r}")
    parts = _steady_parts(params, _first_column(params, deltas, _SWEEP_OPS), amplitude)
    states, t = np.empty((deltas.size, 3), dtype=complex), np.empty(deltas.size, dtype=complex)
    for column, (re, im) in zip((states[:, 0], states[:, 1], states[:, 2], t), parts):
        column.real, column.imag = re, im
    heights = _total_spincurrent(states[:, 1], states[:, 2])
    peaks = []
    for i in _local_maxima(heights):
        if refine_peaks:
            peaks.append(_parabolic_refine(deltas, heights, i))
        else:
            peaks.append((float(deltas[i]), float(heights[i])))
    return SpectrumSweep(deltas=deltas, states=states, t=t, peaks=tuple(peaks))


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
    column = _first_column(params, float(drive.delta), _POINT_OPS)
    t = np.complex128(complex(*_steady_parts(params, column, 0.0)[3]))
    return t - 1.0, t
