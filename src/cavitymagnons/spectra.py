"""Complex eigenvalue spectra, branch tracking and exceptional-point search.

Two regimes of the three-mode system are of interest: strong coupling with
comparable linewidths, where the eigenfrequencies repel with a minimum gap of
2*sqrt(2)*g, and the weak-coupling / bad-cavity regime, where the magnon-like
eigenvalues attract and coalesce at exceptional points of the reduced two-mode
model located at s = +/- g1*g2/kappa.

Sweep eigenvalues come from LAPACK zgeev through numpy.linalg.eigvals, one path
for a single matrix and for a whole (n, 3, 3) or (n, 2, 2) sweep stack: a sweep
builds its matrix stack by broadcasting and makes one eigvals call, and the
batched call returns the same values, bit for bit, as per-matrix calls.  zgeev
is backward stable, so every eigenvalue satisfies the characteristic equation
to a residual |det(lambda I - H)| <= 1e-9 ||H||^3, which the tests check
alongside companion-matrix and closed-form oracles.  Branch tracking scores
the k! assignments between consecutive sweep points in fixed-size blocks of
array operations.

An exceptional point is a double eigenvalue, so the search takes the lowest
real root in its bracket of the discriminant of the characteristic polynomial
in s (a closed-form quadratic for the reduced two-mode model, numpy.roots of a
degree-6 polynomial for the full one) whose magnon-like pair gap passes
EP_GAP_TOLERANCE.  There is no iterative search.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AdiabaticModel,
    SystemParams,
    build_adiabatic_model,
    build_full_hamiltonian,
)

# A pair of eigenvalues closer than this (in kappa units) counts as coalesced,
# and a discriminant root this close to the real axis (in kappa units) counts as real.
EP_GAP_TOLERANCE = 1e-6
# Sweep steps that track_branches scores per pass; bounds its (block, k!, k!)
# cost tensors instead of holding one for the whole sweep.
TRACK_BLOCK_STEPS = 512


class ExceptionalPointNotFound(ValueError):
    """Raised when no eigenvalue coalescence exists inside the search bracket."""


@dataclass(frozen=True)
class EigenBranchSet:
    """Continuity-tracked eigenvalue branches along a sweep in s.

    sweep_values    : (n,) real sweep points, strictly increasing
    branches        : (n, k) complex, column j is one persistent branch; at each
                      sweep point the columns are a permutation of the raw
                      eigenvalues (tracking only reorders, never alters)
    ambiguous_spans : sweep intervals where two branches are numerically
                      coalesced and the assignment between them is arbitrary
                      (square-root topology at an exceptional point)
    """

    sweep_values: np.ndarray
    branches: np.ndarray
    ambiguous_spans: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        self.sweep_values.setflags(write=False)
        self.branches.setflags(write=False)

    def magnon_branch_indices(self) -> tuple[int, int]:
        """Identify the (plus, minus) magnon-like branches.

        At the sweep endpoint with the largest |s| the magnon-like branches
        have real parts closest to +s and -s; the remaining branch (if any) is
        cavity-like.  Labels propagate across the sweep by branch continuity.
        """
        k = self.branches.shape[1]
        end = -1 if abs(self.sweep_values[-1]) >= abs(self.sweep_values[0]) else 0
        s_end = self.sweep_values[end]
        values = self.branches[end]
        plus = int(np.argmin(np.abs(values.real - s_end)))
        rest = [j for j in range(k) if j != plus]
        minus = rest[int(np.argmin(np.abs(values[rest].real + s_end)))]
        return plus, minus

    def cavity_branch_index(self) -> int:
        """Index of the branch that is neither of the magnon-like pair."""
        if self.branches.shape[1] != 3:
            raise ValueError("cavity branch only defined for the three-mode sweep")
        plus, minus = self.magnon_branch_indices()
        return ({0, 1, 2} - {plus, minus}).pop()


@dataclass(frozen=True)
class ExceptionalPoint:
    """Location of an eigenvalue coalescence along the s axis.

    location         : real part of the discriminant root where the pair meets
    degenerate_value : the (nearly) common eigenvalue there
    gap_at_location  : residual |lambda_plus - lambda_minus|
    """

    location: float
    degenerate_value: complex
    gap_at_location: float


def eigenvalues_3x3(matrix: np.ndarray) -> np.ndarray:
    """Complex eigenvalues of a 3x3 matrix, or of each matrix in a (..., 3, 3) stack.

    LAPACK zgeev via numpy.linalg.eigvals; a stack costs one call, and its
    values equal those of per-matrix calls bit for bit.  Each eigenvalue
    satisfies |det(lambda I - H)| <= 1e-9 ||H||^3 (backward stability).  The
    result has shape (..., 3), in LAPACK order.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigvals(h)


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


def track_branches(raw: np.ndarray, ambiguity_tol: float = 1e-9) -> tuple[np.ndarray, list[int]]:
    """Assign raw eigenvalues (n, k) to persistent branches by nearest matching.

    Between consecutive sweep points the permutation minimizing the summed
    complex-plane displacement is chosen (ties prefer the identity).  Steps
    where the best and runner-up assignments are indistinguishable (within
    ambiguity_tol relative) are reported: there the branches are coalesced and
    either assignment is valid.

    The k! x k! costs (previous assignment, next assignment) of every step are
    scored with array operations, TRACK_BLOCK_STEPS steps at a time; what is
    left per step is a walk over the chosen permutation indices.  A single
    branch needs no matching and comes back unchanged.
    """
    raw = np.asarray(raw, dtype=complex)
    n, k = raw.shape
    if k == 1:
        return raw.copy(), []
    perms = np.array(list(itertools.permutations(range(k))))
    n_perms = len(perms)
    # choice[i, q]: permutation taken at step i when step i - 1 took q, and
    # flagged[i, q]: whether that choice was ambiguous.
    choice = np.zeros((n, n_perms), dtype=np.uint8)
    flagged = np.zeros((n, n_perms), dtype=np.uint8)
    for start in range(1, n, TRACK_BLOCK_STEPS):
        stop = min(start + TRACK_BLOCK_STEPS, n)
        step = raw[start:stop, :, None] - raw[start - 1:stop - 1, None, :]
        # dist[i, a, b] = |raw[i, a] - raw[i - 1, b]|; hypot, like abs() of a
        # complex scalar, keeps the costs bitwise equal to per-step scoring.
        dist = np.hypot(step.real, step.imag)
        # costs[i, q, p] = sum over j of dist[i, p[j], q[j]], summed in j order.
        costs = dist[:, perms[None, :, 0], perms[:, None, 0]]
        for j in range(1, k):
            costs = costs + dist[:, perms[None, :, j], perms[:, None, j]]
        low = np.partition(costs, 1, axis=2)
        best, runner_up = low[..., 0], low[..., 1]
        scale = np.maximum(np.maximum(best, np.abs(raw[start:stop]).max(axis=1)[:, None]), 1e-300)
        choice[start:stop] = np.argmin(costs, axis=2)
        flagged[start:stop] = runner_up - best <= ambiguity_tol * scale
    choice_bytes, flagged_bytes = choice.tobytes(), flagged.tobytes()
    taken = [0] * n  # permutation index per sweep point; 0 is the identity
    ambiguous_steps: list[int] = []
    for i in range(1, n):
        offset = i * n_perms + taken[i - 1]
        if flagged_bytes[offset]:
            ambiguous_steps.append(i)
        taken[i] = choice_bytes[offset]
    tracked = np.take_along_axis(raw, perms[taken], axis=1)
    return tracked, ambiguous_steps


def sweep_eigenvalues(
    params: SystemParams,
    s_min: float,
    s_max: float,
    n_points: int,
    adiabatic: bool = False,
) -> EigenBranchSet:
    """Eigenvalues along an s sweep with continuity-tracked branch identity.

    The full three-mode spectrum is used unless adiabatic=True, which sweeps
    the reduced two-mode model instead.  Sweep points are uniform in s; the
    whole sweep is one matrix stack and one eigvals call.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if s_max < s_min:
        raise ValueError(f"empty sweep range [{s_min}, {s_max}]")
    with np.errstate(over="ignore", invalid="ignore"):
        s_values = np.linspace(s_min, s_max, n_points)
    if not np.all(np.isfinite(s_values)):
        raise ValueError(f"sweep points must be finite, got range [{s_min}, {s_max}]")
    if adiabatic:
        raw = build_adiabatic_model(params, s=s_values).matrix  # replaced by its eigenvalues
        if not np.isfinite(raw).all():
            raise ValueError("reduced-model matrix is not finite: gamma + g**2/kappa or g1*g2/kappa overflows")
        raw = np.linalg.eigvals(raw)
    else:
        raw = eigenvalues_3x3(build_full_hamiltonian(params, s=s_values))
    tracked, ambiguous = track_branches(raw)
    spans = tuple(
        (float(s_values[i - 1]), float(s_values[i])) for i in ambiguous
    )
    return EigenBranchSet(sweep_values=s_values, branches=tracked, ambiguous_spans=spans)


def _magnon_pair(params: SystemParams, s: float, adiabatic: bool) -> tuple[float, complex]:
    """Gap |lambda+ - lambda-| and mean of the magnon-like eigenvalue pair at s.

    Closed form for the reduced pair, exact through a coalescence; the full
    model drops the broadest LAPACK eigenvalue (the first one on ties).
    """
    if adiabatic:
        (a00, a01), (a10, a11) = build_adiabatic_model(params, s=s).matrix.tolist()
        mean, half = (a00 + a11) / 2.0, (a00 - a11) / 2.0
        radical = cmath.sqrt(half * half + a01 * a10)
        a, b = mean + radical, mean - radical
    else:
        a, b, c = eigenvalues_3x3(build_full_hamiltonian(params, s=s)).tolist()
        if a.imag <= b.imag and a.imag <= c.imag:
            a = c
        elif b.imag <= c.imag:
            b = c
    try:
        gap = abs(a - b)
    except OverflowError:  # a finite difference whose modulus exceeds the float range
        gap = math.inf
    return gap, (a + b) / 2


def _discriminant_roots(params: SystemParams, adiabatic: bool) -> np.ndarray:
    """Roots in s of the discriminant of det(lambda I - H(s)), where two eigenvalues meet.

    The reduced roots are (a11 - a00)/2 +/- sqrt(-a01*a10) for H(s) = H(0) +
    s*diag(1, -1).  The full H(s) = H(0) + s*diag(0, 1, -1), less a third of
    its trace, has the cubic lambda^3 + c lambda + d with c, d quadratic in s,
    so the discriminant -4c^3 - 27d^2 has degree 6 and leading coefficient 4.
    Empty when the coefficients are not finite (g^2/kappa overflows).
    """
    if adiabatic:
        (a00, a01), (a10, a11) = build_adiabatic_model(params, s=0.0).matrix.tolist()
        centre, half_width = (a11 - a00) / 2.0, cmath.sqrt(-a01 * a10)
        roots = np.array([centre - half_width, centre + half_width])
        return roots if np.isfinite(roots).all() else roots[:0]
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = build_full_hamiltonian(params, s=0.0).tolist()
    # Without the shift the common damping cancels in 18bcd - 4b^3 d + b^2 c^2 - ...
    shift = (h00 + h11 + h22) / 3.0
    h00, h11, h22 = h00 - shift, h11 - shift, h22 - shift
    # Coefficients in s, highest power first.
    c = np.array([-1.0, h22 - h11, h00 * h11 + h00 * h22 + h11 * h22 - h01 * h10 - h02 * h20 - h12 * h21])
    det0 = h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20) + h02 * (h10 * h21 - h11 * h20)
    d = np.array([h00, h02 * h20 - h01 * h10 - h00 * (h22 - h11), -det0])
    # Overflow leaves non-finite coefficients or steps, which are checked.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = -4.0 * np.convolve(np.convolve(c, c), c)
        disc[2:] -= 27.0 * np.convolve(d, d)
        if not np.isfinite(disc).all():
            return disc[:0]
        roots = np.roots(disc)
        # One Newton step gives a small root the relative accuracy that the gap
        # test at a square-root cusp needs; a double root has no finite step.
        polished = roots - np.polyval(disc, roots) / np.polyval(np.polyder(disc), roots)
    return np.where(np.isfinite(polished), polished, roots)


def find_exceptional_point(
    params: SystemParams,
    s_min: float,
    s_max: float,
    model: str = "adiabatic",
) -> ExceptionalPoint:
    """Locate an eigenvalue coalescence of the magnon-like pair in [s_min, s_max].

    An exceptional point is a double eigenvalue, so a root in s of the
    discriminant of the characteristic polynomial: at s = +/- g1*g2/kappa for
    the default reduced model with equal dressed dampings, shifted upward by
    O(g^2/kappa^2) relative corrections for model="full".  The result is the
    lowest root in the bracket with |Im s| <= EP_GAP_TOLERANCE*kappa at whose
    real part (the location) the pair's gap is at most EP_GAP_TOLERANCE*kappa.

    Raises ValueError for a non-finite or empty bracket or an unknown model,
    and ExceptionalPointNotFound when no root qualifies, naming the root
    nearest the bracket (off the real axis when the dressed dampings differ).
    """
    if model not in ("adiabatic", "full"):
        raise ValueError(f"model must be 'adiabatic' or 'full', got {model!r}")
    lo, hi = float(s_min), float(s_max)
    if not math.isfinite(hi - lo):
        raise ValueError(f"search bracket must be finite, got [{s_min}, {s_max}]")
    if hi <= lo:
        raise ValueError(f"empty search bracket [{s_min}, {s_max}]")
    adiabatic = model == "adiabatic"
    tol = EP_GAP_TOLERANCE * params.kappa
    roots = _discriminant_roots(params, adiabatic).tolist()
    for location in sorted(r.real for r in roots if abs(r.imag) <= tol and lo <= r.real <= hi):
        gap, value = _magnon_pair(params, location, adiabatic)
        if gap <= tol:
            return ExceptionalPoint(location=location, degenerate_value=value, gap_at_location=gap)
    at, found = lo, "discriminant coefficients are not finite"
    if roots:
        nearest = min(roots, key=lambda r: abs(r - min(max(r.real, lo), hi)))
        at, found = min(max(nearest.real, lo), hi), f"nearest discriminant root s={nearest:.6g}"
    gap = _magnon_pair(params, at, adiabatic)[0]
    raise ExceptionalPointNotFound(
        f"no coalescence in [{s_min}, {s_max}]: gap {gap:.3e} at s={at:.6g} exceeds {tol:.1e}; {found}"
    )
