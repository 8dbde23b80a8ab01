"""Complex eigenvalue spectra, branch tracking and exceptional-point search.

Two regimes of the three-mode system are of interest: strong coupling with
comparable linewidths, where the eigenfrequencies repel with a minimum gap of
2*sqrt(2)*g, and the weak-coupling / bad-cavity regime, where the magnon-like
eigenvalues attract and coalesce at exceptional points of the reduced two-mode
model located at s = +/- g1*g2/kappa.

Eigenvalues come from two solvers, chosen by traffic.  An s sweep builds its
(n, 3, 3) or (n, 2, 2) matrix stack by broadcasting and takes closed-form
roots of each characteristic polynomial with array operations over the whole
stack (_cubic_roots, _pair_roots): at 4001 points that is about 1.1 ms for
the full stack, where batched LAPACK zgeev took about 12 ms.  A single matrix
goes to LAPACK zgeev through numpy.linalg.eigvals (eigenvalues_3x3,
_magnon_pair): about 8 us, where the array kernel costs about 60 us per call.
The EP search also keeps zgeev: at a coalescence each solver splits the double
root by its own ~sqrt(eps) error, and the kernel's pair mean there differs
from zgeev's by up to ~7e-10.  Both solvers satisfy the characteristic
equation to a residual |det(lambda I - H)| <= 1e-9 ||H||^3, which the tests
check alongside LAPACK, companion-matrix and closed-form oracles.

Branch tracking matches consecutive sweep points by least summed
displacement.  The cost of an assignment depends on the previous one only
through the summation order, so each step scores its k! matchings with array
operations in fixed-size blocks, and only steps whose best and runner-up lie
within the ambiguity band plus that rounding gap score all k! x k!
(previous, next) pairs.  A walk over the steps that move off the identity or
were re-scored then gives the same assignments and flags, bit for bit, as a
per-step loop over the k! x k! pairs.

An exceptional point is a double eigenvalue, so the search takes the lowest
real root in its bracket of the discriminant of the characteristic polynomial
in s whose magnon-like pair gap passes EP_GAP_TOLERANCE.  There is no
iterative search.  The reduced two-mode model has the paper's closed-form
roots s = +/- g1*g2/kappa + i(gamma_tilde1 - gamma_tilde2)/2; the full
model's discriminant has degree 6, its coefficients written-out real products
of the rates, its roots the eigenvalues of its companion matrix, each
polished by one Newton step.  Apart from that one eigvals call a search runs
on Python scalars computed from the rates and builds no model arrays: the
full model's roots take about 45 us where numpy.convolve, numpy.roots and
numpy.polyval took about 90 us.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, _dressed_rates, build_adiabatic_model, build_full_hamiltonian

# A pair of eigenvalues closer than this (in kappa units) counts as coalesced,
# and a discriminant root this close to the real axis (in kappa units) counts as real.
EP_GAP_TOLERANCE = 1e-6
# Sweep steps that track_branches scores per pass; bounds its (block, k!)
# matching scores and (block, k!, k!) re-scoring tensors.
TRACK_BLOCK_STEPS = 512
# Rounding bounds that track_branches' skip band adds to the flag band: the
# relative gap between two summation orders of a matching's k distances, at
# most (k - 1) * eps, per branch and with room to spare; and a few subnormal
# units for the absolute rounding of tiny costs and of ambiguity_tol * scale.
_SUM_ORDER_SLACK = 8.0 * np.finfo(float).eps
_TINY_SLACK = 4.0 * np.finfo(float).smallest_subnormal
# Matrices that the closed-form root kernels take per pass; bounds their
# (k, block) temporaries to about 1 MB, which also keeps them in cache.
ROOT_BLOCK_ROWS = 1024
# np.roots' companion matrices by degree: ones on the subdiagonal, the first
# row left to fill.
_COMPANION = {m: np.diag(np.ones(m - 1, dtype=complex), -1) for m in range(1, 7)}
# Real parts this close, relative to the endpoint's largest |s| or |lambda|,
# tie when EigenBranchSet.magnon_branch_indices labels the +/- pair.
_LABEL_TIE_EPS = 8.0 * np.finfo(float).eps


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
        cavity-like.  Real parts that tie to within rounding of the endpoint's
        scale (both 0 inside an attraction window) go to the narrower branch,
        the one with the larger imaginary part.  Labels propagate across the
        sweep by branch continuity.
        """
        k = self.branches.shape[1]
        end = -1 if abs(self.sweep_values[-1]) >= abs(self.sweep_values[0]) else 0
        s_end = float(self.sweep_values[end])
        values = self.branches[end].tolist()
        tol = _LABEL_TIE_EPS * max(abs(s_end), *map(abs, values))

        def closest(candidates: list[int], target: float) -> int:
            distance = [abs(values[j].real - target) for j in candidates]
            tied = [j for j, d in zip(candidates, distance) if d <= min(distance) + tol]
            return max(tied, key=lambda j: values[j].imag)

        plus = closest(list(range(k)), s_end)
        minus = closest([j for j in range(k) if j != plus], -s_end)
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


_SQRT3_2 = math.sqrt(3.0) / 2.0


def _stack_roots(stack: np.ndarray, roots_of_scaled) -> np.ndarray:
    """Eigenvalues (n, k) of an (n, k, k) stack, ROOT_BLOCK_ROWS matrices per pass.

    Each matrix is divided by the power of two 2**e that puts its largest real
    or imaginary part in [1, 2), so characteristic coefficients of finite
    entries neither overflow nor underflow; dividing and multiplying back by a
    power of two is exact.  roots_of_scaled maps a block's scaled entries,
    entry-major (k*k, b) so that each operation is one contiguous loop, to its
    roots (k, b).  Raises ValueError if a root is not finite.
    """
    n, k = len(stack), stack.shape[-1]
    roots = np.empty((k, n), dtype=complex)
    for start in range(0, n, ROOT_BLOCK_ROWS):
        entries = stack[start:start + ROOT_BLOCK_ROWS].reshape(-1, k * k).T.copy()
        parts = entries.view(float)  # real and imaginary parts interleaved
        top = np.maximum(parts.max(axis=0), -parts.min(axis=0))
        exponent = np.maximum(np.frexp(np.maximum(top[0::2], top[1::2]))[1] - 1, -1022)
        parts *= np.repeat(np.ldexp(1.0, -exponent), 2)
        roots[:, start:start + ROOT_BLOCK_ROWS] = roots_of_scaled(entries) * np.ldexp(1.0, exponent)
    roots = roots.T
    if not np.isfinite(roots).all():
        row = int(np.flatnonzero(~np.isfinite(roots).all(axis=1))[0])
        raise ValueError(f"eigenvalues of stack row {row} are not finite: {roots[row]}")
    return roots


def _cubic_roots(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 3) of an (n, 3, 3) stack as closed-form roots of each characteristic cubic.

    Each scaled matrix less a third of its trace has the depressed cubic
    f(mu) = mu^3 + p mu + q.  Cardano: u^3 is the one of -q/2 +/- sqrt(q^2/4 +
    p^3/27) with the larger modulus, v = -p/(3u), and the roots are
    u w^k + v w^-k over the cube roots of unity w^k; u = 0 is the triple root
    mu = 0.  Two guarded steps follow, each kept only where it is finite and
    lowers |f|: one Newton step per root, which corrects the cancellation in
    u w^k + v w^-k, and the fixed-point step mu = -q/(mu^2 + p) (Vieta's
    -q/(mu_a mu_b)), allowed only where it contracts, 2|mu|^2 < |mu^2 + p|,
    which holds for at most one root.  The latter gives a root much smaller
    than the others its own relative accuracy, where f(mu) itself cannot
    resolve q.  Every step is elementwise over the stack, so a row's roots do
    not depend on the other rows.
    """
    return _stack_roots(h.reshape(-1, 3, 3), _scaled_cubic_roots)


def _scaled_cubic_roots(entries: np.ndarray) -> np.ndarray:
    """Roots (3, b) from the scaled entries (9, b) of a block; see _cubic_roots."""
    h00, h01, h02, h10, h11, h12, h20, h21, h22 = entries
    shift = (h00 + h11 + h22) / 3.0
    h00, h11, h22 = h00 - shift, h11 - shift, h22 - shift
    p = h00 * h11 + h00 * h22 + h11 * h22 - h01 * h10 - h02 * h20 - h12 * h21
    q = h01 * (h10 * h22 - h12 * h20) - h00 * (h11 * h22 - h12 * h21) - h02 * (h10 * h21 - h11 * h20)
    radical = np.sqrt(q * q / 4.0 + p * p * p / 27.0)
    # -q/2 - radical is the larger exactly when Re(q conj(radical)) > 0.
    u3 = -q / 2.0 + np.where(q.real * radical.real + q.imag * radical.imag > 0, -radical, radical)
    angle, modulus = np.angle(u3) / 3.0, np.cbrt(np.abs(u3))
    u = modulus * np.cos(angle) + 1j * (modulus * np.sin(angle))

    def polish(mu, f, step, allowed):
        f_step = (step * step + p) * step + q
        better = np.isfinite(step) & (np.abs(f_step) < np.abs(f)) & allowed
        return np.where(better, step, mu), np.where(better, f_step, f)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.where(u == 0, 0.0, -p / (3.0 * u))
        mean, half = u + v, 1j * _SQRT3_2 * (u - v)
        mu = np.stack([mean, -0.5 * mean + half, -0.5 * mean - half])
        mm = mu * mu
        f = (mm + p) * mu + q
        mu, f = polish(mu, f, mu - f / (3.0 * mm + p), True)
        mm = mu * mu
        mu, _ = polish(mu, f, -q / (mm + p), 2.0 * np.abs(mm) < np.abs(mm + p))
    return mu + shift


def _pair_roots(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 2) of an (n, 2, 2) stack: mean +/- sqrt(half^2 + a01*a10).

    The closed form of _magnon_pair's reduced pair, on the scaled stack, so
    half^2 neither overflows nor underflows; exact through a coalescence.
    """
    return _stack_roots(m.reshape(-1, 2, 2), _scaled_pair_roots)


def _scaled_pair_roots(entries: np.ndarray) -> np.ndarray:
    """Roots (2, b) from the scaled entries (4, b) of a block; see _pair_roots."""
    a00, a01, a10, a11 = entries
    mean, half = (a00 + a11) / 2.0, (a00 - a11) / 2.0
    radical = np.sqrt(half * half + a01 * a10)
    return np.stack([mean + radical, mean - radical])


@functools.lru_cache(maxsize=None)
def _matching_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k) (k!, k) in lexicographic order, and their compose table.

    compose[sigma, q] is the index of the assignment sigma o q, i.e. q followed
    by the matching sigma.  Built once per k and read-only.
    """
    perms = np.array(list(itertools.permutations(range(k))))
    index = {perm: i for i, perm in enumerate(map(tuple, perms))}
    compose = np.array([[index[tuple(sigma[q])] for q in perms] for sigma in perms], dtype=np.uint8)
    perms.setflags(write=False)
    compose.setflags(write=False)
    return perms, compose


def track_branches(raw: np.ndarray, ambiguity_tol: float = 1e-9) -> tuple[np.ndarray, list[int]]:
    """Assign raw eigenvalues (n, k) to persistent branches by nearest matching.

    Between consecutive sweep points the permutation minimizing the summed
    complex-plane displacement is chosen (ties prefer the identity).  Steps
    where the best and runner-up assignments are indistinguishable (within
    ambiguity_tol relative) are reported: there the branches are coalesced and
    either assignment is valid.

    Taking assignment p after q costs sum_j dist[p[j], q[j]] = sum_b
    dist[sigma(b), b] with sigma = p o q^-1, so up to the summation order the
    best matching sigma of a step does not depend on q.  Each step scores its
    k! matchings with array operations, TRACK_BLOCK_STEPS steps at a time.
    Where the runner-up matching is clear of the best by more than the flag
    band plus the rounding of any summation order, the step takes sigma o q
    for every q and is not flagged.  Only the other steps score all k! x k!
    (q, p) pairs in the reference's summation order, which decides the
    rounding ties and the flags.  What is left per step is a walk over the
    "events" (steps that re-score or move off the identity) through byte
    tables; the rows between events keep the previous assignment.  A single
    branch needs no matching and comes back unchanged.
    """
    raw = np.asarray(raw, dtype=complex)
    n, k = raw.shape
    if k == 1:
        return raw.copy(), []
    perms, compose = _matching_tables(k)
    n_perms = len(perms)
    slack = _SUM_ORDER_SLACK * k
    slots = raw.T.copy()  # (k, n): each raw slot contiguous along the sweep
    modulus = np.maximum(np.abs(slots).max(axis=0), 1e-300)  # largest |raw| per point
    # Per event step: rows[q] is the assignment taken after q, flags[q] whether it is ambiguous.
    event_steps, event_rows, event_flags = [], [], []
    for start in range(1, n, TRACK_BLOCK_STEPS):
        stop = min(start + TRACK_BLOCK_STEPS, n)
        step = slots[:, None, start:stop] - slots[None, :, start - 1:stop - 1]
        # dist[a, b, i] = |raw[i, a] - raw[i - 1, b]|; hypot, like abs() of a
        # complex scalar, keeps the costs bitwise equal to per-step scoring.
        dist = np.hypot(step.real, step.imag)
        # match[sigma, i] = sum over b of dist[sigma[b], b, i], summed in b order.
        match = dist[perms[:, 0], 0]
        for b in range(1, k):
            match = match + dist[perms[:, b], b]
        best = match.min(axis=0)
        flag_band = ambiguity_tol * (1.0 + slack) * np.maximum(best, modulus[start:stop])
        # A step is clear when only its best matching lies within the band:
        # runner_up - best > slack * (best + runner_up) + flag_band.
        threshold = (best * (1.0 + slack) + flag_band + _TINY_SLACK) / (1.0 - slack)
        rescore = (match <= threshold).sum(axis=0) != 1  # also where a cost is not finite
        event = rescore | (match[0] != best)
        rows = compose[match[:, event].argmin(axis=0)]
        flags = np.zeros_like(rows)
        if rescore.any():
            # costs[i, q, p] = sum over j of dist[p[j], q[j], i], summed in j order.
            tied = dist[:, :, rescore].transpose(2, 0, 1)
            costs = tied[:, perms[None, :, 0], perms[:, None, 0]]
            for j in range(1, k):
                costs = costs + tied[:, perms[None, :, j], perms[:, None, j]]
            low = np.partition(costs, 1, axis=2)
            top = np.abs(raw[start:stop][rescore]).max(axis=1)
            scale = np.maximum(np.maximum(low[..., 0], top[:, None]), 1e-300)
            again = rescore[event]
            rows[again] = np.argmin(costs, axis=2)
            flags[again] = low[..., 1] - low[..., 0] <= ambiguity_tol * scale
        event_steps.append(np.flatnonzero(event) + start)
        event_rows.append(rows.tobytes())
        event_flags.append(flags.tobytes())
    steps = np.concatenate(event_steps).tolist() if event_steps else []
    row_bytes, flag_bytes = b"".join(event_rows), b"".join(event_flags)
    # Walk the events: the assignment (0 is the identity) and flag at each one
    # follow from the previous event's assignment.
    taken, values, ambiguous_steps = 0, [], []
    for e, i in enumerate(steps):
        offset = e * n_perms + taken
        if flag_bytes[offset]:
            ambiguous_steps.append(i)
        taken = row_bytes[offset]
        values.append(taken)
    # Each row keeps the assignment of the last event at or before it.
    taken_at, last_event = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    taken_at[steps], last_event[steps] = values, steps
    np.maximum.accumulate(last_event, out=last_event)
    tracked = np.take_along_axis(raw, perms.take(taken_at.take(last_event), axis=0), axis=1)
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
    whole sweep is one matrix stack whose eigenvalues are closed-form roots
    of its characteristic polynomials, and a row's values do not depend on the
    other rows.
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
        raw = _pair_roots(raw)
    else:
        raw = _cubic_roots(build_full_hamiltonian(params, s=s_values))
    tracked, ambiguous = track_branches(raw)
    spans = tuple(
        (float(s_values[i - 1]), float(s_values[i])) for i in ambiguous
    )
    return EigenBranchSet(sweep_values=s_values, branches=tracked, ambiguous_spans=spans)


def _magnon_pair(params: SystemParams, s: float, adiabatic: bool) -> tuple[float, complex]:
    """Gap |lambda+ - lambda-| and mean of the magnon-like eigenvalue pair at s.

    Closed form for the reduced pair from its rates, exact through a
    coalescence; the full model drops the broadest LAPACK eigenvalue (the
    first one on ties).
    """
    if adiabatic:
        gt1, gt2, rate = _dressed_rates(params)
        # Times i, an infinite dressed damping makes the pair NaN, as in the matrix.
        mean, half = -0.5j * (gt1 + gt2), s + 0.5j * (gt2 - gt1)
        radical = cmath.sqrt(half * half - rate * rate)
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


def _discriminant_polynomial(params: SystemParams) -> list[complex]:
    """Coefficients in s, highest power first, of the full model's discriminant -4c^3 - 27d^2.

    H(s) = H(0) + s*diag(0, 1, -1), less a third of its trace, has the
    characteristic cubic lambda^3 + c lambda + d with c = -s^2 + c1 s + c2 and
    d = d0 s^2 + d1 s + d2, so the discriminant has degree 6 and leading
    coefficient 4 - 0j.  Less t = (kappa + gamma1 + gamma2)/3, the diagonal of
    H(0) is i(k, b, c) = i(t - kappa, t - gamma1, t - gamma2) and its couplings
    are real, so c = (-1, i x, y) and d = (i u0, v1, i u2) for real x, y, u0,
    v1, u2, products of the rates.  The products below are np.convolve's, bit
    for bit: it sums each coefficient's real*real, imag*imag, real*imag and
    imag*real products apart, in index order, and adds each part to 0.0; the
    products that are exactly zero are left out.  Each such sum holds at most
    one inexact product besides exact ones, or one product twice, so a BLAS dot
    product that fuses multiply-adds gives the same bits.  Empty when c or d
    or a coefficient is not finite (g^2/kappa overflows).
    """
    p = params
    # Without the shift the common damping cancels in 18bcd - 4b^3 d + b^2 c^2 - ...
    t = (p.kappa + p.gamma1 + p.gamma2) / 3.0
    k, b, c = t - p.kappa, t - p.gamma1, t - p.gamma2
    x = c - b
    y = -(k * b) - k * c - b * c - p.g1 * p.g1 - p.g2 * p.g2
    u0 = k
    v1 = (p.g2 * p.g2 - p.g1 * p.g1) + k * x
    u2 = k * (b * c) + p.g1 * (p.g1 * c) + p.g2 * (b * p.g2)
    if not all(map(math.isfinite, (x, y, u0, v1, u2))):
        return []
    # c^2 = (1, i cc1, cc2, i cc3, cc4)
    cc1 = 0.0 + (-x - x)
    cc2 = 0.0 + ((-y - y) - x * x)
    cc3 = 0.0 + (y * x + x * y)
    cc4 = 0.0 + y * y
    # c^3 = (-1, i e1, e2, i e3, e4, i e5, e6)
    e1 = 0.0 + (x - cc1)
    e2 = 0.0 + ((y - cc2) - cc1 * x)
    e3 = 0.0 + (cc2 * x + (cc1 * y - cc3))
    e4 = 0.0 + ((cc2 * y - cc4) - cc3 * x)
    e5 = 0.0 + (cc4 * x + cc3 * y)
    e6 = 0.0 + cc4 * y
    # d^2 = (f0, i f1, f2, i f3, f4)
    f0 = 0.0 - u0 * u0
    f1 = 0.0 + (v1 * u0 + u0 * v1)
    f2 = 0.0 + (v1 * v1 - (u0 * u2 + u2 * u0))
    f3 = 0.0 + (v1 * u2 + u2 * v1)
    f4 = 0.0 - u2 * u2
    # Scaled and subtracted in complex arithmetic, which gives numpy's signed zeros.
    cube = (complex(-1.0, 0.0), complex(0.0, e1), complex(e2, 0.0), complex(0.0, e3),
            complex(e4, 0.0), complex(0.0, e5), complex(e6, 0.0))
    square = (complex(f0, 0.0), complex(0.0, f1), complex(f2, 0.0), complex(0.0, f3), complex(f4, 0.0))
    disc = [-4.0 * z for z in cube]
    for k, z in enumerate(square, start=2):
        disc[k] = disc[k] - 27.0 * z
    return disc if all(map(cmath.isfinite, disc)) else []


def _discriminant_roots(params: SystemParams, adiabatic: bool) -> list[complex]:
    """Roots in s of the discriminant of det(lambda I - H(s)), where two eigenvalues meet.

    The reduced roots are the closed form s = +/- g1*g2/kappa +
    i(gamma_tilde1 - gamma_tilde2)/2, none where (g1*g2/kappa)^2 overflows
    (_magnon_pair's half^2 would too, and could not confirm them).  The full
    model's are those of _discriminant_polynomial, found as numpy.roots finds
    them: trailing zero coefficients become exact zero roots, and the rest are
    the eigenvalues of the companion matrix, the one numpy call here.  Each
    root then gets one Newton step on Python complex numbers: Horner's rule in
    numpy.polyval's order and the quotient as numpy divides.  A root whose step is not finite
    is kept.  Python rounds each part of a complex product once, where
    numpy's complex128 products may fuse multiply-adds: a real root's products
    have an exact zero term and come out the same either way, a complex
    root's can differ in the last bits.  About 45 us for the full model, 24 us
    of it in eigvals.  Empty when the coefficients are not finite (g^2/kappa
    overflows).
    """
    if adiabatic:
        gt1, gt2, rate = _dressed_rates(params)
        centre = (gt1 - gt2) / 2.0
        roots = [complex(-rate, centre), complex(rate, centre)]
        return roots if math.isfinite(rate * rate) and all(map(cmath.isfinite, roots)) else []
    disc = _discriminant_polynomial(params)
    if not disc:
        return []
    degree = len(disc) - 1
    while disc[degree] == 0:  # stops at the leading 4 - 0j
        degree -= 1
    roots = []
    if degree > 0:
        companion = _COMPANION[degree].copy()
        # -p[1:]/p[0] for p[0] = 4 - 0j, as numpy divides: (a + i b)/p[0] is
        # ((a + b*r)*t, (b - a*r)*t) with r = -0.0/4 and t = 1/(4 + r*r).
        companion[0] = [complex((-z.real + -z.imag * -0.0) * 0.25, (-z.imag - -z.real * -0.0) * 0.25)
                        for z in disc[1:degree + 1]]
        roots = np.linalg.eigvals(companion).tolist()
    roots += [0j] * (len(disc) - 1 - degree)
    # One Newton step gives a small root the relative accuracy that the gap
    # test at a square-root cusp needs; a double root has no finite step.
    slope = [z * (len(disc) - 1 - k) for k, z in enumerate(disc[:-1])]
    polished = []
    for root in roots:
        f = df = 0j
        for z in disc:
            f = f * root + z
        for z in slope:
            df = df * root + z
        try:
            if abs(df.real) >= abs(df.imag):
                ratio = df.imag / df.real
                scale = 1.0 / (df.real + df.imag * ratio)
                step = complex((f.real + f.imag * ratio) * scale, (f.imag - f.real * ratio) * scale)
            else:
                ratio = df.real / df.imag
                scale = 1.0 / (df.imag + df.real * ratio)
                step = complex((f.real * ratio + f.imag) * scale, (f.imag * ratio - f.real) * scale)
        except ZeroDivisionError:  # df == 0, where numpy's quotient is not finite
            step = math.nan
        better = root - step
        polished.append(better if cmath.isfinite(better) else root)
    return polished


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
    nearest the bracket (off the real axis when the dressed dampings differ;
    of a conjugate pair, equally near, the one with Im s > 0).
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
    roots = _discriminant_roots(params, adiabatic)
    for location in sorted(r.real for r in roots if abs(r.imag) <= tol and lo <= r.real <= hi):
        gap, value = _magnon_pair(params, location, adiabatic)
        if gap <= tol:
            return ExceptionalPoint(location=location, degenerate_value=value, gap_at_location=gap)
    at, found = lo, "discriminant coefficients are not finite"
    if roots:
        distances = [abs(r - min(max(r.real, lo), hi)) for r in roots]
        closest = min(distances)
        # The roots of a conjugate pair are equally near the bracket, so rounding
        # alone would pick one: of the roots within 16 ulps (of the closest
        # root's modulus) of the least distance, name the one with the larger Im.
        band = closest + 16 * math.ulp(abs(roots[distances.index(closest)]))
        nearest = max((r for r, d in zip(roots, distances) if d <= band), key=lambda r: r.imag)
        at, found = min(max(nearest.real, lo), hi), f"nearest discriminant root s={nearest:.6g}"
    gap = _magnon_pair(params, at, adiabatic)[0]
    raise ExceptionalPointNotFound(
        f"no coalescence in [{s_min}, {s_max}]: gap {gap:.3e} at s={at:.6g} exceeds {tol:.1e}; {found}"
    )
