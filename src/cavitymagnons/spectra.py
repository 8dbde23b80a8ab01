"""Complex eigenvalue spectra, branch tracking and exceptional-point search.

Two regimes of the three-mode system are of interest: strong coupling with
comparable linewidths, where the eigenfrequencies repel with a minimum gap of
2*sqrt(2)*g, and the weak-coupling / bad-cavity regime, where the magnon-like
eigenvalues attract and coalesce at exceptional points of the reduced two-mode
model located at s = +/- g1*g2/kappa.

Eigenvalues come from two solvers, chosen by traffic.  An s sweep takes
closed-form roots of the characteristic polynomial straight from the rates,
with array operations over the sweep points (_cubic_roots, _pair_roots), and
builds no matrices: at 4001 points that is about 1.7 ms for the full model,
where batched LAPACK zgeev takes about 18 ms on the same host.  Each linewidth
is a Rayleigh quotient of the damping over an eigenvector, a sum of
non-negative terms, so a passive system never shows gain.  A single matrix
goes to LAPACK zgeev through numpy.linalg.eigvals (eigenvalues_3x3,
_magnon_pair): about 13 us, where a one-point sweep kernel costs about
0.12 ms.  The EP search also keeps zgeev: at a coalescence each solver splits
the double root by its own ~sqrt(eps) error, and the kernel's pair mean there
differs from zgeev's by up to ~7e-10.  Both solvers satisfy the characteristic
equation to a residual |det(lambda I - H)| <= 1e-9 ||H||^3, which the tests
check alongside LAPACK, companion-matrix and closed-form oracles.

Branch tracking matches consecutive sweep points by least summed
displacement.  A step's cost is that of a matching of raw slots, summed in
slot order, so its best matching and its flag depend only on its two rows:
each step scores its k! matchings with array operations in fixed-size
blocks, and a walk over the steps that move off the identity composes them.

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
from dataclasses import dataclass, replace

import numpy as np

from .model import SystemParams, _dressed_rates, build_full_hamiltonian

# A pair of eigenvalues closer than this (in kappa units) counts as coalesced,
# and a discriminant root this close to the real axis (in kappa units) counts as real.
EP_GAP_TOLERANCE = 1e-6
# Sweep steps that track_branches scores per pass; bounds its (k, k, block)
# distances and (k!, block) matching scores.
TRACK_BLOCK_STEPS = 512
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


def _cubic_coefficients(kappa, gamma1, gamma2, g1, g2):
    """Trace shift t and real parts (k, x, y, v1, u2) of the full model's depressed cubic.

    Less -i t, t = (kappa + gamma1 + gamma2)/3, H(s) has the diagonal
    (i k, s + i b, -s + i c) with (k, b, c) = (t - kappa, t - gamma1, t - gamma2)
    and the real couplings g1, g2, so its characteristic polynomial is
    mu^3 + p mu + q with p = -s^2 + i x s + y and q = i k s^2 + v1 s + i u2.
    Floats or float arrays alike.
    """
    t = (kappa + gamma1 + gamma2) / 3.0
    k, b, c = t - kappa, t - gamma1, t - gamma2
    x = c - b
    y = -(k * b) - k * c - b * c - g1 * g1 - g2 * g2
    v1 = (g2 * g2 - g1 * g1) + k * x
    u2 = k * (b * c) + g1 * (g1 * c) + g2 * (b * g2)
    return t, k, x, y, v1, u2


def _sweep_roots(s: np.ndarray, rates: tuple, k: int, roots_of_scaled) -> np.ndarray:
    """Eigenvalues (n, k) at the sweep points s (n,), ROOT_BLOCK_ROWS points per pass.

    Each point's s and rates are divided by the power of two 2**e that puts
    max(|s|, largest rate) in [1, 2), so characteristic coefficients of finite
    rates neither overflow nor underflow; dividing and multiplying back by a
    power of two is exact.  roots_of_scaled maps a block's scaled s and scaled
    rates, each (b,), to its roots (k, b).  Raises ValueError naming the first
    point whose roots are not finite.
    """
    top = max(rates)
    roots = np.empty((k, len(s)), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(s), ROOT_BLOCK_ROWS):
            block = s[start:start + ROOT_BLOCK_ROWS]
            exponent = np.maximum(np.frexp(np.maximum(np.abs(block), top))[1] - 1, -1022)
            scale = np.ldexp(1.0, -exponent)
            scaled = roots_of_scaled(block * scale, *(rate * scale for rate in rates))
            roots[:, start:start + ROOT_BLOCK_ROWS] = scaled * np.ldexp(1.0, exponent)
    roots = roots.T
    if not np.isfinite(roots).all():
        row = int(np.flatnonzero(~np.isfinite(roots).all(axis=1))[0])
        raise ValueError(f"eigenvalues at sweep point {row} (s={float(s[row])!r}) are not finite: {roots[row]}")
    return roots


def _cubic_roots(params: SystemParams, s: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 3) of the full model at the sweep points s, as closed-form roots of its cubic.

    Cardano on the depressed cubic f(mu) = mu^3 + p mu + q of
    _cubic_coefficients: u^3 is the one of -q/2 +/- sqrt(q^2/4 + p^3/27) with
    the larger modulus, v = -p/(3u), and the roots are u w^k + v w^-k over the
    cube roots of unity w^k; u = 0 is the triple root mu = 0.  One Newton step
    per root, kept only where it is finite and lowers |f|, corrects the
    cancellation in u w^k + v w^-k.  The linewidth then comes from the
    eigenvector: H = A - i B with A real symmetric and B = diag(kappa, gamma1,
    gamma2), so a right eigenvector v has Im lambda = -v^H B v / v^H v, a sum
    of non-negative terms that is <= 0 exactly, where Cardano's imaginary part
    is only accurate to eps |lambda|.  The three cross products of the rows
    of H - lambda are the columns of its adjugate, each a multiple of v, so
    the quotient sums v^H B v and v^H v over all three: the largest weighs
    most, and no point needs a choice.  Where all three vanish (g = 0,
    gamma1 = gamma2 and s = 0) Cardano's imaginary part stays.  Every step is
    elementwise, so a point's roots do not depend on the other points.
    """
    p = params
    return _sweep_roots(s, (p.kappa, p.gamma1, p.gamma2, p.g1, p.g2), 3, _scaled_cubic_roots)


def _scaled_cubic_roots(s, kappa, gamma1, gamma2, g1, g2) -> np.ndarray:
    """Roots (3, b) from a block's scaled s and rates (b,); see _cubic_roots."""
    t, k, x, y, v1, u2 = _cubic_coefficients(kappa, gamma1, gamma2, g1, g2)
    ss = s * s
    p = (y - ss) + 1j * (x * s)
    q = v1 * s + 1j * (k * ss + u2)
    radical = np.sqrt(q * q / 4.0 + p * p * p / 27.0)
    # -q/2 - radical is the larger exactly when Re(q conj(radical)) > 0.
    u3 = -q / 2.0 + np.where(q.real * radical.real + q.imag * radical.imag > 0, -radical, radical)
    angle, modulus = np.angle(u3) / 3.0, np.cbrt(np.abs(u3))
    u = modulus * np.cos(angle) + 1j * (modulus * np.sin(angle))
    v = np.where(u == 0, 0.0, -p / (3.0 * u))
    mean, half = u + v, 1j * _SQRT3_2 * (u - v)
    mu = np.stack([mean, -0.5 * mean + half, -0.5 * mean - half])
    mm = mu * mu
    f = (mm + p) * mu + q
    step = mu - f / (3.0 * mm + p)
    better = np.isfinite(step) & (np.abs((step * step + p) * step + q) < np.abs(f))
    lam = np.where(better, step, mu) - 1j * t
    # Rows (a, g1, g2), (g1, b, 0), (g2, 0, c) of H - lambda.  Their cross products
    # (bc, -g1 c, -g2 b), (-g1 c, ac - g2^2, g1 g2) and (-g2 b, g1 g2, ab - g1^2)
    # are the adjugate's columns; r_k sums |v_k|^2 over the three.
    lr, li = lam.real, lam.imag
    a_re, a_im = -lr, -kappa - li
    b_re, b_im = s - lr, -gamma1 - li
    c_re, c_im = -s - lr, -gamma2 - li
    bb, cc = b_re * b_re + b_im * b_im, c_re * c_re + c_im * c_im
    h1, h2 = g1 * g1, g2 * g2
    h1cc, h2bb, h12 = h1 * cc, h2 * bb, h1 * h2
    ac_re, ac_im = a_re * c_re - a_im * c_im - h2, a_re * c_im + a_im * c_re
    ab_re, ab_im = a_re * b_re - a_im * b_im - h1, a_re * b_im + a_im * b_re
    r0 = bb * cc + h1cc + h2bb
    r1 = h1cc + (ac_re * ac_re + ac_im * ac_im) + h12
    r2 = h2bb + h12 + (ab_re * ab_re + ab_im * ab_im)
    norm = r0 + r1 + r2
    np.copyto(li, -(kappa * r0 + gamma1 * r1 + gamma2 * r2) / norm, where=norm > 0)
    return lam


def _pair_roots(params: SystemParams, s: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 2) of the reduced model at the sweep points s: mean +/- sqrt(half^2 - rate^2).

    The closed form of _magnon_pair's reduced pair, on scaled rates, so half^2
    neither overflows nor underflows; exact through a coalescence.  The root of
    smaller modulus is then det/other, with det = -s^2 - (gamma1 gamma2 +
    gamma1 g2^2/kappa + gamma2 g1^2/kappa) - i s (gamma_tilde2 - gamma_tilde1).
    Its constant part is a sum of non-negative terms, where gamma_tilde1
    gamma_tilde2 - rate^2 would cancel, so the narrow branch keeps its
    accuracy where g^2/kappa >> gamma.  Where the quotient is not finite the
    closed form stays.  Its imaginary part is then, as in _cubic_roots,
    -v^H B v / v^H v summed over the two columns of the adjugate of H - lambda,
    here with B = diag(gamma1, gamma2) + g g^T/kappa, so it is <= 0; the
    larger root's is a sum of two non-positive parts.  Raises ValueError where
    a dressed rate overflows.
    """
    p = params
    rates = (*_dressed_rates(p), p.gamma1, p.gamma2, p.g1 * p.g1 / p.kappa, p.g2 * p.g2 / p.kappa)
    if not all(map(math.isfinite, rates)):
        raise ValueError("reduced-model matrix is not finite: gamma + g**2/kappa or g1*g2/kappa overflows")
    return _sweep_roots(s, rates, 2, _scaled_pair_roots)


def _scaled_pair_roots(s, gt1, gt2, rate, gamma1, gamma2, h1, h2) -> np.ndarray:
    """Roots (2, b) from a block's scaled s and rates (b,); see _pair_roots."""
    split = gt2 - gt1
    mean, half = -0.5j * (gt1 + gt2), s + 0.5j * split
    radical = np.sqrt(half * half - rate * rate)
    # mean is imaginary, so mean + radical has the larger modulus where Im radical <= 0.
    radical = np.where(radical.imag > 0, -radical, radical)
    det = -(s * s + (gamma1 * gamma2 + gamma1 * h2 + gamma2 * h1)) - 1j * (s * split)
    big = mean + radical  # Im big = Im mean + Im radical <= 0
    small = det / big
    small = np.where(np.isfinite(small), small, mean - radical)
    # Rows (m00, -i rate), (-i rate, m11) of H - lambda, m00 = e1 - i g1^2/kappa and
    # m11 = e2 - i g2^2/kappa with e1 = s - i gamma1 - lambda, e2 = -s - i gamma2 - lambda.
    # The adjugate's columns v = (m11, i rate) and (i rate, m00) have g.v = g1 e2 and
    # g2 e1, so v^H B v = gamma1 |v0|^2 + gamma2 |v1|^2 + |g.v|^2/kappa does not cancel.
    lr, li = small.real, small.imag
    e1_re, e1_im = s - lr, -gamma1 - li
    e2_re, e2_im = -s - lr, -gamma2 - li
    m00_im, m11_im = e1_im - h1, e2_im - h2
    re1, re2 = e1_re * e1_re, e2_re * e2_re
    ee1, ee2 = re1 + e1_im * e1_im, re2 + e2_im * e2_im
    mm0, mm1 = re1 + m00_im * m00_im, re2 + m11_im * m11_im
    rr = rate * rate
    norm = mm0 + mm1 + (rr + rr)
    np.copyto(li, -(gamma1 * (mm1 + rr) + gamma2 * (mm0 + rr) + h1 * ee2 + h2 * ee1) / norm, where=norm > 0)
    return np.stack([big, small])


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

    Each step i scores the k! matchings sigma of raw slots, slot b at row
    i - 1 going to slot sigma[b] at row i, by their summed complex-plane
    displacement sum_b |raw[i, sigma[b]] - raw[i - 1, b]|, summed in slot
    order b = 0 ... k - 1, and takes the least (ties prefer the identity).
    Steps whose runner-up costs at most ambiguity_tol * max(best, max
    |raw[i]|) more are reported: there the branches are coalesced and either
    matching is valid.  So a step's matching and flag depend only on rows
    i - 1 and i, and the branches follow the composed matchings.  The steps
    are scored with array operations, TRACK_BLOCK_STEPS at a time; a walk
    over the steps that move off the identity composes their matchings, and
    the rows in between keep the previous assignment.  A single branch needs
    no matching and comes back unchanged.
    """
    raw = np.asarray(raw, dtype=complex)
    n, k = raw.shape
    if k == 1:
        return raw.copy(), []
    perms, compose = _matching_tables(k)
    slots = raw.T.copy()  # (k, n): each raw slot contiguous along the sweep
    steps, matchings, ambiguous_steps = [], [], []
    # Moduli and displacements of values near the float limit overflow to inf;
    # such costs still order the matchings, so the scoring does not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.maximum(np.abs(slots).max(axis=0), 1e-300)  # largest |raw| per point
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
            least = match.min(axis=0)
            moved = np.flatnonzero(match[0] != least)  # ties prefer the identity, matching 0
            best = np.zeros(len(least), dtype=np.intp)
            best[moved] = match[:, moved].argmin(axis=0)
            match[best, np.arange(len(least))] = np.inf
            # Where the costs overflow, runner_up - least is NaN and the step is not flagged.
            tied = match.min(axis=0) - least <= ambiguity_tol * np.maximum(least, modulus[start:stop])
            ambiguous_steps += (np.flatnonzero(tied) + start).tolist()
            steps += (moved + start).tolist()
            matchings += best[moved].tolist()
    # Walk the moves: each composes its matching onto the assignment before it
    # (0 is the identity).
    table, n_perms, taken, values = compose.tobytes(), len(perms), 0, []
    for sigma in matchings:
        taken = table[sigma * n_perms + taken]
        values.append(taken)
    # Each row keeps the assignment of the last move at or before it.
    taken_at, last_move = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    taken_at[steps], last_move[steps] = values, steps
    np.maximum.accumulate(last_move, out=last_move)
    tracked = np.take_along_axis(raw, perms.take(taken_at.take(last_move), axis=0), axis=1)
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
    eigenvalues are closed-form roots of the characteristic polynomial,
    computed from the rates for all points at once, and a point's values do
    not depend on the other points.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if s_max < s_min:
        raise ValueError(f"empty sweep range [{s_min}, {s_max}]")
    with np.errstate(over="ignore", invalid="ignore"):
        s_values = np.linspace(s_min, s_max, n_points)
    if not np.all(np.isfinite(s_values)):
        raise ValueError(f"sweep points must be finite, got range [{s_min}, {s_max}]")
    raw = (_pair_roots if adiabatic else _cubic_roots)(params, s_values)
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
        a, b, c = eigenvalues_3x3(build_full_hamiltonian(replace(params, s=s))).tolist()
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

    H(s), less a third of its trace, has the characteristic cubic
    lambda^3 + c lambda + d with the coefficients of _cubic_coefficients in s,
    c = (-1, i x, y) and d = (i u0, v1, i u2), u0 = k, so the discriminant has
    degree 6 and leading coefficient 4 - 0j.  The products below are np.convolve's, bit
    for bit: it sums each coefficient's real*real, imag*imag, real*imag and
    imag*real products apart, in index order, and adds each part to 0.0; the
    products that are exactly zero are left out.  Each such sum holds at most
    one inexact product besides exact ones, or one product twice, so a BLAS dot
    product that fuses multiply-adds gives the same bits.  Empty when c or d
    or a coefficient is not finite (g^2/kappa overflows).
    """
    p = params
    # Without the shift the common damping cancels in 18bcd - 4b^3 d + b^2 c^2 - ...
    _, u0, x, y, v1, u2 = _cubic_coefficients(p.kappa, p.gamma1, p.gamma2, p.g1, p.g2)
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
        # -p[1:]/p[0] as np.roots builds it: by p[0] = 4 - 0j, Python's complex
        # quotient takes numpy's steps but divides by 4 where numpy multiplies
        # by 0.25, which rounds alike.
        companion[0] = [-z / disc[0] for z in disc[1:degree + 1]]
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
    of roots whose distances round alike, the one nearer along the real axis;
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
        # Far from the bracket several roots' distances round alike, and the
        # roots of a conjugate pair are equally near it.  Of the roots within
        # 16 ulps (of the closest root's modulus) of the least distance, keep
        # those whose exact offset along the real axis is within 16 ulps of the
        # least, then name the one with the larger Im: of a conjugate pair,
        # whose real parts differ only by rounding, the upper root.
        ulps = 16 * math.ulp(abs(roots[distances.index(closest)]))
        tied = [r for r, d in zip(roots, distances) if d <= closest + ulps]
        if len(tied) > 1 and math.isfinite(closest):  # and so is every tied root
            from fractions import Fraction  # only ties in this message need exact offsets

            offsets = [abs(Fraction(r.real) - Fraction(min(max(r.real, lo), hi))) for r in tied]
            tied = [r for r, o in zip(tied, offsets) if o <= min(offsets) + Fraction(ulps)]
        nearest = max(tied, key=lambda r: r.imag)
        at, found = min(max(nearest.real, lo), hi), f"nearest discriminant root s={nearest:.6g}"
    gap = _magnon_pair(params, at, adiabatic)[0]
    raise ExceptionalPointNotFound(
        f"no coalescence in [{s_min}, {s_max}]: gap {gap:.3e} at s={at:.6g} exceeds {tol:.1e}; {found}"
    )
