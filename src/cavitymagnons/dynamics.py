"""Time-domain integration of the mean-field equations and the reduced model.

The driven three-mode system evolves as dX/dt = -i (H - delta) X + F, a linear
ODE whose steady state is available in closed form, so a fixed-step classical
fourth-order integrator is used: exactness is cheap to check against the
matrix-exponential solution (the closed_forms.propagate_exact oracle), and the
integrator's fixed point coincides with the true steady state.  The undriven
two-mode reduction dY/dt = -i H_tilde Y shares the same stepper.

On a linear ODE one RK4 step is exactly the affine map y <- P y + q, with
P = sum_{j<=4} (hA)^j / j!.  The stepper builds that map once, as the
augmented matrix M = [[P, q], [0, 1]] acting on [y; 1], or as P alone for a
run without force (q is then exactly 0), and turns it into its real form V,
which maps the interleaved real and imaginary parts of the input to those of
the next step.  It propagates with two levels of powers of V, built by
doubling with real BLAS products and kept as the state rows of the powers
side by side: level 1 holds V^1 .. V^64, level 2 V^64, V^128 .. V^4032.
One pass applies level 2 to the current state to get up to 64 anchors 64 steps apart, then level 1 to every
anchor, so it writes up to 4096 trajectory rows with two real matrix
products.  With stride > 1 the same passes run on V^stride (built by
repeated squaring) and return every stride-th row plus the final step, so a
run costs O(log stride + rows) products and O(rows) memory rather than
O(t_end/dt).  The map also gives the exact stability rule: the step is
rejected when the spectral radius of P exceeds 1 by more than rounding (the
eigenvalues of P are R(h lambda) for the RK4 stability polynomial R).  Runs
longer than MAX_STEPS steps are rejected before any storage is allocated.

The reduced model runs in the full model's 3-mode layout (a, m1, m2), with a
zero cavity row and column, and returns the magnon columns.  A BLAS product
sums in an order set by its shapes, so the full and reduced runs share every
shape: that, and the exact zeros of a decoupled model, keep decoupled magnons
bit for bit the same in both models.  Every product that writes states sums
over the input axis in order, so the trailing [1, 0] of an augmented input,
against a q of exactly 0, leaves the rows of a free run unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AdiabaticModel,
    DriveParams,
    SystemParams,
    build_adiabatic_model,
    build_driven_system,
)

# Modes of the full model (a, m1, m2): every run is integrated in this layout.
MODES = 3
# Rows written per anchor by one stacked product of the level-1 powers; one pass
# applies BLOCK_STEPS anchors, so it writes up to BLOCK_STEPS**2 rows.
BLOCK_STEPS = 64
# Longest run accepted, in steps.  A run costs O(log stride + rows) products of
# the two levels of powers and O(rows) memory: at stride 1 (every step kept)
# 10**7 steps of three complex amplitudes store 480 MB, while a strided run
# stores only its rows and the budget then bounds the accumulated rounding.
MAX_STEPS = 10**7
# How far the computed spectral radius of the step map may exceed 1 (rounding
# in its eigenvalues); growth by this factor over MAX_STEPS steps stays below 1e-5.
STABILITY_SLACK = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Integrated amplitudes at the returned steps of a uniform RK4 grid.

    times          : (n,) strictly increasing times of the returned rows, in units
                     of 1/kappa: every stride-th step, plus the final step
    states         : (n, k) complex amplitudes, k = 3 (full) or 2 (reduced; the
                     magnon columns of a run in the 3-mode layout)
    dt             : actual RK4 step size used (t_end snapped to a whole number of
                     steps), not the spacing of the rows
    final_residual : norm of the right-hand side at the final state; tends to
                     zero as the trajectory settles into the steady state
    """

    times: np.ndarray
    states: np.ndarray
    dt: float
    final_residual: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)


def step_count(t_end: float, dt: float) -> int:
    """Number of RK4 steps covering [0, t_end] at nominal step dt.

    Raises ValueError for a t_end or dt that is not positive and finite, and
    for runs longer than MAX_STEPS steps.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ratio = t_end / dt
    if not ratio < MAX_STEPS + 0.5:  # also rejects an overflowed ratio
        raise ValueError(f"t_end/dt = {ratio:.6g} steps exceeds the budget of {MAX_STEPS} steps")
    return max(1, round(ratio))


def _step_map(a: np.ndarray, force: np.ndarray, h: float) -> np.ndarray:
    """RK4 step map for dy/dt = A y + F: P when F = 0, else M = [[P, q], [0, 1]] on [y; 1].

    With z = hA and S = I + z/2 + z^2/6 + z^3/24, one classical RK4 step is
    exactly y <- P y + q with P = I + z S and q = h S F.  A free run drops the
    drive column, whose q is exactly 0, and propagates the k x k map P.
    """
    k = force.size
    eye = np.eye(k)
    z = h * a
    z2 = z @ z
    s = eye + z / 2 + z2 / 6 + z2 @ z / 24
    p = eye + z @ s
    if not force.any():
        return p
    m = np.zeros((k + 1, k + 1), dtype=complex)
    m[:k, :k] = p
    m[:k, k] = h * (s @ force)
    m[k, k] = 1.0
    return m


def _real_form(r: np.ndarray) -> np.ndarray:
    """The real (2 size, 2 size) matrix V with V flat(y) = flat(R y).

    flat views a complex vector as its interleaved real and imaginary parts;
    the first 2k rows of V^j give the first k modes of R^j y.
    """
    size = len(r)
    v = np.empty((size, 2, size, 2))
    v[:, 0, :, 0] = v[:, 1, :, 1] = r.real
    v[:, 0, :, 1] = -r.imag
    v[:, 1, :, 0] = r.imag
    return v.reshape(2 * size, 2 * size)


def _side_by_side(v: np.ndarray, count: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k rows of V^1 .. V^count side by side, and V^(2^ceil(log2 count)).

    The (2 size, count k) array maps an input row to the count states that
    follow it.  By doubling: with V^d in hand, the next d row blocks are the
    first d times V^d, one real product, and V^d is then squared.
    """
    rows = np.empty((count * k, len(v)))
    rows[:k] = v[:k]
    done = 1
    while done < count:
        step = min(done, count - done)
        np.dot(rows[:step * k], v, out=rows[done * k:(done + step) * k])
        v = np.dot(v, v)
        done += step
    return np.ascontiguousarray(rows.T), v


def _matrix_power(v: np.ndarray, exponent: int) -> np.ndarray:
    """V^exponent for exponent >= 1, by repeated squaring."""
    result = None
    while True:
        if exponent & 1:
            result = v if result is None else np.dot(result, v)
        exponent >>= 1
        if not exponent:
            return result
        v = np.dot(v, v)


def _propagate(v: np.ndarray, states: np.ndarray, n_rows: int) -> None:
    """Fill states[1 : n_rows + 1] with y_{j+1} = R y_j from states[0].

    V is the real form of R, the k x k map of a free run or the augmented map
    acting on [y; 1].  Each pass makes BLOCK_STEPS anchors R^(64 c) y from the
    level-2 powers and expands each into 64 rows with the level-1 powers,
    BLOCK_STEPS**2 rows in all, written straight into states by one BLAS
    product.  Passes write whole blocks of 64 rows, so states needs room up to
    the first multiple of 64 at or past n_rows.
    """
    k = states.shape[1]
    rows_from_anchor, v64 = _side_by_side(v, BLOCK_STEPS, 2 * k)
    anchors_from_state, _ = _side_by_side(v64, BLOCK_STEPS - 1, 2 * k)
    anchors = np.ones((BLOCK_STEPS, len(v) // 2), dtype=complex)
    flat = anchors.view(float)
    n_blocks = -(-n_rows // BLOCK_STEPS)
    for first in range(0, n_blocks, BLOCK_STEPS):
        count = min(BLOCK_STEPS, n_blocks - first)
        start = first * BLOCK_STEPS
        anchors[0, :k] = states[start]
        later = np.matmul(flat[0], anchors_from_state[:, :2 * (count - 1) * k])
        anchors[1:count, :k] = later.view(complex).reshape(count - 1, k)
        block = states[start + 1:start + 1 + count * BLOCK_STEPS].view(float).reshape(count, 2 * BLOCK_STEPS * k)
        np.matmul(flat[:count], rows_from_anchor, out=block)


def _integrate_linear(
    a: np.ndarray, force: np.ndarray, state0: np.ndarray, t_end: float, dt: float, stride: int = 1
) -> Trajectory:
    """Fixed-step RK4 on dy/dt = A y + F from t = 0 to t_end, keeping every stride-th step and the last.

    A k-mode model (k <= MODES) runs as the trailing k x k block of the
    MODES-mode layout, with zero rows and columns for the modes it lacks; the
    states are the trailing k columns of that run.
    """
    n_steps = step_count(t_end, dt)
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if not np.all(np.isfinite(state0)):
        raise ValueError("initial state must be finite")
    h = t_end / n_steps
    lead = MODES - state0.size
    layout_a = np.zeros((MODES, MODES), dtype=complex)
    layout_a[lead:, lead:] = a
    layout_force = np.zeros(MODES, dtype=complex)
    layout_force[lead:] = force
    m = _step_map(layout_a, layout_force, h)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"dt={dt} overflows the RK4 step map: its entries are not finite")
    radius = float(np.abs(np.linalg.eigvals(m[lead:MODES, lead:MODES])).max())
    if radius > 1.0 + STABILITY_SLACK:
        raise ValueError(
            f"dt={dt} violates the RK4 stability bound: the step map amplifies by {radius:.6g} per step"
        )
    n_rows, tail = divmod(n_steps, stride)
    # Whole blocks of rows plus one for the tail step; rows past the trajectory are scratch.
    buffer = np.empty((-(-n_rows // BLOCK_STEPS) * BLOCK_STEPS + 2, MODES), dtype=complex)
    buffer[0, :lead] = 0.0
    buffer[0, lead:] = state0
    v = _real_form(m)
    _propagate(_matrix_power(v, stride), buffer, n_rows)
    if tail:
        last = buffer[n_rows] if len(m) == MODES else np.append(buffer[n_rows], 1.0)
        state_rows = _matrix_power(v, tail)[:2 * MODES].T.copy()  # input axis on the rows, as in _propagate
        np.matmul(last.view(float), state_rows, out=buffer[n_rows + 1].view(float))
    times = np.arange(n_rows + 1 + bool(tail), dtype=float)
    times *= stride  # exact: whole numbers below 2**53
    times *= h
    times[-1] = t_end
    states = buffer[:times.size, lead:]
    residual = float(np.linalg.norm(a @ states[-1] + force))
    return Trajectory(times=times, states=states, dt=h, final_residual=residual)


def integrate_full(
    params: SystemParams,
    drive: DriveParams,
    state0,
    t_end: float,
    dt: float,
    stride: int = 1,
) -> Trajectory:
    """Integrate the driven three-mode system dX/dt = -i(H - delta)X + F.

    For accuracy keep dt <= 0.1/max(kappa, |s|, g, 1); a dt at which the RK4
    step map amplifies any eigenmode is rejected.  With any damping
    on and a constant drive the trajectory converges to the closed-form steady
    state -i (H - delta)^(-1) F, which is also the exact fixed point of the
    RK4 map.  With stride > 1 only steps 0, stride, 2 stride, ... and the
    final step are returned, and only those are stored.
    """
    system = build_driven_system(params, drive)
    state0 = np.asarray(state0, dtype=complex)
    if state0.shape != (3,):
        raise ValueError(f"initial state must have 3 components, got shape {state0.shape}")
    return _integrate_linear(-1j * system.matrix, system.force, state0, t_end, dt, stride)


def integrate_adiabatic(model: AdiabaticModel, state0, t_end: float, dt: float) -> Trajectory:
    """Integrate the undriven reduced system dY/dt = -i H_tilde Y.

    At s = 0 with symmetric parameters the bright combination (m1 + m2)/sqrt(2)
    decays at gamma + 2 g^2/kappa while the dark combination (m1 - m2)/sqrt(2)
    decays at gamma alone: the shared cavity reservoir is superradiant for one
    and silent for the other.
    """
    state0 = np.asarray(state0, dtype=complex)
    if state0.shape != (2,):
        raise ValueError(f"initial state must have 2 components, got shape {state0.shape}")
    return _integrate_linear(-1j * model.matrix, np.zeros(2, dtype=complex), state0, t_end, dt)


def slaved_cavity_amplitude(params: SystemParams, m1: complex, m2: complex) -> complex:
    """Instantaneous cavity amplitude -i(g1 m1 + g2 m2)/kappa of the fast cavity."""
    return -1j * (params.g1 * m1 + params.g2 * m2) / params.kappa


def adiabatic_validity_report(
    params: SystemParams,
    magnon_state0,
    t_end: float,
    dt: float = 0.01,
) -> float:
    """Largest full-vs-reduced magnon deviation for a free decay.

    Both systems start from consistent data: the reduced model from
    (m1, m2) and the full model from the same magnon amplitudes with the
    cavity set to its slaved value (avoiding an initial boundary layer the
    reduced model cannot represent).  Returns

        max_t || (m1, m2)_full - (m1, m2)_reduced || / || (m1, m2)(0) ||.

    Small (<= 0.1) deep in the bad-cavity regime; O(1) at strong coupling,
    where the elimination is invalid; exactly zero for g1 = g2 = 0.
    """
    m0 = np.array(magnon_state0, dtype=complex)  # a contiguous copy, viewed as floats below
    if m0.shape != (2,):
        raise ValueError(f"initial magnon state must have 2 components, got shape {m0.shape}")
    if not np.all(np.isfinite(m0)):
        raise ValueError("initial magnon state must be finite")
    largest = float(np.abs(m0.view(float)).max())
    if largest == 0:
        raise ValueError("initial magnon state must be nonzero")
    # The deviation does not depend on the scale of m0.  Dividing by a power of
    # two is exact, and it keeps the squares below from overflowing or underflowing.
    m0 = np.ldexp(m0.view(float), -math.frexp(largest)[1]).view(complex)
    full0 = np.array([slaved_cavity_amplitude(params, m0[0], m0[1]), m0[0], m0[1]])
    full = integrate_full(params, DriveParams(delta=0.0, amplitude=0.0), full0, t_end, dt)
    reduced = integrate_adiabatic(build_adiabatic_model(params), m0, t_end, dt)
    # Squared deviation per row, summed over the real and imaginary parts of both magnons.
    parts = (full.states[:, 1:] - reduced.states).view(float)
    parts *= parts
    squares = parts[:, 0] + parts[:, 1] + parts[:, 2] + parts[:, 3]
    return float(math.sqrt(squares.max()) / np.linalg.norm(m0))
