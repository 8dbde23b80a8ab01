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
One pass applies level 2 to the current state to get up to 64 anchors 64
steps apart, then level 1 to every anchor, so it writes up to 4096
trajectory rows with two real matrix products.  With stride > 1 the same
passes run on V^stride (built by repeated squaring) and return every
stride-th row plus the final step, so a run costs O(log stride + rows)
products and O(rows) memory rather than O(t_end/dt).  The map also gives the
exact stability rule: the step is rejected when the spectral radius of P
exceeds 1 by more than rounding (the eigenvalues of P are R(h lambda) for
the RK4 stability polynomial R).  Runs longer than MAX_STEPS steps are
rejected before any storage is allocated.

The stepper runs a batch of runs that share the grid (steps, h and stride).
Every array it builds has a leading batch axis, and every product is a
stacked np.matmul, which makes the same BLAS call for each member as for that
run alone, so a member's rows are byte for byte those of its run alone.  If
any member is driven, every member propagates the augmented map.  A batch is
rejected with the message of its first member whose map overflows or
amplifies.  integrate_full and integrate_adiabatic are batches of one;
adiabatic_validity_report runs the full and the reduced free decay as one
batch of two and reduces their magnon deviation column by column.

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
    """RK4 step maps for dy/dt = A y + F: P when every F = 0, else M = [[P, q], [0, 1]] on [y; 1].

    a is a (..., k, k) stack of generators and force the (..., k) stack of
    their drives.  With z = hA and S = I + z/2 + z^2/6 + z^3/24, one classical
    RK4 step is exactly y <- P y + q with P = I + z S and q = h S F.  A batch
    without force drops the drive column, whose q is exactly 0, and propagates
    the k x k maps P.
    """
    k = force.shape[-1]
    eye = np.eye(k)
    z = h * a
    z2 = z @ z
    s = eye + z / 2 + z2 / 6 + z2 @ z / 24
    p = eye + z @ s
    if not force.any():
        return p
    m = np.zeros(p.shape[:-2] + (k + 1, k + 1), dtype=complex)
    m[..., :k, :k] = p
    m[..., :k, k] = h * (s @ force[..., None])[..., 0]
    m[..., k, k] = 1.0
    return m


def _check_step_map(m: np.ndarray, lead: int, dt: float) -> None:
    """Reject a batch with the message of its first member whose step map overflows or amplifies.

    The rule reads P[lead:, lead:], with lead the fewest leading layout modes
    that a member lacks: a member with more of them adds its phantom
    eigenvalues, which are exactly 1 and never amplify.
    """
    finite = np.isfinite(m).all(axis=(-2, -1))
    live = m[..., lead:MODES, lead:MODES]
    if not finite.all():
        live = np.where(finite[..., None, None], live, 0.0)  # eigvals takes only finite input
    radii = np.abs(np.linalg.eigvals(live)).max(axis=-1)
    for ok, radius in zip(finite.ravel().tolist(), radii.ravel().tolist()):
        if not ok:
            raise ValueError(f"dt={dt} overflows the RK4 step map: its entries are not finite")
        if radius > 1.0 + STABILITY_SLACK:
            raise ValueError(
                f"dt={dt} violates the RK4 stability bound: the step map amplifies by {radius:.6g} per step"
            )


def _real_form(r: np.ndarray) -> np.ndarray:
    """The real (..., 2 size, 2 size) stack V with V flat(y) = flat(R y), member by member.

    flat views a complex vector as its interleaved real and imaginary parts;
    the first 2k rows of V^j give the first k modes of R^j y.
    """
    batch, size = r.shape[:-2], r.shape[-1]
    v = np.empty(batch + (size, 2, size, 2))
    v[..., 0, :, 0] = v[..., 1, :, 1] = r.real
    v[..., 0, :, 1] = -r.imag
    v[..., 1, :, 0] = r.imag
    return v.reshape(batch + (2 * size, 2 * size))


def _side_by_side(v: np.ndarray, count: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k rows of V^1 .. V^count side by side, and V^(2^ceil(log2 count)), per member.

    The (..., 2 size, count k) stack maps an input row to the count states
    that follow it.  By doubling: with V^d in hand, the next d row blocks are
    the first d times V^d, one real product per member, and V^d is then squared.
    """
    rows = np.empty(v.shape[:-2] + (count * k, v.shape[-1]))
    rows[..., :k, :] = v[..., :k, :]
    done = 1
    while done < count:
        step = min(done, count - done)
        np.matmul(rows[..., :step * k, :], v, out=rows[..., done * k:(done + step) * k, :])
        v = np.matmul(v, v)
        done += step
    return np.ascontiguousarray(rows.swapaxes(-1, -2)), v


def _matrix_power(v: np.ndarray, exponent: int) -> np.ndarray:
    """V^exponent for exponent >= 1, member by member, by repeated squaring."""
    result = None
    while True:
        if exponent & 1:
            result = v if result is None else np.matmul(result, v)
        exponent >>= 1
        if not exponent:
            return result
        v = np.matmul(v, v)


def _propagate(v: np.ndarray, states: np.ndarray, n_rows: int) -> None:
    """Fill states[:, 1 : n_rows + 1] with y_{j+1} = R y_j from states[:, 0], member by member.

    V is the stack of real forms of R, the k x k maps of a free batch or the
    augmented maps acting on [y; 1].  Each pass makes BLOCK_STEPS anchors
    R^(64 c) y from the level-2 powers and expands each into 64 rows with the
    level-1 powers, BLOCK_STEPS**2 rows in all, written straight into states
    by one BLAS product per member.  Passes write whole blocks of 64 rows, so
    states needs room up to the first multiple of 64 at or past n_rows.
    """
    batch, _, k = states.shape
    rows_from_anchor, v64 = _side_by_side(v, BLOCK_STEPS, 2 * k)
    anchors_from_state, _ = _side_by_side(v64, BLOCK_STEPS - 1, 2 * k)
    anchors = np.ones((batch, BLOCK_STEPS, v.shape[-1] // 2), dtype=complex)
    flat = anchors.view(float)
    n_blocks = -(-n_rows // BLOCK_STEPS)
    for first in range(0, n_blocks, BLOCK_STEPS):
        count = min(BLOCK_STEPS, n_blocks - first)
        start = first * BLOCK_STEPS
        anchors[:, 0, :k] = states[:, start]
        later = np.matmul(flat[:, :1], anchors_from_state[..., :2 * (count - 1) * k])
        anchors[:, 1:count, :k] = later.view(complex).reshape(batch, count - 1, k)
        block = states[:, start + 1:start + 1 + count * BLOCK_STEPS].view(float)
        np.matmul(flat[:, :count], rows_from_anchor, out=block.reshape(batch, count, 2 * BLOCK_STEPS * k))


def _integrate_batch(
    runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]], t_end: float, dt: float, stride: int = 1
) -> tuple[np.ndarray, float]:
    """Fixed-step RK4 on dy/dt = A y + F for each run (A, F, y0) of a batch, on one grid.

    Every run steps from t = 0 to t_end at the same step h and keeps every
    stride-th step and the last.  A k-mode run (k <= MODES) is the trailing
    k x k block of the MODES-mode layout, with zero rows and columns for the
    modes it lacks.  Returns the (batch, rows, MODES) states in that layout and h.
    """
    n_steps = step_count(t_end, dt)
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    h = t_end / n_steps
    layout_a = np.zeros((len(runs), MODES, MODES), dtype=complex)
    layout_force = np.zeros((len(runs), MODES), dtype=complex)
    first_rows = np.zeros((len(runs), MODES), dtype=complex)
    lead = MODES
    for member, (a, force, state0) in enumerate(runs):
        if not np.all(np.isfinite(state0)):
            raise ValueError("initial state must be finite")
        j = MODES - state0.size
        layout_a[member, j:, j:] = a
        layout_force[member, j:] = force
        first_rows[member, j:] = state0
        lead = min(lead, j)
    m = _step_map(layout_a, layout_force, h)
    _check_step_map(m, lead, dt)
    n_rows, tail = divmod(n_steps, stride)
    # Whole blocks of rows plus one for the tail step; rows past the trajectory are scratch.
    buffer = np.empty((len(runs), -(-n_rows // BLOCK_STEPS) * BLOCK_STEPS + 2, MODES), dtype=complex)
    buffer[:, 0] = first_rows
    v = _real_form(m)
    _propagate(_matrix_power(v, stride), buffer, n_rows)
    if tail:
        last = buffer[:, n_rows]
        if m.shape[-1] > MODES:
            last = np.concatenate((last, np.ones((len(runs), 1))), axis=1)
        # The input axis on the rows, as in _propagate.
        state_rows = _matrix_power(v, tail)[..., :2 * MODES, :].swapaxes(-1, -2).copy()
        np.matmul(last.view(float)[:, None], state_rows, out=buffer[:, n_rows + 1, None].view(float))
    return buffer[:, :n_rows + 1 + bool(tail)], h


def _integrate_linear(
    a: np.ndarray, force: np.ndarray, state0: np.ndarray, t_end: float, dt: float, stride: int = 1
) -> Trajectory:
    """One run of dy/dt = A y + F as a batch of one, keeping every stride-th step and the last.

    A k-mode model returns the trailing k columns of its run in the layout.
    """
    states, h = _integrate_batch([(a, force, state0)], t_end, dt, stride)
    states = states[0, :, MODES - state0.size:]
    times = np.arange(len(states), dtype=float)
    times *= stride  # exact: whole numbers below 2**53
    times *= h
    times[-1] = t_end
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
    system = build_driven_system(params, DriveParams(delta=0.0, amplitude=0.0))
    reduced = build_adiabatic_model(params)
    # The full and the reduced decay as one batch of two: magnon columns 1 and 2 of each.
    states, _ = _integrate_batch(
        [(-1j * system.matrix, system.force, full0), (-1j * reduced.matrix, np.zeros(2, dtype=complex), m0)],
        t_end,
        dt,
    )
    # Squared deviation per row: the real and imaginary parts of both magnons,
    # summed in that order.  Each operation runs on 1-D columns: on (n, 2)
    # views numpy would loop over the rows with an inner loop of length 2.
    d1 = states[0, :, 1] - states[1, :, 1]
    d2 = states[0, :, 2] - states[1, :, 2]
    squares = d1.real * d1.real
    squares += d1.imag * d1.imag
    squares += d2.real * d2.real
    squares += d2.imag * d2.imag
    return float(math.sqrt(squares.max()) / np.linalg.norm(m0))
