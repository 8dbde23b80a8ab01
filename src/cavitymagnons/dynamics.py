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
run without force (q is then exactly 0), and turns it into its real form U:
a state row, the interleaved real and imaginary parts of y, times U is the
row of the next step.  With W = U^stride (built by repeated squaring) it
fills the trajectory by doubling.  Row 0 is the initial state; with W^span
in hand, the next span rows are the span rows before them times W^span, one
real BLAS product per member, and W^span is then squared.  Once span reaches
MAX_SPAN, each block of up to MAX_SPAN rows is one product from the block
before it, whose rows are still in cache.  A run keeps every stride-th step
plus the final step, so it costs O(log stride + log MAX_SPAN) squarings of a
6 x 6 or 8 x 8 matrix, one product per MAX_SPAN rows past the doubling, and
O(rows) memory rather than O(t_end/dt).  Row j is at most log2 MAX_SPAN +
j / MAX_SPAN products from row 0.  The map also gives the exact stability
rule: the step is rejected when the spectral radius of P exceeds 1 by more
than rounding (the eigenvalues of P are R(h lambda) for the RK4 stability
polynomial R).  Runs longer than MAX_STEPS steps are rejected before any
storage is allocated.

The stepper runs a batch of runs that share the grid (steps, h and stride).
Every array it builds has a leading batch axis, and every product is a
stacked np.matmul, which makes the same BLAS call for each member as for that
run alone, so a member's rows are byte for byte those of its run alone.  A
batch is all driven or all free: a free member would propagate the augmented
map and round differently from its run alone, so a batch that mixes them is
rejected.  A batch is also rejected with the message of its first member
whose map overflows or amplifies.  integrate_full and integrate_adiabatic are
batches of one and store every kept row in the returned trajectory.
adiabatic_validity_report runs the full and the reduced free decay as one
batch of two and stores none: the stepper hands it each block of up to
MAX_SPAN rows, kept in a ring of 2 MAX_SPAN rows per member, and it folds
their magnon deviation, column by column, into a running maximum, so its
memory does not grow with t_end/dt.

The reduced model runs in the full model's 3-mode layout (a, m1, m2), with a
zero cavity row and column, and returns the magnon columns.  A BLAS product
sums in an order set by its shapes, so the full and reduced runs share every
shape: that, and the exact zeros of a decoupled model, keep decoupled magnons
bit for bit the same in both models.  Every product writes whole rows and
sums over the input axis in order.  A driven run's rows end in the drive's
constant [1, 0]: the last two columns of the real augmented map are those of
the identity, so every power of it maps the constant to itself exactly, and
only row 0 is given it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
# Most rows one product writes: past it, each block of rows is the block before
# it, read while still in cache, times W^MAX_SPAN (W the step map to the power stride).
MAX_SPAN = 4096
# Longest run accepted, in steps.  A run costs O(log stride + log MAX_SPAN)
# squarings, one product per MAX_SPAN rows and O(rows) memory: at stride 1
# (every step kept) 10**7 steps store 480 MB of three complex amplitudes for a
# free run and 640 MB for a driven one, whose rows carry the drive's constant.
# A strided run stores only its rows and the validity report only a ring of
# 2 MAX_SPAN rows per run; for them the budget bounds the accumulated rounding.
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
                     magnon columns of a run in the 3-mode layout).  A driven
                     run's states are a view of its (n, 4) rows, whose last
                     column holds the drive's constant, exactly 1 + 0j in
                     every row: the step map carries it from row 0
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
    the k x k maps P.  A map that overflows has entries that are not finite,
    which _check_step_map rejects, so overflow here raises no warning.
    """
    k = force.shape[-1]
    eye = np.eye(k)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _check_step_map(m: np.ndarray, dt: float) -> None:
    """Reject a batch with the message of its first member whose step map overflows or amplifies.

    The rule reads the MODES x MODES block P.  A member that lacks a layout
    mode has a zero row and column there, which give P the phantom
    eigenvalue exactly 1, so it never amplifies.
    """
    finite = np.isfinite(m).all(axis=(-2, -1))
    live = m[..., :MODES, :MODES]
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
    """The real (..., 2 size, 2 size) stack U with flat(y) U = flat(R y), member by member.

    flat views a complex vector as its interleaved real and imaginary parts,
    a row; the first 2k columns of U^j give the first k modes of R^j y.
    """
    batch, size = r.shape[:-2], r.shape[-1]
    rt = r.swapaxes(-1, -2)
    u = np.empty(batch + (size, 2, size, 2))
    u[..., 0, :, 0] = u[..., 1, :, 1] = rt.real
    u[..., 0, :, 1] = rt.imag
    u[..., 1, :, 0] = -rt.imag
    return u.reshape(batch + (2 * size, 2 * size))


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


def _integrate_batch(
    runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    t_end: float,
    dt: float,
    stride: int = 1,
    on_block: Callable[[np.ndarray], None] | None = None,
) -> tuple[np.ndarray | None, float]:
    """Fixed-step RK4 on dy/dt = A y + F for each run (A, F, y0) of a batch, on one grid.

    Every run steps from t = 0 to t_end at the same step h and keeps every
    stride-th step and the last.  A k-mode run (k <= MODES) is the trailing
    k x k block of the MODES-mode layout, with zero rows and columns for the
    modes it lacks.  Returns the (batch, rows, MODES) states in that layout and h.
    The members are all driven or all free: a mixed batch raises ValueError.

    Row 0 is the initial state.  With W the real step map to the power stride
    and span starting at 1, each real product per member sets the next span
    rows to the span rows before them times W^span; span then doubles, and
    W^span is squared, until span reaches MAX_SPAN.  Products write whole
    rows.  A driven batch's rows end in the drive's constant [1, 0], which the
    last two columns of W map to itself exactly, so only row 0 is given it;
    the states returned are a view of the state columns.

    With on_block, the rows are not returned (states is None): on_block is
    called with each block of up to MAX_SPAN consecutive rows, a
    (batch, rows, MODES) view, in order and the tail row included, and only a
    ring of 2 MAX_SPAN rows per member is kept.  Past the doubling each block
    is read from one half of the ring and written to the other.
    """
    n_steps = step_count(t_end, dt)
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    h = t_end / n_steps
    layout_a = np.zeros((len(runs), MODES, MODES), dtype=complex)
    layout_force = np.zeros((len(runs), MODES), dtype=complex)
    first_rows = np.zeros((len(runs), MODES), dtype=complex)
    for member, (a, force, state0) in enumerate(runs):
        if not np.all(np.isfinite(state0)):
            raise ValueError("initial state must be finite")
        j = MODES - state0.size
        layout_a[member, j:, j:] = a
        layout_force[member, j:] = force
        first_rows[member, j:] = state0
    driven = layout_force.any(axis=-1)
    if driven.any() and not driven.all():
        raise ValueError("a batch must not mix driven and free runs")
    m = _step_map(layout_a, layout_force, h)
    _check_step_map(m, dt)
    n_rows, tail = divmod(n_steps, stride)
    # Rows 0 .. n_rows and one for the tail step; row i is kept in slot i % length.
    total = n_rows + 1 + bool(tail)
    length = total if on_block is None else min(total, 2 * MAX_SPAN)
    buffer = np.empty((len(runs), length, m.shape[-1]), dtype=complex)
    buffer[:, 0, :MODES] = first_rows
    buffer[:, 0, MODES:] = 1.0
    rows = buffer.view(float)
    u = _real_form(m)
    power = _matrix_power(u, stride)
    span = done = 1
    folded = 0
    while done < total:
        if done <= n_rows:
            step, source, w = min(span, n_rows + 1 - done), done - span, power
        else:  # the tail step, from the last stride-th row
            step, source, w = 1, n_rows, _matrix_power(u, tail)
        slot, source = done % length, source % length
        np.matmul(rows[:, source:source + step], w, out=rows[:, slot:slot + step])
        done += step
        if span < MAX_SPAN and done <= n_rows:
            power = np.matmul(power, power)
            span *= 2
        if on_block is not None and (done % MAX_SPAN == 0 or done == total):
            slot = folded % length
            on_block(buffer[:, slot:slot + done - folded, :MODES])
            folded = done
    return (buffer[..., :MODES] if on_block is None else None), h


def _integrate_linear(
    a: np.ndarray, force: np.ndarray, state0: np.ndarray, t_end: float, dt: float, stride: int = 1
) -> Trajectory:
    """One run of dy/dt = A y + F as a batch of one, keeping every stride-th step and the last.

    A k-mode model returns the trailing k columns of its run in the layout.
    """
    states, h = _integrate_batch([(a, force, state0)], t_end, dt, stride)
    states = states[0, :, MODES - state0.size:]
    times = np.arange(len(states), dtype=float)
    if stride != 1:
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
    final step are returned, and only those are stored.  Rows are filled by
    doubling and then in blocks of MAX_SPAN rows, each one real matrix
    product from the rows before it; with a drive, each row also stores the
    drive's constant, so states is a view of (n, 4) rows.
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
    peak = 0.0

    def fold(block):
        # Squared deviation per row: the real and imaginary parts of both magnons,
        # summed in that order.  Each operation runs on 1-D columns: on (n, 2)
        # views numpy would loop over the rows with an inner loop of length 2.
        nonlocal peak
        d1 = block[0, :, 1] - block[1, :, 1]
        d2 = block[0, :, 2] - block[1, :, 2]
        squares = d1.real * d1.real
        squares += d1.imag * d1.imag
        squares += d2.real * d2.real
        squares += d2.imag * d2.imag
        peak = np.maximum(peak, squares.max())

    # The full and the reduced decay as one batch of two (magnon columns 1 and
    # 2 of each), folded block by block into the largest squared deviation.
    _integrate_batch(
        [(-1j * system.matrix, system.force, full0), (-1j * reduced.matrix, np.zeros(2, dtype=complex), m0)],
        t_end,
        dt,
        on_block=fold,
    )
    return float(math.sqrt(peak) / np.linalg.norm(m0))
