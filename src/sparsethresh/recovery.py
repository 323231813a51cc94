"""l1 recovery: equality-constrained basis pursuit plus a tiny l0 oracle.

``solve_bp_batch`` minimizes sum_i |x_i| (complex modulus) subject to D x = y
for every row y of Y with ADMM (Boyd et al. 2011, "Distributed
Optimization and Statistical Learning via the Alternating Direction Method
of Multipliers"): alternate the affine projection
x = v - pinv(D) (D v) + pinv(D) y onto the constraint set with complex
soft-thresholding, plus a scaled dual step.  The projection's linear part
is one product with the N x N matrix I - pinv(D) D, formed once per solve,
when N <= 2m, where it costs no more flops than the two thin products with
D and pinv(D) that it replaces (and the matrix holds at most twice pinv's
memory); for N > 2m the thin products stay.  ``solve_bp`` is the batch of
one row, so there is one iteration loop, and both return one
``RecoveryOutcome`` whose fields hold one entry per row.  The iteration
is scale-free and tunes its own step, per row, from rho = 1
(STEP_PARAMETER):

- it solves for y / ||y|| and multiplies the result by ||y||, so the
  stopping floors max(1, ...) are relative to ||y|| and the iteration count
  does not depend on the scale of y; both residuals stop at TOLERANCE
  times their floor.  ||y|| and the error norms are taken on rows scaled
  exactly by a power of two, so they neither overflow nor underflow, and
  y times 2^e gives 2^e times the same x while no entry turns subnormal;
- the z- and dual updates use the over-relaxed point
  1.6 x + (1 - 1.6) z (RELAXATION; section 3.4.3 there);
- every 10 iterations (BALANCE_EVERY) the primal and dual residuals, each
  over its stopping scale, are compared: when one exceeds the other
  10-fold (BALANCE_RATIO), rho moves by a factor of 2 (BALANCE_FACTOR)
  toward balance and the scaled dual is rescaled by the inverse factor
  (residual balancing, section 3.4.1).  The projection does not depend on
  rho, so a new rho needs no refactorisation.

The rows run in lock step: each keeps its own y-scale, rho and stopping
test and stops on the first iteration that passes it, so a batch costs
about its longest solve.  The loop runs in windows of W iterations, W =
10 (BALANCE_EVERY) while the rows are few (see
ADMM_RING_BYTES), over a ring of W + 1 slots of each active row's
vectors.  An iteration does only the projection, the over-relaxation, the
shrink and the dual update, reading slot j - 1 and writing slot j; at the
window's end both residuals of all W iterations take one subtraction
each, all their norms one matmul and the stopping test one pass (the
test of Boyd et al., sections 3.3.1 and 3.4.1, only decides on which
iteration a row stops).  A row returns the x of the first iteration that
passed, so its iteration count and flags are those of a test on every
iteration.  Every balancing iteration ends a window, and the rows that
stopped leave the batch there.  A row's iterates differ from those it
gets alone only by the rounding of a matrix-matrix product against a
matrix-vector one (about 1e-15 relative); no iteration count or success
moved on the README and benchmark grids.

The returned x is always the projected iterate, never the relaxed point, so
it satisfies the constraint to machine precision wherever the iteration
stops.

ADMM's iteration counts are heavy-tailed, and a batch costs its longest
solve.  So when ``max_iterations`` exceeds HANDOVER_ITERATIONS, ADMM stops
there, and every row still running is handed over to a log-barrier
Newton method on the dual, max Re(y^H w) subject to |d_j^H w| <= 1 (Boyd
and Vandenberghe 2004, section 11.3, as l1-magic applies it to basis
pursuit).  All handed-over rows share each Newton step's batched QR and
solves, but each keeps its own barrier weight, step and stopping test, so
its result does not depend on the others.  Its x is least squares on the
dual's active set when a duality-gap certificate backs it, and the
central-path point projected onto D x = y otherwise.  A row that
converges within HANDOVER_ITERATIONS, and every row when
``max_iterations`` is at most HANDOVER_ITERATIONS, is ADMM's alone.

``brute_force_l0`` enumerates all supports up to a small size cap and reports
every one that reproduces y by least squares, which settles minimality and
uniqueness by definition at desk scale.  Monte Carlo sweeps over (n_a, n_b)
cells aggregate success rates into a phase-transition grid.  A sweep lists
its trials in grid order (strategy, n_a, n_b, trial) and solves the list in
the blocks of ``rng.fan_out``, one batched solve per block, so cells with
short solves share one tail instead of each paying its own: every y has
length m whatever the cell's sparsity.  Each (strategy, n_a) is resolved to
its A-support once (``model.choose_support_a``), and trial t of the cell at
grid indices (si, ai, bi) is the row of key (si, ai, bi, t) in the block's
X and Y: ``model.draw_instances`` draws each cell's trials in the block in
one pass from the master seed and those key rows, and a row equals the
one-row draw on its own key, bit for bit.  The blocks depend
only on the grid and the trial count, never on the worker count, and each block's counts are
added into the grids as it arrives, so the grid does not depend on the
worker count and memory does not grow with the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .dictionary import PartitionedDictionary, _require_integer
from .model import choose_support_a, draw_instances
from .rng import _require_seed, fan_out

__all__ = [
    "BpSolverConfig",
    "RecoveryOutcome",
    "BruteForceResult",
    "PhaseTransitionGrid",
    "solve_bp",
    "solve_bp_batch",
    "brute_force_l0",
    "run_recovery_sweep",
    "SUCCESS_REL_ERROR",
]

SUCCESS_REL_ERROR = 1e-4
SUPPORT_FLOOR_FACTOR = 1e-6
RECOVERY_CSV_HEADER = "nA,nB,strategy,trials,successes,rate"

# ADMM step rules (see the module docstring).  Balancing on every iteration
# falls into a limit cycle: single-atom mub7 cells drop from 8/8 to 0/8.
STEP_PARAMETER = 1.0  # the initial rho, which residual balancing then moves
TOLERANCE = 1e-8  # of both residuals, relative to their stopping floors
RELAXATION = 1.6
BALANCE_EVERY = 10
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0
# ADMM runs in windows of iterations whose ring (see solve_bp_batch) fits in
# this many bytes, or of 1 iteration
ADMM_RING_BYTES = 4 * 2**20
# The dual Newton finisher (see the module docstring).  Past a gap of about
# 1e-9 the Hessian is numerically singular.
HANDOVER_ITERATIONS = 1_000
NEWTON_MAX_STEPS = 500
NEWTON_GAP = 1e-7  # stop once 2N / tau, the central path's duality gap, is below
NEWTON_CENTERED = 1e-10  # half the squared Newton decrement that ends a centering
NEWTON_TAU_FACTOR = 10.0
NEWTON_STEP_FRACTION = 0.99  # of the largest step that keeps every |d_j^H w| < 1
NEWTON_BACKTRACK_SLOPE = 0.01
NEWTON_BACKTRACK_LIMIT = 60
ACTIVE_MARGIN = 1e-4  # the polish support is {j : |d_j^H w| > 1 - ACTIVE_MARGIN}
POLISH_RESIDUAL = 1e-10  # ||D_S x_S - y|| / ||y|| a polish may leave
POLISH_GAP = 1e-6  # ||x_S||_1 - Re(y^H w) a polish may leave, at ||y|| = 1
# handed-over rows per Newton solve: bounds the stacked QR's input (32 m N
# bytes a row), never the output
NEWTON_CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class BpSolverConfig:
    """ADMM settings: ``max_iterations`` caps ADMM (see the module docstring
    for the handover to the dual Newton finisher).

    Every ``max_iterations`` above HANDOVER_ITERATIONS runs the same solver:
    ADMM up to HANDOVER_ITERATIONS (1,000) iterations, then Newton on the
    rows still running.  So the default of 100,000 is never reached; it
    only turns the finisher on.  At or below HANDOVER_ITERATIONS, ADMM
    alone runs up to ``max_iterations``.
    """

    max_iterations: int = 100_000

    def __post_init__(self):
        _require_integer("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class RecoveryOutcome:
    """Solver output of a batch, one entry (and one row of ``x_hat``) per row
    of Y; the error fields need a reference X_true and are None without.

    ``feasibility_residual`` is ||D x_hat - y|| / ||y|| (0 when y = 0).
    ``iterations`` counts ADMM iterations, or HANDOVER_ITERATIONS plus the
    Newton steps for a solve handed over to the dual Newton finisher, so it
    exceeds HANDOVER_ITERATIONS exactly when the solve was handed over.
    ``converged`` is the stopping test of whichever method finished.
    """

    x_hat: np.ndarray
    l1_value: np.ndarray
    feasibility_residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    relative_l2_error: np.ndarray | None = None
    support_match: np.ndarray | None = None

    @property
    def success(self) -> np.ndarray:
        if self.relative_l2_error is None:
            return np.zeros_like(self.converged)
        return self.converged & (self.relative_l2_error <= SUCCESS_REL_ERROR)


def _norm(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)


def _binary_scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``a`` (k, n) times 2^-e, exactly, with e chosen per row so
    that its largest real or imaginary part lies in [1/2, 1), and e.  The
    squares of a scaled row can neither overflow nor underflow its norm,
    and 2^e times that norm has the bits of the plain norm wherever the
    plain norm did neither."""
    parts = np.ascontiguousarray(a).view(np.float64)
    exponent = np.frexp(np.abs(parts).max(axis=1, initial=0.0))[1]
    return np.ldexp(parts, -exponent[:, None]).view(complex), exponent


def _window(done: int, rows: int, n: int) -> int:
    """The iterations of the ADMM window that follows iteration ``done``:
    the most that end at or before the next balancing iteration, and whose
    ring of window + 1 slots of five (rows, n) complex arrays fits in
    ADMM_RING_BYTES; 1 if none fits."""
    slot = 80 * rows * n
    return min(BALANCE_EVERY - done % BALANCE_EVERY, max(1, ADMM_RING_BYTES // slot - 1))


def solve_bp(
    D: PartitionedDictionary,
    y,
    cfg: BpSolverConfig | None = None,
    x_true=None,
) -> RecoveryOutcome:
    """Minimize the l1 norm subject to D x = y: ``solve_bp_batch`` on one
    row, so each field of the outcome holds one entry.

    Never raises on non-convergence; the outcome carries converged=False and
    the last projected (feasible) iterate instead.  When ``x_true`` is given,
    the relative l2 error (absolute norm if x_true = 0) and the support match
    are filled in; each support is the entries above SUPPORT_FLOOR_FACTOR
    times the largest of its own vector, x_hat or x_true.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=np.complex128).reshape(1, -1)
    return solve_bp_batch(D, y, cfg, x_true)


def solve_bp_batch(
    D: PartitionedDictionary,
    Y,
    cfg: BpSolverConfig | None = None,
    X_true=None,
) -> RecoveryOutcome:
    """``solve_bp`` on every row y of Y (k, m) at once, in lock step: one
    outcome whose fields hold one entry per row.

    Each row keeps its own y-scale, rho and residual balancing, stops by its
    own test and is written out with the x of the iteration it converges;
    its iterates are those it gets alone up to the rounding of a
    matrix-matrix product (about 1e-15 relative).  ADMM runs in windows of
    up to 10 iterations (see ``_window``) over a ring that holds r, s, x, z
    and u of each active row after every iteration of the window; the
    stopping test runs once per window, on all its iterations, so every row
    stops on the iteration a test after each iteration would stop it.  Rows
    that converged leave the active set at the window's end, so a batch
    costs about its longest solve; the rows handed over (see the module
    docstring) are finished together.  The projection takes one product
    with (I - pinv(D) D)^T when N <= 2m, and two thin ones through
    pinv(D) otherwise.  ``X_true`` (k, N) holds the
    reference x of each row.  Every row is checked before any setup.
    """
    cfg = cfg or BpSolverConfig()
    mat = D.matrix
    m, n = mat.shape
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim != 2:
        raise ValueError(f"Y must hold one y per row, got shape {Y.shape}")
    if Y.shape[1] != m:
        raise ValueError(f"y has length {Y.shape[1]}, expected {m}")
    if not np.isfinite(Y).all():
        raise ValueError("y must be finite")
    k = Y.shape[0]
    if X_true is not None:
        X_true = np.asarray(X_true, dtype=np.complex128)
        if X_true.shape != (k, n):
            raise ValueError(f"X_true has shape {X_true.shape}, expected {(k, n)}")

    scaled, exponent = _binary_scaled(Y)
    with np.errstate(over="ignore"):  # refused below
        y_scale = np.ldexp([_norm(y) for y in scaled], exponent)
    if not np.isfinite(y_scale).all():
        raise ValueError("the norm of y must be finite")
    y_scale[y_scale == 0] = 1.0
    y_unit = Y / y_scale[:, None]
    # each row's x at ||y|| = 1, iteration count and stopping test, written
    # where it stops
    x_unit = np.zeros((k, n), dtype=complex)
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    if not k:
        return _outcome(mat, x_unit, y_unit, y_scale, iterations, converged, X_true)
    pinv = np.linalg.pinv(mat)
    mat_t, pinv_t = mat.T, pinv.T
    # v -> v - pinv(D) D v as one product with the N x N (I - pinv(D) D)^T,
    # when that costs no more flops than the two thin ones (N <= 2m)
    projector_t = np.identity(n) - mat_t @ pinv_t if n <= 2 * m else None
    x_feas = y_unit @ pinv_t
    rho = np.full(k, STEP_PARAMETER)
    # 0-d arrays, not Python scalars: a ufunc converts a Python scalar operand
    # on every call, which costs more than the arithmetic on a few rows
    tol = np.array(TOLERANCE)
    relax, relax_rest = np.array(complex(RELAXATION)), np.array(complex(1.0 - RELAXATION))
    one = np.array(1.0)

    # the ring: r = x - z, s = z - z_old, x, z and u of every active row,
    # one slot per iteration of the window and slot 0 before its first.  Any
    # ring _window allows fits in the pool: 2 slots of at most k rows, or at
    # most BALANCE_EVERY + 1 slots of at most k rows within ADMM_RING_BYTES
    pool = np.empty(
        max(2 * k, min((BALANCE_EVERY + 1) * k, ADMM_RING_BYTES // (80 * n))) * 5 * n,
        dtype=complex,
    )
    shrink_buffer = np.empty((k, n))
    last = np.zeros((3, 1, n), dtype=complex)  # x, z and u before iteration 1
    active = np.arange(k)  # the Y row of each active row
    limit = min(cfg.max_iterations, HANDOVER_ITERATIONS)
    it = 0
    while it < limit:
        size = active.size
        window = min(_window(it, size, n), limit - it)
        ring = pool[: 5 * (window + 1) * size * n].reshape(5, window + 1, size, n)
        ring[2:, 0] = last
        rs, ss, xs, zs, us = ring
        shrink = shrink_buffer[:size]
        threshold = 1.0 / rho[:, None]
        for j in range(1, window + 1):
            x, z, u, z_old, u_old = xs[j], zs[j], us[j], zs[j - 1], us[j - 1]
            # project v = z_old - u_old onto D x = y, with v built in z
            np.subtract(z_old, u_old, out=z)
            if projector_t is None:
                np.subtract(z, (z @ mat_t) @ pinv_t, out=x)
            else:
                np.matmul(z, projector_t, out=x)
            x += x_feas
            # the over-relaxed point w, held in u until the dual update
            np.multiply(relax, x, out=u)
            np.multiply(relax_rest, z_old, out=z)
            u += z
            u += u_old
            # complex soft-threshold: shrink the modulus of w by 1/rho, keep the
            # phase; |w| floored at 1/rho gives exactly 0 wherever |w| <= 1/rho
            np.abs(u, out=shrink)
            np.maximum(shrink, threshold, out=shrink)
            np.divide(threshold, shrink, out=shrink)
            np.subtract(one, shrink, out=shrink)
            np.multiply(shrink, u, out=z)
            u -= z
        it += window

        # the stopping test of every iteration of the window at once: each
        # squared norm as a (1 x 2n) @ (2n x 1) product of the vector's real
        # view with itself, all 5 x window in one matmul call
        np.subtract(xs[1:], zs[1:], out=rs[1:])
        np.subtract(zs[1:], zs[:-1], out=ss[1:])
        flat = ring[:, 1:].view(np.float64)
        norms = np.sqrt((flat[..., None, :] @ flat[..., None])[..., 0, 0])
        # ||r||, rho ||s||, then the stopping scales max(1, ||x||, ||z||) and
        # max(1, rho ||u||), per iteration and row
        norms[1::3] *= rho
        residuals, scales = norms[:2], norms[2::2]
        np.maximum(norms[2], norms[3], out=norms[2])
        np.maximum(scales, one, out=scales)
        done = (residuals <= tol * scales).all(axis=0)
        if it % BALANCE_EVERY == 0:
            r_rel, s_rel = residuals[:, -1] / scales[:, -1]
            step = np.where(
                r_rel > BALANCE_RATIO * s_rel,
                BALANCE_FACTOR,
                np.where(s_rel > BALANCE_RATIO * r_rel, 1.0 / BALANCE_FACTOR, 1.0),
            )
            rho *= step
            us[-1] /= step[:, None]
        last = ring[2:, -1]
        stopped = done.any(axis=0)
        if stopped.any():
            # each row stops on the first iteration that passed its test
            first = done.argmax(axis=0)[stopped]
            rows = active[stopped]
            x_unit[rows] = xs[first + 1, np.flatnonzero(stopped)]
            iterations[rows], converged[rows] = it - window + 1 + first, True
            keep = ~stopped
            if not keep.any():
                break
            last, rho, x_feas, active = last[:, keep], rho[keep], x_feas[keep], active[keep]
    else:
        if cfg.max_iterations <= HANDOVER_ITERATIONS:
            x_unit[active], iterations[active] = last[0], it
        else:
            chunk = max(1, NEWTON_CHUNK_BYTES // (32 * m * n))
            for lo in range(0, active.size, chunk):
                rows = active[lo:lo + chunk]
                x_unit[rows], steps, converged[rows] = _newton_finish(mat, pinv, y_unit[rows])
                iterations[rows] = HANDOVER_ITERATIONS + steps
    return _outcome(mat, x_unit, y_unit, y_scale, iterations, converged, X_true)


def _newton_finish(mat, pinv, y):
    """Basis pursuit on each row of ``y`` (unit norm) by a log-barrier Newton
    method on its dual: the x, Newton step count and gap-test flag per row.

    The dual, max Re(y^H w) subject to |d_j^H w| <= 1, is centered on
    -tau Re(y^H w) - sum_j log(1 - |d_j^H w|^2) in the real unknowns of w
    (Boyd and Vandenberghe 2004, section 11.3; l1-magic does the same for
    basis pursuit), with w in the range of D.  Each row starts at w = 0 and
    tau = 2N, keeps its own tau (times NEWTON_TAU_FACTOR per centering) and
    stops when a centering leaves a gap 2N / tau <= NEWTON_GAP, or after
    NEWTON_MAX_STEPS steps.  All rows share each step's arrays and batched
    factorisations, but every quantity is computed row by row, so a row does
    not depend on the others.

    The x of a row is least squares on the dual's active set
    {j : |d_j^H w| > 1 - ACTIVE_MARGIN}, accepted only behind a duality-gap
    certificate: it must fit y to POLISH_RESIDUAL and its l1 norm may exceed
    the dual value Re(y^H w), a lower bound on the optimum, by at most
    POLISH_GAP.  Otherwise x is the central-path point x_j = 2 c_j /
    (tau (1 - |c_j|^2)), c = D^H w, projected onto D x = y.
    """
    h, n = y.shape[0], mat.shape[1]
    # w = U z over an orthonormal basis U of the range of D, so that the
    # Hessian is nonsingular; G = U^H D then has c = D^H w = G^H z
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    basis = u[:, : int(np.count_nonzero(sv > sv[0] * max(mat.shape) * np.finfo(float).eps))]
    g = basis.conj().T @ mat
    r = g.shape[0]
    conj_g, g_t = g.conj(), np.ascontiguousarray(g.T)
    # z -> G^H z as a real (2N x 2r) matrix on interleaved (re, im)
    # coordinates, held as (N, 2, 2r): e[j] is B_j^T, the map z -> c_j
    e = np.ascontiguousarray(
        np.stack([conj_g, 1j * conj_g], axis=1).reshape(2 * r, n).view(np.float64).T
    ).reshape(n, 2, 2 * r)
    y_real = _row_products(y, basis.conj()).view(np.float64)
    z = np.zeros((h, r), dtype=complex)
    tau = np.full(h, 2.0 * n)
    steps = np.zeros(h, dtype=np.int64)
    finished = np.zeros(h, dtype=bool)
    live = np.arange(h)
    for _ in range(NEWTON_MAX_STEPS):
        steps[live] += 1
        zl, yl, tl = z[live], y_real[live], tau[live]
        c = _row_products(zl, conj_g)
        abs2 = c.real**2 + c.imag**2
        s = 1.0 - abs2
        alpha = 2.0 / s
        grad = _row_products(alpha * c, g_t).view(np.float64) - tl[:, None] * yl
        # H = sum_j B_j W_j B_j^T, with W_j = alpha_j I + alpha_j^2 p_j p_j^T
        # for p_j = (Re c_j, Im c_j), is K^T K for the rows K_j = W_j^(1/2)
        # B_j^T; W_j^(1/2) = sqrt(alpha_j) I + gamma_j u_j u_j^T with u_j =
        # p_j / |p_j|, and B_j u_j is the real form of g_j c_j / |c_j|.  A QR
        # of K gives H = R^T R without forming H, whose condition number is
        # the square of K's and passes 1 / eps near the end of the path.
        root = np.sqrt(alpha)
        gamma = np.sqrt(alpha * (1.0 + alpha * abs2)) - root
        unit = c / np.maximum(np.sqrt(abs2), 1e-300)
        k = e * root[:, :, None, None]
        k += (unit.view(np.float64).reshape(-1, n, 2) * gamma[:, :, None])[:, :, :, None] * (
            (unit[:, :, None] * g_t).view(np.float64)[:, :, None, :]
        )
        r_factor = np.linalg.qr(k.reshape(-1, 2 * n, 2 * r), mode="r")
        rhs = np.stack([grad, yl], axis=-1)
        inv_grad, inv_y = np.moveaxis(
            np.linalg.solve(r_factor, np.linalg.solve(r_factor.transpose(0, 2, 1), rhs)), -1, 0
        )
        direction = -inv_grad
        decrement = (grad * inv_grad).sum(axis=1)
        centered = decrement <= 2.0 * NEWTON_CENTERED
        done = centered & (2.0 * n / tl <= NEWTON_GAP)
        finished[live[done]] = True
        raise_tau = centered & ~done
        if raise_tau.any():
            # H does not depend on tau: at tau' the gradient moves by
            # -(tau' - tau) y and the step by (tau' - tau) H^-1 y
            raise_by = np.where(raise_tau, tl * (NEWTON_TAU_FACTOR - 1.0), 0.0)
            tl = tl + raise_by
            tau[live] = tl
            grad = grad - raise_by[:, None] * yl
            direction = direction + raise_by[:, None] * inv_y
            decrement = -(grad * direction).sum(axis=1)
        dz = np.ascontiguousarray(direction).view(complex)
        dc = _row_products(dz, conj_g)
        quad = dc.real**2 + dc.imag**2
        lin = c.real * dc.real + c.imag * dc.imag
        with np.errstate(divide="ignore"):
            reach = (s / (lin + np.sqrt(lin**2 + quad * s))).min(axis=1)
        step = np.where(done, 0.0, np.minimum(1.0, NEWTON_STEP_FRACTION * reach))
        # halve the step of each row until its barrier objective falls by at
        # least NEWTON_BACKTRACK_SLOPE * step * decrement
        gain = tl * (yl * direction).sum(axis=1)
        short = ~done
        for _ in range(NEWTON_BACKTRACK_LIMIT):
            t = step[:, None]
            rise = -step * gain - np.log1p(-(2.0 * t * lin + t * t * quad) / s).sum(axis=1)
            short &= rise > -NEWTON_BACKTRACK_SLOPE * step * decrement
            if not short.any():
                break
            step[short] *= 0.5
        z[live] = zl + step[:, None] * dz
        live = live[~done]
        if not live.size:
            break

    c = _row_products(z, conj_g)
    w = _row_products(z, basis.T)
    central = 2.0 * c / (tau[:, None] * (1.0 - (c.real**2 + c.imag**2)))
    x = central - _row_products(_row_products(central, mat.T) - y, pinv.T)
    for row, active in enumerate(np.abs(c) > 1.0 - ACTIVE_MARGIN):
        support = np.flatnonzero(active)
        sub = mat[:, support]
        x_s = np.linalg.lstsq(sub, y[row], rcond=None)[0]
        if (
            _norm(sub @ x_s - y[row]) <= POLISH_RESIDUAL
            and np.abs(x_s).sum() <= np.vdot(y[row], w[row]).real + POLISH_GAP
        ):
            x[row] = 0.0
            x[row, support] = x_s
    return x, steps, finished


def _row_products(a, b):
    """a @ b one row of a at a time, so that a row's rounding does not depend
    on the other rows: the finisher's ill-conditioned last steps would
    amplify it."""
    return (a[:, None, :] @ b)[:, 0]


def _support_mask(a: np.ndarray) -> np.ndarray:
    """The entries of each row of ``a`` above SUPPORT_FLOOR_FACTOR times its largest."""
    mag = np.abs(a)
    return mag > SUPPORT_FLOOR_FACTOR * mag.max(axis=1, initial=0.0)[:, None]


def _outcome(mat, x_unit, y_unit, y_scale, iterations, converged, x_true) -> RecoveryOutcome:
    """The batch's result, one entry per row: back to the scale of y, with
    the error fields when ``x_true`` holds each row's reference x."""
    x = x_unit * y_scale[:, None]
    rel_err = match = None
    if x_true is not None:
        # ||x - x_true|| / ||x_true|| from the norms of the exactly scaled
        # rows, then scaled back: ||x|| itself where x_true = 0, whose
        # exponent is 0
        diff, diff_exp = _binary_scaled(x - x_true)
        true, true_exp = _binary_scaled(x_true)
        rel_err, true_norm = np.linalg.norm(diff, axis=1), np.linalg.norm(true, axis=1)
        np.divide(rel_err, true_norm, out=rel_err, where=true_norm > 0)
        rel_err = np.ldexp(rel_err, diff_exp - true_exp)
        match = (_support_mask(x) == _support_mask(x_true)).all(axis=1)
    return RecoveryOutcome(
        x_hat=x,
        l1_value=np.abs(x).sum(axis=1),
        feasibility_residual=np.linalg.norm(x_unit @ mat.T - y_unit, axis=1),
        iterations=iterations,
        converged=converged,
        relative_l2_error=rel_err,
        support_match=match,
    )


# ============================================================
# brute-force l0 oracle
# ============================================================


@dataclass(frozen=True)
class BruteForceResult:
    """Smallest support size reproducing y, with every achieving support."""

    k: int | None
    supports: tuple[tuple[int, ...], ...]

    @property
    def unique(self) -> bool:
        return self.k is not None and len(self.supports) == 1


def brute_force_l0(
    D: PartitionedDictionary, y, k_max: int, tol: float | None = None
) -> BruteForceResult:
    """Exhaustive minimal-support search, capped at N <= 32 and k_max <= 4.

    Returns the smallest k <= k_max for which some size-k support fits y to
    within ``tol`` (default 1e-8 ||y||) by least squares, together with all
    such supports; k = None when nothing fits under the caps.  The fits run
    on y scaled exactly by a power of two, so no norm under- or overflows.
    """
    mat = D.matrix
    m, n = mat.shape
    if n > 32:
        raise ValueError(f"brute force capped at N <= 32, got N={n}")
    if _require_integer("k_max", k_max) > 4:
        raise ValueError(f"brute force capped at k_max <= 4, got {k_max}")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != m:
        raise ValueError(f"y has length {y.shape[0]}, expected {m}")
    scaled, exponent = _binary_scaled(y[None, :])
    y, y_norm = scaled[0], float(np.linalg.norm(scaled[0]))
    tol = 1e-8 * y_norm if tol is None else math.ldexp(tol, -int(exponent[0]))

    for k in range(k_max + 1):
        hits = []
        if k == 0:
            if y_norm <= tol:
                hits.append(())
        else:
            for support in combinations(range(n), k):
                sub = mat[:, support]
                c, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if float(np.linalg.norm(sub @ c - y)) <= tol:
                    hits.append(tuple(support))
        if hits:
            return BruteForceResult(k=k, supports=tuple(hits))
    return BruteForceResult(k=None, supports=())


# ============================================================
# Monte Carlo recovery
# ============================================================


SWEEP_STRATEGIES = ("first-n", "spread", "random-baseline")


def _solve_trials(common, lo, hi):
    """(flat cell index, success, stall, handed over, iteration count) of
    trials lo..hi-1 of a sweep's flat list, in one batched solve."""
    D, supports_a, nb_values, trials, master_seed, cfg = common
    X = np.empty((hi - lo, D.N), dtype=complex)
    Y = np.empty((hi - lo, D.m), dtype=complex)
    # one draw per cell the block meets, of its trials first..last-1
    for start in range(lo - lo % trials, hi, trials):
        first, last = max(lo, start), min(hi, start + trials)
        rest, bi = divmod(start // trials, len(nb_values))
        si, ai = divmod(rest, len(supports_a[0]))
        keys = [(si, ai, bi, t - start) for t in range(first, last)]
        X[first - lo:last - lo], Y[first - lo:last - lo] = draw_instances(
            D, supports_a[si][ai], nb_values[bi], master_seed, keys
        )
    cell = np.arange(lo, hi) // trials
    out = solve_bp_batch(D, Y, cfg, X)
    return np.stack([
        cell, out.success, ~out.converged,
        out.iterations > HANDOVER_ITERATIONS, out.iterations,
    ], axis=1)


@dataclass(eq=False)
class PhaseTransitionGrid:
    """Success counts over (strategy, n_a, n_b) cells."""

    na_values: tuple[int, ...]
    nb_values: tuple[int, ...]
    strategies: tuple[str, ...]
    trials_per_cell: int
    master_seed: int
    successes: np.ndarray  # shape (strategies, na_values, nb_values)
    nonconverged: np.ndarray  # solver stalls, same shape
    iterations_max: np.ndarray  # largest RecoveryOutcome.iterations, same shape
    handed_over: np.ndarray  # trials finished by the dual Newton method, same shape

    @property
    def rates(self) -> np.ndarray:
        return self.successes / self.trials_per_cell

    def csv_rows(self) -> list[str]:
        out = [RECOVERY_CSV_HEADER]
        for si, strategy in enumerate(self.strategies):
            for ai, n_a in enumerate(self.na_values):
                for bi, n_b in enumerate(self.nb_values):
                    hit = int(self.successes[si, ai, bi])
                    rate = hit / self.trials_per_cell
                    out.append(
                        f"{n_a},{n_b},{strategy},{self.trials_per_cell},{hit},{rate!r}"
                    )
        return out

    def rate_by_total(self, strategy: str) -> dict[int, float]:
        """Mean success rate over cells sharing n_a + n_b, per strategy."""
        si = self.strategies.index(strategy)
        sums: dict[int, list[float]] = {}
        for ai, n_a in enumerate(self.na_values):
            for bi, n_b in enumerate(self.nb_values):
                sums.setdefault(n_a + n_b, []).append(
                    float(self.successes[si, ai, bi]) / self.trials_per_cell
                )
        return {k: sum(v) / len(v) for k, v in sorted(sums.items())}

    def summary_dict(self) -> dict:
        return {
            "na_values": list(self.na_values),
            "nb_values": list(self.nb_values),
            "strategies": list(self.strategies),
            "trials_per_cell": self.trials_per_cell,
            "master_seed": self.master_seed,
            "rates": [
                [[float(r) for r in row] for row in plane] for plane in self.rates
            ],
            "nonconverged": self.nonconverged.tolist(),
            "iterations_max": self.iterations_max.tolist(),
            "handed_over": self.handed_over.tolist(),
        }


def run_recovery_sweep(
    D: PartitionedDictionary,
    na_values,
    nb_values,
    trials_per_cell: int,
    strategies=("first-n", "random-baseline"),
    master_seed: int = 0,
    cfg: BpSolverConfig | None = None,
    workers: int = 1,
) -> PhaseTransitionGrid:
    """Measure success rates over the (strategy, n_a, n_b) grid.

    The trials are listed in grid order (strategy, n_a, n_b, trial) and solved
    in the blocks of ``rng.fan_out`` over ``workers`` processes, one batched
    solve per block, whose counts are added into the grids as it arrives.
    Per-trial streams are keyed by (strategy, cell, trial) and the blocks by
    the grid alone, so the grid is bitwise identical across worker counts and
    run orders.  Every input is checked, and each (strategy, n_a) resolved to
    its A-support, before any solve.
    """
    _require_seed(master_seed)
    # at most Na + 1 distinct values fit in [0, Na]: one more read tells a longer input
    na_values = tuple(_require_integer(f"na_values[{i}]", v)
                      for i, v in enumerate(islice(na_values, D.Na + 2)))
    nb_values = tuple(_require_integer(f"nb_values[{i}]", v)
                      for i, v in enumerate(islice(nb_values, D.Nb + 2)))
    strategies = tuple(strategies)
    if not na_values or not nb_values or not strategies:
        raise ValueError("na_values, nb_values and strategies must be non-empty")
    for name, values, top in (("na_values", na_values, D.Na), ("nb_values", nb_values, D.Nb)):
        if len(values) > top + 1:
            raise ValueError(
                f"{name} has more than {top + 1} entries, so some repeat or fall "
                f"outside [0, {top}]"
            )
    for name, values in (
        ("na_values", na_values), ("nb_values", nb_values), ("strategies", strategies)
    ):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} has repeated entries: {values}")
    for strategy in strategies:
        if strategy not in SWEEP_STRATEGIES:
            raise ValueError(
                f"sweep strategy must be one of {SWEEP_STRATEGIES}, got {strategy!r}"
            )
    if _require_integer("trials_per_cell", trials_per_cell) < 1:
        raise ValueError(f"trials_per_cell must be >= 1, got {trials_per_cell}")
    _require_integer("workers", workers)  # fan_out refuses fewer than 1
    if min(na_values + nb_values) < 0 or max(na_values) > D.Na or max(nb_values) > D.Nb:
        raise ValueError(
            f"grid outside the block sizes [0, Na={D.Na}] x [0, Nb={D.Nb}]: "
            f"na_values {na_values}, nb_values {nb_values}"
        )
    supports_a = [[choose_support_a(name, D.Na, n_a) for n_a in na_values] for name in strategies]
    shape = (len(strategies), len(na_values), len(nb_values))
    # per cell: successes, stalls, handed-over trials and the largest iteration count
    counts = np.zeros((math.prod(shape), 4), dtype=np.int64)
    common = (D, supports_a, nb_values, trials_per_cell, master_seed, cfg)
    for rows in fan_out(_solve_trials, common, len(counts) * trials_per_cell, workers):
        np.add.at(counts[:, :3], rows[:, 0], rows[:, 1:4])
        np.maximum.at(counts[:, 3], rows[:, 0], rows[:, 4])
    successes, nonconverged, handed_over, iterations_max = counts.T.reshape(4, *shape)
    return PhaseTransitionGrid(
        na_values=na_values,
        nb_values=nb_values,
        strategies=strategies,
        trials_per_cell=trials_per_cell,
        master_seed=int(master_seed),  # a numpy integer would not dump to JSON
        successes=successes,
        nonconverged=nonconverged,
        iterations_max=iterations_max,
        handed_over=handed_over,
    )
