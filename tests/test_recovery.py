"""Tests for basis pursuit, the l0 oracle, and the success-rate sweep."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsethresh import (
    BpSolverConfig,
    PartitionedDictionary,
    brute_force_l0,
    build_mub,
    choose_support_a,
    derive_rng,
    run_recovery_sweep,
    sample_instance,
    solve_bp,
    solve_bp_batch,
)
from sparsethresh import recovery
from sparsethresh.recovery import RECOVERY_CSV_HEADER, SUCCESS_REL_ERROR, SWEEP_STRATEGIES

TOL = 1e-12


def _planted(D, support, values):
    x = np.zeros(D.N, dtype=complex)
    x[list(support)] = values
    return x, D.matrix @ x


# ==============================
# solver
# ==============================


class TestBpSolverConfig:
    def test_defaults(self):
        assert BpSolverConfig().max_iterations == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            BpSolverConfig(max_iterations=0)
        for cap in (2.5, True):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                BpSolverConfig(max_iterations=cap)


class TestSolveBp:
    def test_identity_returns_the_data(self):
        rng = derive_rng(1)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = solve_bp(PartitionedDictionary(np.eye(6), 0), y, x_true=y)
        assert out.converged
        assert out.relative_l2_error <= 1e-6
        assert out.feasibility_residual <= 1e-8

    def test_zero_data_is_immediate(self):
        out = solve_bp(PartitionedDictionary(np.eye(4), 0), np.zeros(4), x_true=np.zeros(4))
        assert out.converged
        assert out.iterations == 1
        assert np.all(out.x_hat == 0)
        assert out.l1_value == 0.0
        assert out.relative_l2_error == 0.0
        assert out.success

    def test_single_atom(self, two_onb4):
        x_true, y = _planted(two_onb4, (2,), [1.0])
        out = solve_bp(two_onb4, y, x_true=x_true)
        assert out.success
        assert out.support_match[0].item() is True
        assert out.l1_value <= 1.0 + 1e-6

    def test_two_atoms_across_blocks(self, two_onb8):
        rng = derive_rng(4)
        vals = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x_true, y = _planted(two_onb8, (1, 11), vals)
        out = solve_bp(two_onb8, y, x_true=x_true)
        assert out.success
        assert out.relative_l2_error <= 1e-6
        assert out.support_match[0].item() is True

    def test_unconverged_iterate_is_still_feasible(self, two_onb8):
        x_true, y = _planted(two_onb8, (0, 5, 10), [1.0, 1.0, 1.0])
        out = solve_bp(two_onb8, y, cfg=BpSolverConfig(max_iterations=2))
        assert not out.converged
        assert out.iterations == 2
        assert out.feasibility_residual <= 1e-10

    def test_phase_equivariance(self, two_onb8):
        rng = derive_rng(8)
        vals = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x_true, y = _planted(two_onb8, (3, 9), vals)
        phase = np.exp(1j * 1.234)
        base = solve_bp(two_onb8, y)
        rotated = solve_bp(two_onb8, phase * y)
        assert np.max(np.abs(rotated.x_hat - phase * base.x_hat)) <= 1e-7

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(1e-6, 1e6))
    @example(c=1e-6)
    @example(c=1e6)
    def test_solution_scales_with_the_data(self, mub7, c):
        # a k=3 instance that ran to the 100,000-iteration cap at both ends
        # when the stopping floors were absolute
        rng = derive_rng(11)
        _, y = _planted(mub7, (2, 16, 40), rng.standard_normal(3) + 1j * rng.standard_normal(3))
        base = solve_bp(mub7, y)
        scaled = solve_bp(mub7, c * y)
        assert base.converged and scaled.converged
        gap = np.linalg.norm(scaled.x_hat / c - base.x_hat)
        assert gap <= 1e-8 * np.linalg.norm(base.x_hat)

    @pytest.mark.parametrize("e", [-600, -300, 300, 600])
    def test_power_of_two_scales_keep_every_bit(self, two_onb8, e):
        # ||y|| overflows at 2^600 and underflows at 2^-600 unless it is
        # taken on exactly rescaled rows
        rng = derive_rng(4)
        x, y = _planted(two_onb8, (1, 11), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        base = solve_bp(two_onb8, y, x_true=x)
        scaled = solve_bp(two_onb8, np.ldexp(1.0, e) * y, x_true=np.ldexp(1.0, e) * x)
        for name in ("iterations", "converged", "success", "relative_l2_error"):
            assert getattr(scaled, name).tolist() == getattr(base, name).tolist(), name
        assert scaled.x_hat.tobytes() == (np.ldexp(1.0, e) * base.x_hat).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e160, 1e-160, 1e-170])
    def test_extreme_scales_succeed(self, two_onb8, c):
        # at 1e160 the plain ||y|| overflowed to a nan x; at 1e-170 it
        # underflowed to 0, and the unscaled pinv iterate passed as an exact
        # success; at 1e-160 the error norms underflowed to 0
        rng = derive_rng(4)
        x, y = _planted(two_onb8, (1, 11), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        base = solve_bp(two_onb8, y, x_true=x)
        out = solve_bp(two_onb8, c * y, x_true=c * x)
        assert out.success and out.iterations == base.iterations
        # the true support's floor scales with x_true: at 1e-170 an absolute
        # 1e-12 floor saw no true support
        assert out.support_match[0].item() is True
        assert abs(out.relative_l2_error - base.relative_l2_error) <= 1e-12
        assert np.linalg.norm(out.x_hat / c - base.x_hat) <= 1e-12

    def test_an_overflowing_norm_is_refused(self, two_onb4):
        with pytest.raises(ValueError, match="norm"):
            solve_bp(two_onb4, np.full(4, 1e308))

    def test_success_requires_reference(self, two_onb4):
        _, y = _planted(two_onb4, (0,), [1.0])
        out = solve_bp(two_onb4, y)
        assert out.relative_l2_error is None
        assert out.support_match is None
        assert not out.success        # no reference, no success claim

    def test_rejects_bad_data(self, two_onb4):
        with pytest.raises(ValueError, match="length"):
            solve_bp(two_onb4, np.zeros(5))
        with pytest.raises(ValueError, match="finite"):
            solve_bp(two_onb4, np.array([np.nan, 0, 0, 0]))


# ==============================
# batched solves
# ==============================


def _cell_data(D, strategy, n_a, n_b, trials, seed, key):
    """Y and X of a sweep cell's trials, one row per trial."""
    support_a = choose_support_a(strategy, D.Na, n_a)
    X, Y = zip(*(
        sample_instance(D, support_a, n_b, derive_rng(seed, *key, t)) for t in range(trials)
    ))
    return np.array(Y), np.array(X)


def _per_trial_block(D, supports_a, nb_values, trials, master_seed, lo, hi):
    """X and Y of trials lo..hi-1 of a sweep's flat list, each from a stream
    derived alone: the reference for the block's streams."""
    X = np.empty((hi - lo, D.N), dtype=complex)
    Y = np.empty((hi - lo, D.m), dtype=complex)
    for row, index in enumerate(range(lo, hi)):
        cell, t = divmod(index, trials)
        rest, bi = divmod(cell, len(nb_values))
        si, ai = divmod(rest, len(supports_a[0]))
        rng = derive_rng(master_seed, si, ai, bi, t)
        X[row], Y[row] = sample_instance(D, supports_a[si][ai], nb_values[bi], rng)
    return X, Y


class TestSolveBpBatch:
    # (dictionary, strategy, n_a, n_b, seed, cell key), 10 trials each: a
    # README-grid cell, whose trial 8 took 1,338 ADMM iterations and 6 of
    # whose 10 trials succeed, and two mub7 cells with solves of 1,972 and
    # 1,133.  Each has a row that the dual Newton method finishes (two
    # together in the first mub7 cell), whose x is the ill-conditioned
    # central-path point when its polish is refused.
    CELLS = [
        ("two_onb8", "random-baseline", 3, 1, 3, (1, 3, 1)),
        ("mub7", "random-baseline", 3, 0, 5, (1, 3, 0)),
        ("mub7", "first-n", 0, 3, 5, (0, 0, 3)),
    ]

    @pytest.mark.parametrize("name, strategy, n_a, n_b, seed, key", CELLS)
    def test_a_column_does_not_depend_on_its_batch(
        self, request, name, strategy, n_a, n_b, seed, key
    ):
        D = request.getfixturevalue(name)
        Y, X = _cell_data(D, strategy, n_a, n_b, 10, seed, key)
        alone = [solve_bp(D, Y[j], x_true=X[j]) for j in range(10)]
        batch = solve_bp_batch(D, Y, X_true=X)
        perm = np.random.default_rng(0).permutation(10)
        permuted = solve_bp_batch(D, Y[perm], X_true=X[perm])
        assert max(out.iterations[0] for out in alone) > recovery.HANDOVER_ITERATIONS
        for j, solo in enumerate(alone):
            for out, col in ((batch, j), (permuted, int(np.flatnonzero(perm == j)[0]))):
                assert (out.iterations[col], out.converged[col], out.success[col]) == (
                    solo.iterations[0], solo.converged[0], solo.success[0]
                )
                gap = np.linalg.norm(out.x_hat[col] - solo.x_hat[0])
                assert gap <= 1e-10 * np.linalg.norm(solo.x_hat[0])

    def test_batch_fields_match_the_per_column_formulas(self, two_onb8):
        # the README-grid cell of CELLS plus a zero row (x_true = 0: the
        # error is the absolute norm), against each field written row by row
        Y, X = _cell_data(two_onb8, "random-baseline", 3, 1, 10, 3, (1, 3, 1))
        Y, X = np.vstack([Y, np.zeros((1, 8))]), np.vstack([X, np.zeros((1, 16))])
        out = solve_bp_batch(two_onb8, Y, X_true=X)
        for j in range(Y.shape[0]):
            x, x_true, y = out.x_hat[j], X[j], Y[j]
            true_norm = np.linalg.norm(x_true)
            error = np.linalg.norm(x - x_true) / true_norm if true_norm else np.linalg.norm(x)
            floor = recovery.SUPPORT_FLOOR_FACTOR * np.abs(x).max()
            match = set(np.flatnonzero(np.abs(x) > floor)) == set(np.flatnonzero(x_true))
            feasibility = np.linalg.norm(two_onb8.matrix @ x - y) / (np.linalg.norm(y) or 1.0)
            assert out.relative_l2_error[j] == pytest.approx(error, rel=1e-12, abs=1e-300)
            assert out.support_match[j] == match
            assert out.l1_value[j] == pytest.approx(np.abs(x).sum(), rel=1e-12)
            assert out.feasibility_residual[j] == pytest.approx(feasibility, abs=1e-13)
            assert out.success[j] == (out.converged[j] and error <= SUCCESS_REL_ERROR)
        assert 0 < np.count_nonzero(out.success) < Y.shape[0]

    def test_capped_columns_stay_feasible(self, two_onb8):
        Y, X = _cell_data(two_onb8, "first-n", 2, 2, 4, 7, (0, 2, 2))
        out = solve_bp_batch(two_onb8, Y, BpSolverConfig(max_iterations=2), X)
        rows = zip(out.iterations.tolist(), out.converged.tolist(), out.success.tolist())
        assert list(rows) == [(2, False, False)] * 4
        assert out.feasibility_residual.max() <= 1e-10

    def test_a_column_converging_on_the_cap_iteration(self, two_onb8):
        # the cap ends the batch on the iteration its fastest row converges,
        # after that row has left the active set
        Y, X = _cell_data(two_onb8, "first-n", 2, 2, 4, 7, (0, 2, 2))
        free = solve_bp_batch(two_onb8, Y, X_true=X)
        cap = int(free.iterations.min())
        first = free.iterations == cap
        assert 0 < np.count_nonzero(first) < 4
        out = solve_bp_batch(two_onb8, Y, BpSolverConfig(max_iterations=cap), X)
        assert out.iterations.tolist() == [cap] * 4
        assert out.converged.tolist() == first.tolist()
        np.testing.assert_array_equal(out.x_hat[first], free.x_hat[first])
        assert out.feasibility_residual.max() <= 1e-10

    def test_capped_at_the_handover_stays_admm(self, two_onb8):
        # the README grid's 70,571-iteration solve, capped where the handover
        # would start: ADMM's own unconverged iterate, with the values that
        # ADMM gave before the finisher existed
        support_a = choose_support_a("first-n", two_onb8.Na, 2)
        x, y = sample_instance(two_onb8, support_a, 3, derive_rng(3, 0, 2, 3, 20))
        cfg = BpSolverConfig(max_iterations=recovery.HANDOVER_ITERATIONS)
        out = solve_bp(two_onb8, y, cfg, x_true=x)
        assert (out.iterations, out.converged, out.success) == (1000, False, False)
        assert out.l1_value == pytest.approx(4.246181835067384, rel=1e-9)
        assert out.relative_l2_error == pytest.approx(0.0029323647117591384, rel=1e-9)
        assert out.feasibility_residual <= 1e-10
        finished = solve_bp(two_onb8, y, x_true=x)
        assert finished.converged and finished.success
        assert recovery.HANDOVER_ITERATIONS < finished.iterations <= (
            recovery.HANDOVER_ITERATIONS + recovery.NEWTON_MAX_STEPS
        )

    def test_empty_batch(self, two_onb4):
        out = solve_bp_batch(two_onb4, np.zeros((0, 4)))
        assert out.x_hat.shape == (0, 8)
        assert out.iterations.shape == out.converged.shape == out.success.shape == (0,)

    def test_empty_batch_returns_zero_length_fields_before_any_setup(self, two_onb4, monkeypatch):
        def no_setup(*args, **kwargs):
            raise AssertionError("the solver set up for an empty batch")

        monkeypatch.setattr(np.linalg, "pinv", no_setup)
        out = solve_bp_batch(two_onb4, np.zeros((0, 4)), X_true=np.zeros((0, 8)))
        assert out.x_hat.shape == (0, 8)
        for name in ("l1_value", "feasibility_residual", "iterations", "converged",
                     "relative_l2_error", "support_match", "success"):
            assert getattr(out, name).shape == (0,), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_one_nonfinite_y_fails_before_any_iteration(self, two_onb8, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("the solver set up before the data were checked")

        monkeypatch.setattr(np.linalg, "pinv", no_setup)
        Y, X = _cell_data(two_onb8, "first-n", 1, 1, 5, 0, (0, 1, 1))
        Y[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_bp_batch(two_onb8, Y, X_true=X)

    def test_rejects_bad_shapes(self, two_onb4):
        with pytest.raises(ValueError, match="one y per row"):
            solve_bp_batch(two_onb4, np.zeros(4))
        with pytest.raises(ValueError, match="length 5"):
            solve_bp_batch(two_onb4, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="X_true"):
            solve_bp_batch(two_onb4, np.zeros((2, 4)), X_true=np.zeros((3, 8)))


def _per_iteration_solve(D, Y, cfg=None, X_true=None):
    """``solve_bp_batch`` with the ADMM loop that took its stopping test on
    every iteration and dropped a row on the iteration it stopped: the
    reference for the windowed loop."""
    cfg = cfg or BpSolverConfig()
    mat = D.matrix
    k, n = Y.shape[0], mat.shape[1]
    y_scale = np.array([recovery._norm(y) or 1.0 for y in Y])
    y_unit = Y / y_scale[:, None]
    x_unit = np.zeros((k, n), dtype=complex)
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    pinv = np.linalg.pinv(mat)
    mat_t, pinv_t = mat.T, pinv.T
    x_feas = y_unit @ pinv_t
    rho = np.full(k, recovery.STEP_PARAMETER)
    tol = np.array(recovery.TOLERANCE)
    relax = np.array(complex(recovery.RELAXATION))
    relax_rest = np.array(complex(1.0 - recovery.RELAXATION))
    zero, one, tiny = np.array(0.0), np.array(1.0), np.array(1e-300)
    state = np.zeros((5, k, n), dtype=complex)  # x - z, z - z_old, x, z, u
    active = np.arange(k)
    it = 0
    for it in range(1, min(cfg.max_iterations, recovery.HANDOVER_ITERATIONS) + 1):
        r, s, x, z, u = state
        threshold = 1.0 / rho[:, None]
        v = z - u
        np.subtract(v, (v @ mat_t) @ pinv_t, out=x)
        x += x_feas
        w = relax * x
        w += relax_rest * z
        w += u
        np.negative(z, out=s)
        mag = np.abs(w)
        np.maximum(mag, tiny, out=mag)
        np.divide(threshold, mag, out=mag)
        np.subtract(one, mag, out=mag)
        np.maximum(mag, zero, out=mag)
        np.multiply(mag, w, out=z)
        s += z
        np.subtract(w, z, out=u)
        np.subtract(x, z, out=r)
        flat = state.view(np.float64)
        norms = np.sqrt((flat[..., None, :] @ flat[..., None])[..., 0, 0])
        norms[1::3] *= rho
        residuals, scales = norms[:2], norms[2::2]
        np.maximum(norms[2], norms[3], out=norms[2])
        np.maximum(scales, one, out=scales)
        done = (residuals <= tol * scales).all(axis=0)
        if it % recovery.BALANCE_EVERY == 0:
            r_rel, s_rel = residuals / scales
            step = np.where(
                r_rel > recovery.BALANCE_RATIO * s_rel,
                recovery.BALANCE_FACTOR,
                np.where(
                    s_rel > recovery.BALANCE_RATIO * r_rel, 1.0 / recovery.BALANCE_FACTOR, 1.0
                ),
            )
            rho *= step
            u /= step[:, None]
        if done.any():
            rows = active[done]
            x_unit[rows], iterations[rows], converged[rows] = x[done], it, True
            keep = ~done
            if not keep.any():
                break
            state, rho, x_feas, active = state[:, keep], rho[keep], x_feas[keep], active[keep]
    else:
        if cfg.max_iterations <= recovery.HANDOVER_ITERATIONS:
            x_unit[active], iterations[active] = state[2], it
        elif active.size:
            x_unit[active], steps, converged[active] = recovery._newton_finish(
                mat, pinv, y_unit[active]
            )
            iterations[active] = recovery.HANDOVER_ITERATIONS + steps
    return recovery._outcome(mat, x_unit, y_unit, y_scale, iterations, converged, X_true)


class TestAdmmWindows:
    """The windowed ADMM loop against the per-iteration loop it replaced."""

    @staticmethod
    def _batch(D):
        # 30 README-grid trials (two_onb8, seed 3) whose ADMM stops fall on
        # every position of a 10-iteration window, one of them handed over
        # after 1,000 iterations, and a zero row
        cells = [("random-baseline", 3, 1, (1, 3, 1)), ("first-n", 2, 2, (0, 2, 2)),
                 ("first-n", 1, 3, (0, 1, 3))]
        Ys, Xs = zip(*(_cell_data(D, s, n_a, n_b, 10, 3, key) for s, n_a, n_b, key in cells))
        return np.vstack(Ys + (np.zeros((1, D.m)),)), np.vstack(Xs + (np.zeros((1, D.N)),))

    @staticmethod
    def _assert_same(out, ref):
        assert out.iterations.tolist() == ref.iterations.tolist()
        assert out.converged.tolist() == ref.converged.tolist()
        assert out.success.tolist() == ref.success.tolist()
        gap = np.linalg.norm(out.x_hat - ref.x_hat, axis=1)
        assert (gap <= 1e-12 * np.linalg.norm(ref.x_hat, axis=1)).all()

    def test_the_batch_stops_at_every_window_position(self, two_onb8):
        Y, X = self._batch(two_onb8)
        out = _per_iteration_solve(two_onb8, Y, X_true=X)
        admm = out.converged & (out.iterations <= recovery.HANDOVER_ITERATIONS)
        assert set((out.iterations[admm] % recovery.BALANCE_EVERY).tolist()) == set(range(10))
        assert (out.iterations > recovery.HANDOVER_ITERATIONS).any()
        assert out.iterations[-1] == 1 and out.converged[-1]

    @pytest.mark.parametrize("cap", [1, 2, 9, 10, 11, 999, 1000, 1001, None])
    def test_every_cap(self, two_onb8, cap):
        Y, X = self._batch(two_onb8)
        cfg = None if cap is None else BpSolverConfig(max_iterations=cap)
        out = solve_bp_batch(two_onb8, Y, cfg, X)
        self._assert_same(out, _per_iteration_solve(two_onb8, Y, cfg, X))

    @pytest.mark.parametrize("handover", [1, 15])
    def test_an_early_handover(self, two_onb8, monkeypatch, handover):
        monkeypatch.setattr(recovery, "HANDOVER_ITERATIONS", handover)
        Y, X = self._batch(two_onb8)
        out = solve_bp_batch(two_onb8, Y, X_true=X)
        assert (out.iterations > handover).sum() == Y.shape[0] - 1
        self._assert_same(out, _per_iteration_solve(two_onb8, Y, X_true=X))

    def test_every_window_length(self, two_onb8, monkeypatch):
        # a ring budget that admits windows of 2 iterations for 100 rows, 4
        # for 51, 5 for 50, 9 for 28 and 10 for 27, each cut at the next
        # balancing iteration: 100 rows start on windows of 2 that lengthen
        # as rows leave
        n = two_onb8.N
        monkeypatch.setattr(recovery, "ADMM_RING_BYTES", 3 * 80 * n * 100)
        assert [recovery._window(0, rows, n) for rows in (101, 100, 51, 50, 28, 27)] == [
            1, 2, 4, 5, 9, 10
        ]
        assert [recovery._window(done, 1, n) for done in (3, 4, 5, 20)] == [7, 6, 5, 10]
        Y, X = self._batch(two_onb8)
        Y, X = np.resize(Y, (100, Y.shape[1])), np.resize(X, (100, X.shape[1]))
        out = solve_bp_batch(two_onb8, Y, X_true=X)
        self._assert_same(out, _per_iteration_solve(two_onb8, Y, X_true=X))

    def test_the_ring_stays_within_its_budget(self):
        # 256 mub13 rows, 20 iterations: the ring's memory over the
        # per-iteration loop's peak is at most ADMM_RING_BYTES
        D = build_mub(13)
        support_a = choose_support_a("first-n", D.Na, 2)
        X, Y = map(np.array, zip(*(
            sample_instance(D, support_a, 3, derive_rng(1, t)) for t in range(256)
        )))
        cfg = BpSolverConfig(max_iterations=20)
        peaks = []
        for solve in (_per_iteration_solve, solve_bp_batch):
            tracemalloc.start()
            try:
                solve(D, Y, cfg, X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + recovery.ADMM_RING_BYTES


class TestNewtonFinisher:
    """Every row handed over after one ADMM iteration: the Newton method's
    verdicts on README-grid trials (two_onb8, seed 3) where a careless polish
    goes wrong."""

    @staticmethod
    def _finished(D, strategy, n_a, n_b, t, monkeypatch):
        monkeypatch.setattr(recovery, "HANDOVER_ITERATIONS", 1)
        si = ("first-n", "random-baseline").index(strategy)
        support_a = choose_support_a(strategy, D.Na, n_a)
        x, y = sample_instance(D, support_a, n_b, derive_rng(3, si, n_a, n_b, t))
        out = solve_bp(D, y, x_true=x)
        assert out.converged and out.iterations > 1
        return x, out

    @pytest.mark.parametrize("n_a, n_b, t", [(1, 4, 10), (3, 2, 40)])
    def test_uncertified_polish_leaves_a_failure(self, two_onb8, monkeypatch, n_a, n_b, t):
        # x_true's l1 norm exceeds the optimum by 1e-6 relative, so least
        # squares on the large entries of x reproduces it, and a polish on any
        # support must pass the gap test; the point returned beats x_true
        x, out = self._finished(two_onb8, "random-baseline", n_a, n_b, t, monkeypatch)
        assert not out.success
        assert out.l1_value < np.abs(x).sum()
        assert out.feasibility_residual <= 1e-10

    @pytest.mark.parametrize("n_a, n_b, t", [(3, 1, 22), (3, 1, 47)])
    def test_dual_support_keeps_a_success(self, two_onb8, monkeypatch, n_a, n_b, t):
        # the dual value equals ||x_true||_1 to 1e-8: the certified polish on
        # the dual's active set returns x_true itself
        _, out = self._finished(two_onb8, "first-n", n_a, n_b, t, monkeypatch)
        assert out.success and out.support_match
        assert out.relative_l2_error <= 1e-12

    def test_a_small_entry_stays_in_the_polish(self, two_onb8, monkeypatch):
        # an entry 2e-4 of the largest falls below a support cut at
        # 1e-3 max|x|, but its |d_j^H w| comes within ACTIVE_MARGIN of 1
        monkeypatch.setattr(recovery, "HANDOVER_ITERATIONS", 1)
        x_true, y = _planted(two_onb8, (1, 11), [1.0, 2e-4j])
        out = solve_bp(two_onb8, y, x_true=x_true)
        assert out.converged and out.iterations > 1
        assert out.success and out.support_match
        assert out.relative_l2_error <= 1e-12


# ==============================
# l0 oracle
# ==============================


class TestBruteForceL0:
    def test_single_atom(self, two_onb4):
        out = brute_force_l0(two_onb4, two_onb4.matrix[:, 3], k_max=2)
        assert out.k == 1
        assert out.supports == ((3,),)
        assert out.unique

    def test_zero_data(self, two_onb4):
        out = brute_force_l0(two_onb4, np.zeros(4), k_max=2)
        assert out.k == 0
        assert out.supports == ((),)
        assert out.unique

    def test_planted_pair(self, two_onb4):
        rng = derive_rng(6)
        vals = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x_true, y = _planted(two_onb4, (0, 1), vals)
        out = brute_force_l0(two_onb4, y, k_max=2)
        assert out.k == 2
        assert out.unique
        assert out.supports[0] == (0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 1e-170, 1e170])
    def test_the_search_is_scale_free(self, two_onb8, c):
        # a plain ||y|| underflowed to 0 at 1e-170 and overflowed at 1e170,
        # and either way the empty support fit y
        rng = derive_rng(4)
        _, y = _planted(two_onb8, (1, 11), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        out = brute_force_l0(two_onb8, c * y, k_max=2)
        assert out.k == 2 and out.supports == ((1, 11),)

    def test_nothing_fits_under_the_cap(self, two_onb8):
        _, y = _planted(two_onb8, (0, 5, 10), [1.0, 1.0, 1.0])
        out = brute_force_l0(two_onb8, y, k_max=2)
        assert out.k is None
        assert out.supports == ()
        assert not out.unique

    def test_loose_tolerance_accepts_empty_support(self, two_onb4):
        out = brute_force_l0(two_onb4, two_onb4.matrix[:, 0], k_max=1, tol=10.0)
        assert out.k == 0

    def test_caps(self):
        from sparsethresh import build_random_dictionary
        wide = build_random_dictionary(4, 33, seed=0)
        with pytest.raises(ValueError, match="N <= 32"):
            brute_force_l0(wide, np.zeros(4), k_max=2)
        narrow = build_random_dictionary(4, 8, seed=0)
        with pytest.raises(ValueError, match="k_max <= 4"):
            brute_force_l0(narrow, np.zeros(4), k_max=5)
        with pytest.raises(ValueError, match="nonnegative"):
            brute_force_l0(narrow, np.zeros(4), k_max=-1)
        with pytest.raises(ValueError, match="k_max must be an integer, got 1.0"):
            brute_force_l0(narrow, np.zeros(4), k_max=1.0)

    def test_rejects_bad_length(self, two_onb4):
        with pytest.raises(ValueError, match="length"):
            brute_force_l0(two_onb4, np.zeros(3), k_max=1)


class TestOracleAgreement:
    def test_solver_and_oracle_supports_coincide(self, two_onb8):
        budgets = ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0))
        rng = derive_rng(13)
        checked = 0
        for t in range(40):
            n_a, n_b = budgets[t % len(budgets)]
            support_a = choose_support_a("random-baseline", two_onb8.Na, n_a)
            x, y = sample_instance(two_onb8, support_a, n_b, rng)
            out = solve_bp(two_onb8, y, x_true=x)
            assert out.success
            oracle = brute_force_l0(two_onb8, y, k_max=2)
            if oracle.unique and out.support_match:
                assert oracle.supports[0] == tuple(np.flatnonzero(x).tolist())
                checked += 1
        assert checked >= 30      # the certificate fires on most draws


# ==============================
# Monte Carlo trials and sweeps
# ==============================


def _trial(D, strategy, n_a, n_b, rng, support_a=None):
    """One sweep trial: an instance from ``rng``, then basis pursuit on its y."""
    x, y = sample_instance(D, choose_support_a(strategy, D.Na, n_a, support_a), n_b, rng)
    return solve_bp(D, y, x_true=x)


class TestRecoveryTrial:
    def test_hybrid_instance_succeeds(self):
        D = PartitionedDictionary(np.eye(8), 4)
        out = _trial(D, "prescribed", 2, 2, derive_rng(5), support_a=(0, 2))
        assert out.success
        assert out.support_match[0].item() is True

    def test_zero_budget(self, two_onb4):
        out = _trial(two_onb4, "first-n", 0, 0, derive_rng(0))
        assert out.success
        assert out.relative_l2_error == 0.0


class TestRecoverySweep:
    def test_small_grid_rates(self, two_onb4):
        grid = run_recovery_sweep(two_onb4, (0, 1), (0, 1), trials_per_cell=5, master_seed=3)
        assert grid.successes.shape == (2, 2, 2)
        assert np.all(grid.successes == 5)
        assert np.all(grid.rates == 1.0)

    @pytest.mark.parametrize("strategy", SWEEP_STRATEGIES)
    def test_workers_do_not_change_counts(self, two_onb4, monkeypatch, pool_starts, strategy):
        # blocks of 3 over 2 cells of 4 trials: they straddle the cells, and two workers fan out
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 3)
        kwargs = dict(trials_per_cell=4, master_seed=2, strategies=(strategy,))
        serial = run_recovery_sweep(two_onb4, (0, 1), (1,), **kwargs)
        parallel = run_recovery_sweep(two_onb4, (0, 1), (1,), workers=2, **kwargs)
        np.testing.assert_array_equal(serial.successes, parallel.successes)
        assert pool_starts == [2]

    # successes, nonconverged and iterations_max of a two_onb8 grid (n_a 0-3,
    # n_b 1-4, all three strategies, 6 trials, seed 21) as the one-trial-at-a-
    # time solver gave them, uncapped and capped at 300 iterations.  The three
    # uncapped maxima above HANDOVER_ITERATIONS are 1,000 ADMM iterations plus
    # Newton steps (the ADMM-only solves took 1045, 1062 and 1607).
    PINNED = {
        None: (
            [[[6, 6, 6, 6], [6, 6, 4, 2], [6, 4, 3, 0], [4, 1, 1, 0]],
             [[6, 6, 6, 6], [6, 5, 3, 1], [5, 4, 2, 0], [3, 1, 2, 0]],
             [[6, 6, 6, 6], [6, 6, 4, 2], [6, 4, 1, 0], [3, 1, 0, 0]]],
            [[[0] * 4] * 4] * 3,
            [[[96, 96, 102, 123], [142, 144, 352, 1078], [127, 334, 371, 333],
              [343, 373, 366, 361]],
             [[96, 96, 95, 161], [134, 125, 742, 1073], [193, 194, 293, 614],
              [1082, 669, 330, 489]],
             [[96, 97, 98, 150], [147, 151, 236, 291], [143, 548, 255, 704],
              [521, 390, 411, 291]]],
        ),
        300: (
            [[[6, 6, 6, 6], [6, 6, 4, 2], [6, 3, 3, 0], [4, 1, 1, 0]],
             [[6, 6, 6, 6], [6, 5, 3, 1], [5, 4, 2, 0], [3, 0, 2, 0]],
             [[6, 6, 6, 6], [6, 6, 4, 2], [6, 4, 1, 0], [3, 0, 0, 0]]],
            [[[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 1, 1], [1, 1, 2, 1]],
             [[0, 0, 0, 0], [0, 0, 1, 4], [0, 0, 0, 2], [2, 4, 1, 2]],
             [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 0, 3], [1, 2, 3, 0]]],
            [[[96, 96, 102, 123], [142, 144, 300, 300], [127, 300, 300, 300],
              [300, 300, 300, 300]],
             [[96, 96, 95, 161], [134, 125, 300, 300], [193, 194, 293, 300],
              [300, 300, 300, 300]],
             [[96, 97, 98, 150], [147, 151, 236, 291], [143, 300, 255, 300],
              [300, 300, 300, 291]]],
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [None, 300])
    def test_pinned_grid(self, two_onb8, cap, workers):
        cfg = None if cap is None else BpSolverConfig(max_iterations=cap)
        grid = run_recovery_sweep(
            two_onb8, (0, 1, 2, 3), (1, 2, 3, 4), trials_per_cell=6,
            strategies=SWEEP_STRATEGIES, master_seed=21, cfg=cfg, workers=workers,
        )
        successes, nonconverged, iterations_max = self.PINNED[cap]
        assert grid.successes.tolist() == successes
        assert grid.nonconverged.tolist() == nonconverged
        assert grid.iterations_max.tolist() == iterations_max
        handed = grid.iterations_max > recovery.HANDOVER_ITERATIONS
        assert grid.handed_over.tolist() == handed.astype(int).tolist()

    def test_solve_blocks_do_not_change_counts(self, two_onb8, monkeypatch):
        kwargs = dict(trials_per_cell=10, master_seed=8, strategies=("random-baseline",))
        whole = run_recovery_sweep(two_onb8, (1, 2), (2, 3), **kwargs)
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 4)  # ten blocks of 4 over 4 cells
        split = run_recovery_sweep(two_onb8, (1, 2), (2, 3), **kwargs)
        for name in ("successes", "nonconverged", "iterations_max"):
            np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [None, 300])
    def test_blocks_that_straddle_cells(self, two_onb8, monkeypatch, cap, workers):
        # 8 cells of 5 trials in blocks of 7: blocks cut across cells and
        # strategies, and 6 blocks fan out; each cell solved alone must agree
        na_values, nb_values, strategies, trials, seed = (1, 3), (2, 4), SWEEP_STRATEGIES[::2], 5, 6
        cfg = None if cap is None else BpSolverConfig(max_iterations=cap)
        expected = np.zeros((4, len(strategies), len(na_values), len(nb_values)), dtype=int)
        for si, strategy in enumerate(strategies):
            for ai, n_a in enumerate(na_values):
                for bi, n_b in enumerate(nb_values):
                    Y, X = _cell_data(two_onb8, strategy, n_a, n_b, trials, seed, (si, ai, bi))
                    out = solve_bp_batch(two_onb8, Y, cfg, X)
                    expected[:, si, ai, bi] = (
                        np.count_nonzero(out.success),
                        np.count_nonzero(~out.converged),
                        out.iterations.max(),
                        np.count_nonzero(out.iterations > recovery.HANDOVER_ITERATIONS),
                    )
        assert 0 < expected[0].sum() < expected[0].size * trials
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 7)
        grid = run_recovery_sweep(
            two_onb8, na_values, nb_values, trials_per_cell=trials, strategies=strategies,
            master_seed=seed, cfg=cfg, workers=workers,
        )
        assert grid.successes.tolist() == expected[0].tolist()
        assert grid.nonconverged.tolist() == expected[1].tolist()
        assert grid.iterations_max.tolist() == expected[2].tolist()
        assert grid.handed_over.tolist() == expected[3].tolist()

    @pytest.mark.parametrize("lo, hi", [(0, 255), (0, 256), (0, 257), (255, 512), (256, 513)])
    @pytest.mark.parametrize("dict_name", ["mub7", "two_onb8"])
    def test_block_streams_are_the_per_trial_streams(self, request, monkeypatch, dict_name, lo, hi):
        # 3 strategies x 3 n_a x 2 n_b cells of 50 trials, cut at and around 256
        D = request.getfixturevalue(dict_name)
        na_values, nb_values, trials = (0, 2, 3), (1, 3), 50
        supports_a = [
            [choose_support_a(name, D.Na, n_a) for n_a in na_values] for name in SWEEP_STRATEGIES
        ]
        blocks = []

        def recording(D, Y, cfg=None, X_true=None):
            blocks.append((X_true.copy(), Y.copy()))
            return solve_bp_batch(D, Y, cfg, X_true)

        monkeypatch.setattr(recovery, "solve_bp_batch", recording)
        cfg = BpSolverConfig(max_iterations=1)
        for seed in (41, 2**32 + 41, 2**128 + 41):  # one 32-bit word, two, three limbs
            recovery._solve_trials((D, supports_a, nb_values, trials, seed, cfg), lo, hi)
            X, Y = _per_trial_block(D, supports_a, nb_values, trials, seed, lo, hi)
            assert blocks[-1][0].tobytes() == X.tobytes()
            assert blocks[-1][1].tobytes() == Y.tobytes()

    def test_block_rows_are_the_per_trial_instances(self, two_onb8, monkeypatch):
        # blocks of 7 over 2 x 2 x 2 cells of 5 trials: row r of a block's X
        # and Y is trial lo + r's sample_instance, bit for bit
        strategies, na_values, nb_values, trials, seed = SWEEP_STRATEGIES[1:], (0, 2), (1, 3), 5, 4
        blocks = []

        def recording(D, Y, cfg=None, X_true=None):
            blocks.append((X_true.copy(), Y.copy()))
            return solve_bp_batch(D, Y, cfg, X_true)

        monkeypatch.setattr(recovery, "solve_bp_batch", recording)
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 7)
        run_recovery_sweep(
            two_onb8, na_values, nb_values, trials_per_cell=trials, strategies=strategies,
            master_seed=seed, cfg=BpSolverConfig(max_iterations=2),
        )
        X = np.concatenate([X for X, _ in blocks])
        Y = np.concatenate([Y for _, Y in blocks])
        assert [len(X) for X, _ in blocks] == [7] * 5 + [5]
        for index in range(len(X)):
            cell, t = divmod(index, trials)
            si, ai, bi = np.unravel_index(cell, (2, 2, 2))
            x, y = sample_instance(
                two_onb8, choose_support_a(strategies[si], two_onb8.Na, na_values[ai]),
                nb_values[bi], derive_rng(seed, si, ai, bi, t),
            )
            assert X[index].tobytes() == x.tobytes() and Y[index].tobytes() == y.tobytes()

    def test_rank_deficient_cell_fails(self, two_onb4):
        grid = run_recovery_sweep(
            two_onb4, (2,), (3,), trials_per_cell=5, master_seed=1,
            strategies=("first-n",), cfg=BpSolverConfig(max_iterations=2000),
        )
        assert float(grid.rates[0, 0, 0]) == 0.0

    def test_solver_stalls_are_counted_apart(self, two_onb4):
        grid = run_recovery_sweep(
            two_onb4, (1,), (1, 2), trials_per_cell=3, master_seed=4,
            cfg=BpSolverConfig(max_iterations=2),
        )
        assert np.all(grid.nonconverged == 3)
        assert np.all(grid.iterations_max == 2)
        assert np.all(grid.successes == 0)
        doc = grid.summary_dict()
        assert doc["nonconverged"] == [[[3, 3]], [[3, 3]]]
        assert doc["iterations_max"] == [[[2, 2]], [[2, 2]]]
        assert doc["handed_over"] == [[[0, 0]], [[0, 0]]]
        assert np.shape(doc["rates"]) == np.shape(doc["nonconverged"])
        assert grid.csv_rows()[0] == RECOVERY_CSV_HEADER

    def test_csv_layout(self, two_onb4):
        grid = run_recovery_sweep(two_onb4, (0, 1), (0, 1), trials_per_cell=5, master_seed=3)
        rows = grid.csv_rows()
        assert rows[0] == RECOVERY_CSV_HEADER
        assert rows[1] == "0,0,first-n,5,5,1.0"
        assert len(rows) == 1 + 2 * 2 * 2

    def test_rate_by_total_averages_antidiagonals(self, two_onb4):
        grid = run_recovery_sweep(two_onb4, (0, 1), (0, 1), trials_per_cell=5, master_seed=3)
        by_total = grid.rate_by_total("first-n")
        assert list(by_total) == [0, 1, 2]
        assert by_total[0] == 1.0 and by_total[2] == 1.0

    def test_spread_strategy_accepted(self, two_onb4):
        grid = run_recovery_sweep(
            two_onb4, (1,), (1,), trials_per_cell=3, master_seed=0, strategies=("spread",)
        )
        assert grid.strategies == ("spread",)

    def test_validation(self, two_onb4):
        with pytest.raises(ValueError, match="strategy"):
            run_recovery_sweep(two_onb4, (0,), (0,), 1, strategies=("greedy",))
        with pytest.raises(ValueError, match="non-empty"):
            run_recovery_sweep(two_onb4, (), (0,), 1)
        with pytest.raises(ValueError, match="trials_per_cell"):
            run_recovery_sweep(two_onb4, (0,), (0,), 0)
        with pytest.raises(ValueError, match="block sizes"):
            run_recovery_sweep(two_onb4, (5,), (0,), 1)

    @pytest.mark.parametrize(
        "na_values, nb_values, strategies, message",
        [
            ((1, 1), (0,), ("first-n",), "na_values has repeated"),
            ((0,), (2, 0, 2), ("first-n",), "nb_values has repeated"),
            ((0,), (0,), ("first-n", "spread", "first-n"), "strategies has repeated"),
            ((0, 1, -1), (0, 1), ("first-n",), "block sizes"),
            ((0,), (-2,), ("first-n",), "block sizes"),
            ((0,), (5,), ("first-n",), "block sizes"),
            ((0.9, 1.5), (0,), ("first-n",), r"na_values\[0\] must be an integer, got 0.9"),
            ((0,), (0, True), ("first-n",), r"nb_values\[1\] must be an integer, got True"),
        ],
    )
    def test_bad_grid_fails_before_any_solve(
        self, two_onb4, monkeypatch, na_values, nb_values, strategies, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was solved before the grid was checked")

        monkeypatch.setattr(recovery, "fan_out", no_work)
        with pytest.raises(ValueError, match=message):
            run_recovery_sweep(two_onb4, na_values, nb_values, 20, strategies=strategies)

    @pytest.mark.parametrize("kwargs, message", [
        ({"trials_per_cell": True}, "trials_per_cell must be an integer, got True"),
        ({"trials_per_cell": 2.0}, "trials_per_cell must be an integer, got 2.0"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),
    ])
    def test_a_count_that_is_not_an_integer_fails_before_any_solve(
        self, two_onb4, monkeypatch, kwargs, message
    ):
        # True ran one trial a cell, and a workers of 1.5 ran inline
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was solved before the counts were checked")

        monkeypatch.setattr(recovery, "fan_out", no_work)
        with pytest.raises(ValueError, match=message):
            run_recovery_sweep(two_onb4, (0, 1), (0, 1), **{"trials_per_cell": 2, **kwargs})

    def test_a_negative_seed_fails_before_any_solve(self, two_onb4, monkeypatch):
        # at two workers the first block, and so the seed's use, runs in a pool
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was solved before the seed was checked")

        monkeypatch.setattr(recovery, "fan_out", no_work)
        with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
            run_recovery_sweep(two_onb4, (0, 1), (0, 1), 20, master_seed=-1, workers=2)

    def test_summary_dict_rates(self, two_onb4):
        grid = run_recovery_sweep(two_onb4, (0,), (1,), trials_per_cell=3, master_seed=5)
        doc = grid.summary_dict()
        assert doc["rates"][0][0][0] == 1.0
        assert doc["trials_per_cell"] == 3


def _fuchs_certified(mat, x) -> bool:
    """Whether x is provably the unique l1 minimizer for y = D x, a priori
    (Fuchs 2004): D_S is injective on the support S of x, and
    v = pinv(D_S^H) sign(x_S) has |d_j^H v| < 1 for every j outside S."""
    support = np.flatnonzero(x)
    sub = mat[:, support]
    if np.linalg.matrix_rank(sub) < support.size:
        return False
    v = np.linalg.pinv(sub.conj().T) @ (x[support] / np.abs(x[support]))
    off = np.delete(mat, support, axis=1)
    return bool(np.abs(off.conj().T @ v).max() < 1.0)


class TestCertificateGate:
    def test_every_certified_trial_is_a_success(self, two_onb8, monkeypatch):
        solved = []

        def recording(D, Y, cfg=None, X_true=None):
            out = solve_bp_batch(D, Y, cfg, X_true)
            solved.extend(zip(X_true, out.success.tolist()))
            return out

        monkeypatch.setattr(recovery, "solve_bp_batch", recording)
        run_recovery_sweep(
            two_onb8, (0, 1, 2, 3), (1, 2, 3), trials_per_cell=4, master_seed=17,
        )
        assert len(solved) == 96
        certified = [success for x, success in solved if _fuchs_certified(two_onb8.matrix, x)]
        assert certified
        assert all(success for success in certified)


class TestSuccessDefinition:
    def test_threshold_constant(self):
        assert SUCCESS_REL_ERROR == 1e-4
