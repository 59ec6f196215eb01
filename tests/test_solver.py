import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from ddestab import errors, linalg, mol, solver, stability
from ddestab.solver import LinearDDE, SemilinearDDE
from ddestab.stability import ThetaScheme

from conftest import observed_order, random_complex, random_spd, run_collected


def scalar_problem(a, b, tau=1.0, hist=lambda t: np.array([1.0])):
    return LinearDDE(a=np.array([[a]]), b=np.array([[b]]), tau=tau, history=hist)


class TestLinearStepping:
    def test_pure_decay_halves_each_step(self):
        # B = 0, A = 1, theta = 1, h = 1: y_{n+1} = y_n / 2
        prob = scalar_problem(1.0, 0.0)
        _, traj = run_collected(solver.solve_linear, prob, ThetaScheme(1.0, 0.0, 1, 1.0), 6.0)
        assert_allclose(traj.states[:, 0], 0.5 ** np.arange(7), rtol=1e-14)
        assert_allclose(traj.times, np.arange(7.0))

    def test_linearity_in_history(self, rng):
        a = random_spd(rng, 3).real
        b = rng.standard_normal((3, 3))
        base = rng.standard_normal(3)
        s = ThetaScheme(0.7, 0.0, 4, 1.0)

        def run(alpha):
            prob = LinearDDE(a, b, 1.0, lambda t: alpha * base * (1.0 + t))
            return run_collected(solver.solve_linear, prob, s, 5.0)[1].states

        one = run(1.0)
        three = run(3.0)
        assert np.max(np.abs(three - 3.0 * one)) <= 1e-12 * np.max(np.abs(three))

    @pytest.mark.parametrize("theta,u,m", [(1.0, 0.0, 3), (0.5, 0.0, 5),
                                           (0.7, 0.4, 3), (0.0, 0.0, 2)])
    def test_matches_companion_matrix_iteration(self, rng, theta, u, m):
        n = 2
        a = random_spd(rng, n).real
        b = 0.5 * rng.standard_normal((n, n))
        tau = 1.3
        s = ThetaScheme(theta, u, m, tau)
        hist_vec = rng.standard_normal(n)

        def history(t):
            return hist_vec * math.cos(t)

        prob = LinearDDE(a, b, tau, history)
        _, traj = run_collected(solver.solve_linear, prob, s, 50 * s.h)
        w = stability.build_w(a, b, s)
        # the solver's sampling rule: grid times -k h, clamped to -tau
        stacked = np.concatenate([history(max(-k * s.h, -tau)) for k in range(m + 1)])
        for n_step in range(1, 51):
            stacked = w @ stacked
            err = np.max(np.abs(traj.states[n_step] - stacked[:n]))
            assert err <= 1e-10 * max(1.0, np.max(np.abs(stacked[:n])))

    @pytest.mark.parametrize("path, theta, u, halts", [
        *[(path, theta, u, False) for path in ("dense-inverse", "modes")
          for theta in (0.5, 1.0) for u in (0.0, 0.5)],
        ("dense-inverse", 1.0, 0.0, True)])
    def test_window_mode_matches_full_run(self, rng, path, theta, u, halts):
        # the blocks hand over steps 0 .. n once each, and the window is their
        # last m + 2 rows; a run halted within its first m + 1 steps leaves
        # history samples in the window's first rows
        if path == "modes":
            prob = mol.build_example1(8).dde
        elif halts:  # the first step grows the state from 1e99 past the guard
            prob = LinearDDE(np.eye(2), 1e3 * np.eye(2), 1.0,
                             lambda t: np.array([1e99, -1e99]) * (2.0 + t))
        else:
            prob = LinearDDE(random_spd(rng, 2).real, rng.standard_normal((2, 2)) * 0.3,
                             1.0, lambda t: np.array([1.0, -1.0]) * (2.0 + t))
        s = ThetaScheme(theta, u, 4, prob.tau)
        window, full = run_collected(solver.solve_linear, prob, s, 10.0)
        assert np.array_equal(full.times, s.h * np.arange(window.stats.steps + 1))
        assert len(window.times) == s.m + 2
        n_past = int(np.count_nonzero(window.times < 0.0))
        assert n_past == (s.m + 1 - window.stats.steps if halts else 0)
        assert np.array_equal(window.times[n_past:], full.times[n_past - s.m - 2:])
        assert np.array_equal(window.states[n_past:], full.states[n_past - s.m - 2:])
        assert all(np.array_equal(row, prob.history(max(t, -prob.tau)))
                   for t, row in zip(window.times[:n_past], window.states[:n_past]))
        assert window.diverged == halts
        assert window.peak_max_norm == np.max(np.abs(full.states))
        assert window.stats.path == path

    def test_asymptotics_follow_oracle(self, rng):
        # rho(W) < 0.95: bounded at 50 tau; rho(W) > 1.05: grown by 10x
        # (generic random history; one fresh redraw allowed)
        checked_stable = checked_unstable = 0
        for trial in range(40):
            a = random_spd(rng, 2).real
            b = rng.standard_normal((2, 2)) * rng.uniform(0.2, 2.0)
            s = ThetaScheme(1.0, 0.0, 3, 1.0)
            verdict = stability.oracle_stability(a, b, s)
            rho = verdict.spectral_radius
            if not (rho < 0.95 or rho > 1.05):
                continue

            def grown(seed):
                hist = rng.standard_normal(2)
                prob = LinearDDE(a, b, 1.0, lambda t: hist)
                traj = solver.solve_linear(prob, s, 50.0)
                return (np.linalg.norm(traj.final_state), np.linalg.norm(hist))

            final, h0 = grown(trial)
            if rho < 0.95:
                checked_stable += 1
                assert final <= h0
            else:
                checked_unstable += 1
                if final < 10.0 * h0:  # measure-zero non-excitation: retry once
                    final, h0 = grown(trial + 1000)
                assert final >= 10.0 * h0
        assert checked_stable >= 5 and checked_unstable >= 5

    def test_overflow_guard_flags_divergence(self):
        prob = scalar_problem(1.0, 1e3)
        _, traj = run_collected(solver.solve_linear, prob, ThetaScheme(1.0, 0.0, 1, 1.0), 500.0)
        assert traj.diverged
        assert len(traj.times) < 501
        assert np.all(np.isfinite(traj.states))

    @pytest.mark.parametrize("t_end", [1e17, 1e300])
    def test_run_past_the_step_bound_rejected(self, t_end):
        # 3e17 and 3e300 steps: rejected before the history is read
        prob = LinearDDE(np.eye(2), np.eye(2), math.pi / 2.0,
                         lambda t: pytest.fail("history read"))
        s = ThetaScheme(1.0, 0.0, 5, prob.tau)
        with pytest.raises(errors.InvalidParams, match="more than the 1e[+]09"):
            solver.solve_linear(prob, s, t_end)

    def test_step_bound(self):
        assert solver._n_steps(0.5 * solver.MAX_STEPS, 0.5) == solver.MAX_STEPS
        with pytest.raises(errors.InvalidParams, match="more than"):
            solver._n_steps(0.5 * (solver.MAX_STEPS + 1), 0.5)

    def test_ring_too_large_to_allocate_rejected(self):
        # m + 2 states of dimension 18 at m = 1e17 take 2^63 bytes or more,
        # which numpy refuses before it allocates
        prob = mol.build_example1(10).dde
        s = ThetaScheme(1.0, 0.0, 10 ** 17, prob.tau)
        with pytest.raises(errors.InvalidParams, match="1e[+]17 states of dimension 18"):
            solver.solve_linear(prob, s, s.h)

    def test_delay_mismatch_rejected(self):
        prob = scalar_problem(1.0, 0.0, tau=2.0)
        with pytest.raises(errors.InvalidParams):
            solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 4, 1.0), 5.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        prob = scalar_problem(1.0, 0.0)
        with pytest.raises(errors.InvalidParams, match="t_end"):
            solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), t_end)

    @pytest.mark.parametrize("tau", [0.0, math.inf, math.nan])
    def test_problem_delay_must_be_finite_positive(self, tau):
        with pytest.raises(errors.InvalidParams, match="tau"):
            scalar_problem(1.0, 0.0, tau=tau)
        with pytest.raises(errors.InvalidParams, match="tau"):
            SemilinearDDE(m_linear=np.eye(1), g=lambda z: z, tau=tau,
                          history=lambda t: np.ones(1))


class TestSemilinear:
    def test_pure_decay_without_forcing(self):
        prob = SemilinearDDE(m_linear=-np.eye(2), g=lambda z: np.zeros(2),
                             tau=1.0, history=lambda t: np.array([1.0, 2.0]))
        s = ThetaScheme(1.0, 0.0, 2, 1.0)
        traj = solver.solve_semilinear(prob, s, 3.0)
        expected = np.array([1.0, 2.0]) / (1.0 + s.h) ** 6
        assert_allclose(traj.final_state, expected, rtol=1e-13)

    def test_logistic_zero_history_stays_zero(self):
        prob = SemilinearDDE(m_linear=-np.eye(3),
                             g=lambda z: 2.5 * z * (1.0 - z),
                             tau=0.5, history=lambda t: np.zeros(3))
        _, traj = run_collected(solver.solve_semilinear, prob, ThetaScheme(1.0, 0.0, 5, 0.5),
                                5.0)
        assert np.max(np.abs(traj.states)) == 0.0

    @pytest.mark.parametrize("theta", [1.0, 0.5, 0.25])
    def test_linear_g_matches_linear_solver(self, rng, theta):
        n = 3
        a = random_spd(rng, n).real
        b = rng.standard_normal((n, n)) * 0.4
        hist = rng.standard_normal(n)
        s = ThetaScheme(theta, 0.0, 4, 1.0)
        _, lin = run_collected(solver.solve_linear, LinearDDE(a, b, 1.0, lambda t: hist), s, 8.0)
        _, semi = run_collected(solver.solve_semilinear,
                                SemilinearDDE(-a, lambda z: b @ z, 1.0, lambda t: hist), s, 8.0)
        assert np.array_equal(lin.states, semi.states)

    @pytest.mark.parametrize("theta", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_g_called_once_per_step(self, theta, u):
        calls = []

        def g(z):
            calls.append(1)
            return 0.1 * z

        prob = SemilinearDDE(-np.eye(2), g, 1.0, lambda t: np.array([1.0, -1.0]))
        s = ThetaScheme(theta, u, 4, 1.0)
        traj = solver.solve_semilinear(prob, s, 3.0)
        n_steps = traj.stats.steps
        assert not traj.diverged and n_steps == solver._n_steps(3.0, s.h)
        assert len(calls) == (n_steps if theta == 1.0 else n_steps + 1)
        assert traj.stats.g_calls == len(calls)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_g_returning_its_argument(self, rng, theta, u):
        # g hands back a view of the solver's ring buffer (at u = 0 the
        # delayed value is a buffer row itself)
        a = random_spd(rng, 3).real
        hist = rng.standard_normal(3)
        s = ThetaScheme(theta, u, 4, 1.0)
        _, lin = run_collected(solver.solve_linear,
                               LinearDDE(a, np.eye(3), 1.0, lambda t: hist), s, 6.0)
        _, semi = run_collected(solver.solve_semilinear,
                                SemilinearDDE(-a, lambda z: z, 1.0, lambda t: hist), s, 6.0)
        assert np.array_equal(lin.states, semi.states)

    @pytest.mark.parametrize("kind", ["csr", "list", "linear-operator"])
    def test_other_linear_parts_rejected(self, kind):
        # a dense array or an operator with a sine basis, nothing else
        import scipy.sparse
        import scipy.sparse.linalg

        dense = -np.eye(3)
        m_lin = {"csr": lambda: scipy.sparse.csr_matrix(dense),
                 "list": dense.tolist,
                 "linear-operator": lambda: scipy.sparse.linalg.aslinearoperator(dense),
                 }[kind]()
        with pytest.raises(errors.InvalidParams, match="dense numpy array or an operator"):
            SemilinearDDE(m_lin, lambda z: z, 1.0, lambda t: np.ones(3))

    @pytest.mark.parametrize("operator", [False, True])
    def test_nan_forcing_flags_divergence(self, operator):
        m_lin = mol.SineLaplacian(2, 1.0 / 3.0, (0.5,), dims=2) if operator else -np.eye(4)
        prob = SemilinearDDE(m_linear=m_lin, g=lambda z: np.full(4, np.nan),
                             tau=1.0, history=lambda t: np.ones(4))
        _, traj = run_collected(solver.solve_semilinear, prob, ThetaScheme(1.0, 0.0, 2, 1.0),
                                3.0)
        assert traj.diverged
        assert len(traj.times) == 2  # halted after the first step
        assert np.isnan(traj.peak_max_norm) and np.isnan(np.max(np.abs(traj.states)))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_shifted_solve_operator_matches_csr(self, theta, u):
        # example2 stepped in its DST-I modes against the same problem with
        # its stencil as a dense array (the precomputed inverse path)
        dde = mol.build_example2(16, 0.5, 3.0, 1.0).dde
        on_csr = SemilinearDDE(dde.m_linear.toarray(), dde.g, dde.tau, dde.history)
        s = ThetaScheme(theta, u, 600 if theta == 0.0 else 10, 1.0)  # explicit: h |M| < 2
        _, got = run_collected(solver.solve_semilinear, dde, s, 2.0)
        _, ref = run_collected(solver.solve_semilinear, on_csr, s, 2.0)
        assert got.stats.path == "modes" and ref.stats.path == "dense-inverse"
        assert not ref.diverged and np.array_equal(got.times, ref.times)
        assert np.max(np.abs(got.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


class TestPeakMaxNorm:
    @pytest.mark.parametrize("complex_history", [False, True])
    def test_equals_max_over_states(self, rng, complex_history):
        a = random_spd(rng, 3).real
        b = 0.4 * rng.standard_normal((3, 3))
        hist = rng.standard_normal(3) + (1j * rng.standard_normal(3) if complex_history else 0)
        prob = LinearDDE(a, b, 1.0, lambda t: hist)
        s = ThetaScheme(0.5, 0.5, 4, 1.0)
        window, full = run_collected(solver.solve_linear, prob, s, 6.0)
        assert np.iscomplexobj(full.states) == complex_history
        assert window.peak_max_norm == np.max(np.abs(full.states))

    def test_counts_the_initial_state(self):
        # pure decay: the peak is z(0), which the window no longer holds
        prob = scalar_problem(1.0, 0.0, hist=lambda t: np.array([-3.0]))
        traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 1, 1.0), 6.0)
        assert traj.peak_max_norm == 3.0 > np.max(np.abs(traj.states))


def lu_solve_reference(m_lin, g, history, s, n_steps):
    """The theta method with one scipy.linalg.lu_solve of I - theta h M
    per step, written out independently of the driver."""
    m, h, u, theta = s.m, s.h, s.u, s.theta
    dtype = np.result_type(m_lin, history(0.0), np.float64)
    eye = np.eye(m_lin.shape[0], dtype=dtype)
    lu = scipy.linalg.lu_factor(eye - theta * h * m_lin)
    explicit = eye + (1.0 - theta) * h * m_lin
    # z[k + m] holds z_k; the history is sampled at max(-k h, -tau)
    z = [np.asarray(history(max(k * h, -s.tau)), dtype=dtype) for k in range(-m, 1)]

    def g_delayed(n):  # g at the delayed state of the implicit stage of step n
        return g((1.0 - u) * z[n + 1] + u * z[n + 2])

    for n in range(n_steps):
        rhs = explicit @ z[n + m] + h * ((1.0 - theta) * g_delayed(n - 1)
                                         + theta * g_delayed(n))
        z.append(scipy.linalg.lu_solve(lu, rhs))
    return np.array(z[m:])


class TestDenseInverse:
    """The dense implicit stage is a precomputed inverse applied by matvec."""

    @pytest.mark.parametrize("semilinear", [False, True])
    @pytest.mark.parametrize("complex_history", [False, True])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_matches_per_step_lu_solve(self, rng, semilinear, complex_history,
                                       theta, u):
        n = 4
        a = random_spd(rng, n).real + 0.5 * rng.standard_normal((n, n))  # not symmetric
        b = 0.4 * rng.standard_normal((n, n))
        hist_vec = rng.standard_normal(n)
        if complex_history:
            hist_vec = hist_vec + 1j * rng.standard_normal(n)

        def history(t):
            return hist_vec * math.cos(t)

        s = ThetaScheme(theta, u, 5, 1.0)
        if semilinear:
            g = lambda z: b @ z - 0.2 * z * z
            _, traj = run_collected(solver.solve_semilinear,
                                    SemilinearDDE(-a, g, 1.0, history), s, 8.0)
        else:
            g = lambda z: b @ z
            _, traj = run_collected(solver.solve_linear, LinearDDE(a, b, 1.0, history), s, 8.0)
        ref = lu_solve_reference(-a, g, history, s, len(traj.times) - 1)
        assert not traj.diverged and np.iscomplexobj(traj.states) == complex_history
        assert traj.stats.path == "dense-inverse"
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(traj.states - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_singular_implicit_matrix_raises(self, theta):
        # M = I / (theta h) makes I - theta h M the zero matrix
        s = ThetaScheme(theta, 0.0, 4, 1.0)
        m_lin = np.eye(3) / (theta * s.h)
        hist = lambda t: np.ones(3)
        with pytest.raises(errors.Singular):
            solver.solve_linear(LinearDDE(-m_lin, np.eye(3), 1.0, hist), s, 2.0)
        with pytest.raises(errors.Singular):
            solver.solve_semilinear(SemilinearDDE(m_lin, lambda z: z, 1.0, hist), s, 2.0)

    @pytest.mark.parametrize("semilinear", [False, True])
    def test_one_lu_solve_per_run(self, rng, monkeypatch, semilinear):
        # the LU solve forms the inverse once; no step calls it
        calls = []
        lu_solve = linalg.LinearSolver.solve

        def counted(self, rhs):
            calls.append(np.shape(rhs))
            return lu_solve(self, rhs)

        monkeypatch.setattr(linalg.LinearSolver, "solve", counted)
        a = random_spd(rng, 3).real
        hist = lambda t: np.array([1.0, -1.0, 0.5])
        s = ThetaScheme(0.5, 0.0, 4, 1.0)
        if semilinear:
            traj = solver.solve_semilinear(
                SemilinearDDE(-a, lambda z: 0.3 * z, 1.0, hist), s, 10.0)
        else:
            traj = solver.solve_linear(LinearDDE(a, 0.3 * np.eye(3), 1.0, hist), s, 10.0)
        assert traj.stats.steps == 40
        assert calls == [(3, 3)]


class TestSolveStats:
    @pytest.mark.parametrize("kind, path", [("dense", "dense-inverse"),
                                            ("operator", "modes")])
    def test_path_names_the_implicit_solve(self, kind, path):
        dde = mol.build_example2(8, 0.5, 3.0, 1.0).dde
        m_lin = {"dense": dde.m_linear.toarray(), "operator": dde.m_linear}[kind]
        prob = SemilinearDDE(m_lin, dde.g, dde.tau, dde.history)
        s = ThetaScheme(0.5, 0.0, 4, 1.0)
        _, traj = run_collected(solver.solve_semilinear, prob, s, 2.0)
        stats = traj.stats
        assert stats.path == path
        assert stats.steps == len(traj.times) - 1 == solver._n_steps(2.0, s.h)
        assert stats.g_calls == stats.steps + 1
        assert stats.setup_s >= 0.0 and stats.stepping_s >= 0.0

    def test_steps_stop_at_the_halt(self):
        prob = scalar_problem(1.0, 1e3)
        s = ThetaScheme(1.0, 0.0, 1, 1.0)
        window, full = run_collected(solver.solve_linear, prob, s, 500.0)
        assert window.diverged and window.stats.steps == len(full.times) - 1 < 500
        assert window.stats.steps == round(window.final_time)

    @pytest.mark.parametrize("t_end, steps, diverged", [(8.0, 32, False), (8.25, 33, True),
                                                        (12.0, 33, True)],
                             ids=["finished", "halt-at-last-step", "halt-earlier"])
    def test_window_is_the_tail_of_the_blocks(self, t_end, steps, diverged):
        # the guard trips at step 33 (t = 8.25); the first block's z(0) row
        # is a view of the ring, which a run that took every step returns
        prob = scalar_problem(1.0, 1e12)
        s = ThetaScheme(1.0, 0.0, 4, 1.0)
        rings = []
        window, full = run_collected(solver.solve_linear, prob, s, t_end,
                                     on_block=lambda t, z: rings.append(z.base))
        assert window.stats.steps == steps and window.diverged == diverged
        assert np.array_equal(window.times, full.times[-(s.m + 2):])
        assert np.array_equal(window.states, full.states[-(s.m + 2):])
        assert (not np.max(np.abs(window.final_state)) <= solver.OVERFLOW_GUARD) == diverged
        assert (window.states is rings[0]) == (steps == solver._n_steps(t_end, s.h))

    def test_hand_built_trajectory_has_none(self):
        traj = solver.Trajectory(times=np.zeros(1), states=np.zeros((1, 2)),
                                 scheme=ThetaScheme(1.0, 0.0, 1, 1.0))
        assert traj.stats is None and traj.peak_max_norm is None


@pytest.mark.parametrize("semilinear", [False, True])
def test_non_finite_history_rejected(semilinear):
    s = ThetaScheme(1.0, 0.0, 4, 1.0)

    def history(t):  # finite at t = 0, NaN only at the grid time -h
        return np.full(2, np.nan) if t == -s.h else np.ones(2)

    if semilinear:
        prob = SemilinearDDE(-np.eye(2), lambda z: z, 1.0, history)
        run = solver.solve_semilinear
    else:
        prob = LinearDDE(np.eye(2), np.zeros((2, 2)), 1.0, history)
        run = solver.solve_linear
    with pytest.raises(errors.InvalidParams):
        run(prob, s, 2.0)


@pytest.mark.parametrize("semilinear", [False, True])
@pytest.mark.parametrize("tau,m,u", [(1.0, 4, 0.5), (math.pi / 2, 25, 0.0)])
def test_history_called_only_on_its_domain(semilinear, tau, m, u):
    # -m h lies below -tau: at u = 1/2 by 1/7, at tau = pi/2, m = 25 by rounding
    s = ThetaScheme(0.5, u, m, tau)
    assert -m * s.h < -tau
    seen = []

    def history(t):
        if not -tau <= t <= 0.0:
            raise ValueError(f"history asked for t = {t}")
        seen.append(t)
        return np.array([1.0 + t, 2.0])

    if semilinear:
        prob = SemilinearDDE(-np.eye(2), lambda z: 0.5 * z, tau, history)
        traj = solver.solve_semilinear(prob, s, 2.0)
    else:
        prob = LinearDDE(np.eye(2), 0.5 * np.eye(2), tau, history)
        traj = solver.solve_linear(prob, s, 2.0)
    assert -tau in seen  # the sample below -tau is history(-tau)
    assert np.all(np.isfinite(traj.states))


class TestObservedOrder:
    def test_backward_euler_first_order(self):
        # smooth exponential solution: a = 1, b chosen so e^{sigma t} solves
        # the delay equation for every t (history = exact, no kinks)
        sigma, a = -0.5, 1.0
        tau = 1.0
        b = (sigma + a) * math.exp(sigma * tau)
        prob = LinearDDE(np.array([[a]]), np.array([[b]]), tau,
                         lambda t: np.array([math.exp(sigma * t)]))
        exact = lambda t: np.array([math.exp(sigma * t)])
        slope = observed_order(prob, exact, 1.0, [8, 16, 32, 64], 3.0)
        assert 0.8 <= slope <= 1.2

    def test_trapezoidal_second_order(self):
        sigma, a = -0.5, 1.0
        tau = 1.0
        b = (sigma + a) * math.exp(sigma * tau)
        prob = LinearDDE(np.array([[a]]), np.array([[b]]), tau,
                         lambda t: np.array([math.exp(sigma * t)]))
        exact = lambda t: np.array([math.exp(sigma * t)])
        slope = observed_order(prob, exact, 0.5, [4, 8, 16, 32], 3.0)
        assert 1.8 <= slope <= 2.2

    def test_exactly_representable_solution_roundoff(self):
        # a = b = -1/tau admits the linear solution y = p + q t, which the
        # scheme advances exactly; errors stay at round-off level
        tau = 2.0
        prob = LinearDDE(np.array([[-0.5]]), np.array([[-0.5]]), tau,
                         lambda t: np.array([3.0 + 0.25 * t]))
        exact = lambda t: np.array([3.0 + 0.25 * t])
        for theta in (0.0, 0.5, 1.0):
            for m in (2, 4, 8):
                s = ThetaScheme(theta, 0.0, m, tau)
                _, traj = run_collected(solver.solve_linear, prob, s, 3 * tau)
                err = np.max(np.abs(traj.states[:, 0]
                                    - (3.0 + 0.25 * traj.times)))
                assert err <= 1e-12



def test_trajectory_csv_full_and_norm_only(tmp_path, rng):
    a = random_spd(rng, 2).real
    prob = LinearDDE(a, np.zeros((2, 2)), 1.0, lambda t: np.array([1.0, -2.0]))
    _, traj = run_collected(solver.solve_linear, prob, ThetaScheme(1.0, 0.0, 2, 1.0), 2.0)
    full = tmp_path / "traj.csv"
    traj.to_csv(full)
    lines = full.read_text().strip().splitlines()
    assert lines[0] == "t,y0,y1"
    assert len(lines) == len(traj.times) + 1
    norm = tmp_path / "norm.csv"
    traj.to_csv(norm, norm_only=True)
    first = norm.read_text().splitlines()
    assert first[0] == "t,norm2"
    t0, n0 = map(float, first[1].split(","))
    assert t0 == 0.0 and abs(n0 - math.sqrt(5.0)) <= 1e-12


def test_complex_trajectory_csv_reads_back_exactly(tmp_path, rng):
    prob = LinearDDE(random_spd(rng, 2), 0.3 * random_complex(rng, 2), 1.0,
                     lambda t: np.array([1.0, -2.0j]))
    _, traj = run_collected(solver.solve_linear, prob, ThetaScheme(1.0, 0.0, 2, 1.0), 2.0)
    assert np.iscomplexobj(traj.states)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,y0_re,y0_im,y1_re,y1_im"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1::2], traj.states.real)
    assert np.array_equal(data[:, 2::2], traj.states.imag)


class TestStream:
    """A streamed CSV is ``Trajectory.to_csv`` of the blocks that the same
    run collects."""

    @staticmethod
    def problem(rng, case):
        """(run, problem, scheme, t_end) of one case."""
        if case == "modes":
            dde = mol.build_example1(8).dde
            return solver.solve_linear, dde, ThetaScheme(1.0, 0.0, 6, dde.tau), 3.0
        if case == "short-blocks":  # five rows of dimension 10 per block, m = 25
            dde = mol.build_example1(6, 1.0, 0.6, -0.1, 0.05).dde
            return solver.solve_linear, dde, ThetaScheme(0.5, 0.3, 25, dde.tau), 7.3 * 0.05
        if case == "diverged":  # trips at step 33, the first row of a block of 4
            return (solver.solve_linear, scalar_problem(1.0, 1e12), ThetaScheme(1.0, 0.0, 4, 1.0),
                    50.0)
        a = random_spd(rng, 3)
        hist = np.array([1.0, -2.0, 0.5]) + (1j if case == "complex" else 0.0)
        if case == "complex":
            return (solver.solve_linear, LinearDDE(a, 0.3 * random_complex(rng, 3), 1.0,
                                                   lambda t: hist * (1.0 + t)),
                    ThetaScheme(0.5, 0.5, 4, 1.0), 6.0)
        return (solver.solve_semilinear,
                SemilinearDDE(-a.real, lambda z: 0.3 * np.sin(z), 1.0, lambda t: hist + t),
                ThetaScheme(0.5, 0.5, 4, 1.0), 6.0)

    @pytest.mark.parametrize("case", ["real", "complex", "modes", "diverged", "short-blocks"])
    @pytest.mark.parametrize("norm_only", [False, True], ids=["full", "norm-only"])
    def test_streamed_csv_equals_to_csv_of_collected_blocks(self, tmp_path, monkeypatch, rng,
                                                            case, norm_only):
        if case == "short-blocks":
            monkeypatch.setattr(solver, "BLOCK_BYTES", 5 * 10 * 8)
        run, prob, s, t_end = self.problem(rng, case)
        streamed, collected = tmp_path / "streamed.csv", tmp_path / "collected.csv"
        lengths = []
        with solver.csv_sink(streamed, norm_only) as sink:
            window, full = run_collected(run, prob, s, t_end,
                                         on_block=lambda t, z: lengths.append(len(t)) or sink(t, z))
        full.to_csv(collected, norm_only)
        assert streamed.read_bytes() == collected.read_bytes()
        assert lengths[0] == 1 and sum(lengths) == window.stats.steps + 1
        assert window.stats.path == ("modes" if case in ("modes", "short-blocks")
                                     else "dense-inverse")
        assert np.iscomplexobj(full.states) == (case == "complex")
        assert window.diverged == (case == "diverged")
        # read back, the file holds every state up to the last, the tripped one when diverged
        data = np.loadtxt(streamed, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], full.times) and full.times[-1] == window.final_time
        if norm_only:
            assert np.array_equal(data[:, 1], [solver.state_norm(z) for z in full.states])
        else:
            assert np.array_equal(data[:, 1:], full.states.view(np.float64))
        if case == "diverged":
            assert not np.max(np.abs(window.final_state)) <= solver.OVERFLOW_GUARD
        if case == "short-blocks":
            assert max(lengths[1:]) == 5 < s.m

    def test_run_rejected_before_it_steps_writes_no_csv(self, tmp_path):
        path = tmp_path / "z.csv"
        prob = scalar_problem(1.0, 0.0, hist=lambda t: np.array([np.nan if t < 0 else 1.0]))
        with solver.csv_sink(path) as sink, pytest.raises(errors.InvalidParams, match="history"):
            solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), 2.0, on_block=sink)
        assert not path.exists()
