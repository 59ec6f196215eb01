import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from ddestab import errors, linalg, mol, solver, stability
from ddestab.solver import LinearDDE, SemilinearDDE
from ddestab.stability import ThetaScheme

from conftest import observed_order, random_complex, random_spd


def scalar_problem(a, b, tau=1.0, hist=lambda t: np.array([1.0])):
    return LinearDDE(a=np.array([[a]]), b=np.array([[b]]), tau=tau, history=hist)


class TestLinearStepping:
    def test_pure_decay_halves_each_step(self):
        # B = 0, A = 1, theta = 1, h = 1: y_{n+1} = y_n / 2
        prob = scalar_problem(1.0, 0.0)
        traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 1, 1.0), 6.0)
        assert_allclose(traj.states[:, 0], 0.5 ** np.arange(7), rtol=1e-14)
        assert_allclose(traj.times, np.arange(7.0))

    def test_linearity_in_history(self, rng):
        a = random_spd(rng, 3).real
        b = rng.standard_normal((3, 3))
        base = rng.standard_normal(3)
        s = ThetaScheme(0.7, 0.0, 4, 1.0)

        def run(alpha):
            prob = LinearDDE(a, b, 1.0, lambda t: alpha * base * (1.0 + t))
            return solver.solve_linear(prob, s, 5.0).states

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
        traj = solver.solve_linear(prob, s, 50 * s.h)
        w = stability.build_w(a, b, s)
        # the solver's sampling rule: grid times -k h, clamped to -tau
        stacked = np.concatenate([history(max(-k * s.h, -tau)) for k in range(m + 1)])
        for n_step in range(1, 51):
            stacked = w @ stacked
            err = np.max(np.abs(traj.states[n_step] - stacked[:n]))
            assert err <= 1e-10 * max(1.0, np.max(np.abs(stacked[:n])))

    def test_window_mode_matches_full_run(self, rng):
        a = random_spd(rng, 2).real
        b = rng.standard_normal((2, 2)) * 0.3
        prob = LinearDDE(a, b, 1.0, lambda t: np.array([1.0, -1.0]))
        s = ThetaScheme(1.0, 0.0, 4, 1.0)
        full = solver.solve_linear(prob, s, 10.0, keep_trajectory=True)
        window = solver.solve_linear(prob, s, 10.0, keep_trajectory=False)
        assert window.final_time == full.final_time
        assert_allclose(window.final_state, full.final_state)
        assert len(window.times) == s.m + 2

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
                traj = solver.solve_linear(prob, s, 50.0, keep_trajectory=False)
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
        traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 1, 1.0), 500.0)
        assert traj.diverged
        assert len(traj.times) < 501
        assert np.all(np.isfinite(traj.states))

    def test_delay_mismatch_rejected(self):
        prob = scalar_problem(1.0, 0.0, tau=2.0)
        with pytest.raises(errors.InvalidParams):
            solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 4, 1.0), 5.0)

    def test_time_lookup(self):
        prob = scalar_problem(1.0, 0.0)
        traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), 4.0)
        assert traj.index_of_time(2.0) == 4
        with pytest.raises(errors.TimeOffGrid):
            traj.state_at(2.25)


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
        traj = solver.solve_semilinear(prob, ThetaScheme(1.0, 0.0, 5, 0.5), 5.0)
        assert np.max(np.abs(traj.states)) == 0.0

    @pytest.mark.parametrize("theta", [1.0, 0.5, 0.25])
    def test_linear_g_matches_linear_solver(self, rng, theta):
        n = 3
        a = random_spd(rng, n).real
        b = rng.standard_normal((n, n)) * 0.4
        hist = rng.standard_normal(n)
        s = ThetaScheme(theta, 0.0, 4, 1.0)
        lin = solver.solve_linear(LinearDDE(a, b, 1.0, lambda t: hist), s, 8.0)
        semi = solver.solve_semilinear(
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
        n_steps = len(traj.times) - 1
        assert not traj.diverged and n_steps == solver._n_steps(3.0, s.h)
        assert len(calls) == (n_steps if theta == 1.0 else n_steps + 1)
        assert traj.stats.g_calls == len(calls) and traj.stats.steps == n_steps

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_g_returning_its_argument(self, rng, theta, u):
        # g hands back a view of the solver's ring buffer (at u = 0 the
        # delayed value is a buffer row itself)
        a = random_spd(rng, 3).real
        hist = rng.standard_normal(3)
        s = ThetaScheme(theta, u, 4, 1.0)
        lin = solver.solve_linear(LinearDDE(a, np.eye(3), 1.0, lambda t: hist), s, 6.0)
        semi = solver.solve_semilinear(
            SemilinearDDE(-a, lambda z: z, 1.0, lambda t: hist), s, 6.0)
        assert np.array_equal(lin.states, semi.states)

    def test_sparse_linear_part(self, rng):
        import scipy.sparse

        n = 20
        main = -2.0 * np.ones(n)
        off = np.ones(n - 1)
        dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        sparse = scipy.sparse.csr_matrix(dense)
        hist = rng.standard_normal(n)
        g = lambda z: 0.5 * z * (1.0 - z)
        s = ThetaScheme(1.0, 0.0, 3, 1.0)
        t_d = solver.solve_semilinear(SemilinearDDE(dense, g, 1.0, lambda t: hist), s, 4.0)
        t_s = solver.solve_semilinear(SemilinearDDE(sparse, g, 1.0, lambda t: hist), s, 4.0)
        assert np.max(np.abs(t_d.states - t_s.states)) <= 1e-11


    @pytest.mark.parametrize("sparse", [False, True])
    def test_nan_forcing_flags_divergence(self, sparse):
        import scipy.sparse

        m_lin = -np.eye(2)
        if sparse:
            m_lin = scipy.sparse.csr_matrix(m_lin)
        prob = SemilinearDDE(m_linear=m_lin, g=lambda z: np.full(2, np.nan),
                             tau=1.0, history=lambda t: np.ones(2))
        traj = solver.solve_semilinear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), 3.0)
        assert traj.diverged
        assert len(traj.times) == 2  # halted after the first step
        assert np.isnan(traj.peak_max_norm) and np.isnan(np.max(np.abs(traj.states)))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_shifted_solve_operator_matches_csr(self, theta, u):
        # example2 through its DST-I operator against the same problem on
        # the bare CSR stencil (factored by splu)
        dde = mol.build_example2(16, 0.5, 3.0, 1.0).dde
        on_csr = SemilinearDDE(dde.m_linear.tocsr(), dde.g, dde.tau, dde.history)
        s = ThetaScheme(theta, u, 600 if theta == 0.0 else 10, 1.0)  # explicit: h |M| < 2
        got = solver.solve_semilinear(dde, s, 2.0)
        ref = solver.solve_semilinear(on_csr, s, 2.0)
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
        full = solver.solve_linear(prob, s, 6.0)
        assert np.iscomplexobj(full.states) == complex_history
        assert full.peak_max_norm == np.max(np.abs(full.states))
        window = solver.solve_linear(prob, s, 6.0, keep_trajectory=False)
        assert window.peak_max_norm == full.peak_max_norm

    def test_counts_the_initial_state(self):
        # pure decay: the peak is z(0), which the window no longer holds
        prob = scalar_problem(1.0, 0.0, hist=lambda t: np.array([-3.0]))
        traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 1, 1.0), 6.0,
                                   keep_trajectory=False)
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
            traj = solver.solve_semilinear(SemilinearDDE(-a, g, 1.0, history), s, 8.0)
        else:
            g = lambda z: b @ z
            traj = solver.solve_linear(LinearDDE(a, b, 1.0, history), s, 8.0)
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
                                            ("sparse", "sparse-lu"),
                                            ("operator", "shifted")])
    def test_path_names_the_implicit_solve(self, kind, path):
        dde = mol.build_example2(8, 0.5, 3.0, 1.0).dde
        m_lin = {"dense": dde.m_linear.toarray(), "sparse": dde.m_linear.tocsr(),
                 "operator": dde.m_linear}[kind]
        prob = SemilinearDDE(m_lin, dde.g, dde.tau, dde.history)
        s = ThetaScheme(0.5, 0.0, 4, 1.0)
        traj = solver.solve_semilinear(prob, s, 2.0)
        stats = traj.stats
        assert stats.path == path
        assert stats.steps == len(traj.times) - 1 == solver._n_steps(2.0, s.h)
        assert stats.g_calls == stats.steps + 1
        assert stats.setup_s >= 0.0 and stats.stepping_s >= 0.0

    def test_steps_stop_at_the_halt(self):
        prob = scalar_problem(1.0, 1e3)
        s = ThetaScheme(1.0, 0.0, 1, 1.0)
        full = solver.solve_linear(prob, s, 500.0)
        window = solver.solve_linear(prob, s, 500.0, keep_trajectory=False)
        assert full.diverged and full.stats.steps == len(full.times) - 1 < 500
        assert window.stats.steps == full.stats.steps == round(window.final_time)

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
                traj = solver.solve_linear(prob, s, 3 * tau)
                err = np.max(np.abs(traj.states[:, 0]
                                    - (3.0 + 0.25 * traj.times)))
                assert err <= 1e-12



def test_trajectory_csv_full_and_norm_only(tmp_path, rng):
    a = random_spd(rng, 2).real
    prob = LinearDDE(a, np.zeros((2, 2)), 1.0, lambda t: np.array([1.0, -2.0]))
    traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), 2.0)
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
    traj = solver.solve_linear(prob, ThetaScheme(1.0, 0.0, 2, 1.0), 2.0)
    assert np.iscomplexobj(traj.states)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,y0_re,y0_im,y1_re,y1_im"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1::2], traj.states.real)
    assert np.array_equal(data[:, 2::2], traj.states.imag)
