"""The modes path of the stepping driver (example1 and example2 in their
sine bases, stepped a block at a time) against the dense-inverse path,
against example1's closed-form single-mode recurrence and against
one-step blocks."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from ddestab import errors, mol, solver
from ddestab.solver import LinearDDE, SemilinearDDE
from ddestab.stability import ThetaScheme

from conftest import run_collected


def dense_twin(dde):
    """The same linear problem with A as a dense array: the dense-inverse path."""
    return LinearDDE(dde.a.toarray(), dde.b, dde.tau, dde.history)


def single_mode_reference(m, theta=1.0, grid_m=100, l=-0.1, t_end=10.0 * math.pi):
    """Example1 (unit diffusion, tau = pi/2, u = 0) in its one active mode.

    The history lies in the first Dirichlet mode, so every state is
    (p_n, q_n) times the grid profile; with w = p + i q one step is
    (1 + theta h mu) w_{n+1} = (1 - (1-theta) h mu) w_n
        + h g ((1-theta) w_{n-m} + theta w_{n-m+1}),
    g = e^{l pi/2} (-1 - i (l + pi^2/4)).  Returns the 2-norm of every
    state and the final errors (v1, v2) against the exact solution.
    """
    tau = math.pi / 2.0
    h = tau / m
    dx = 2.0 / grid_m
    mu = (4.0 / dx ** 2) * math.sin(math.pi / (2 * grid_m)) ** 2
    profile = float(np.linalg.norm(np.sin(np.pi * dx * np.arange(1, grid_m) / 2.0)))
    g = math.exp(l * tau) * complex(-1.0, -(l + math.pi ** 2 / 4.0))
    n_steps = math.ceil(t_end / h - 1e-9)
    w = [0j] * (m + n_steps + 1)  # w[k] is the state at step k - m
    for k in range(m + 1):
        t = h * (k - m)
        w[k] = math.exp(l * t) * complex(math.sin(t), math.cos(t))
    lhs = 1.0 + theta * h * mu
    keep = 1.0 - (1.0 - theta) * h * mu
    g_exp, g_imp = h * (1.0 - theta) * g, h * theta * g
    for k in range(m, m + n_steps):
        w[k + 1] = (keep * w[k] + g_exp * w[k - m] + g_imp * w[k - m + 1]) / lhs
    t = h * n_steps
    amp = math.exp(l * t)
    errors = (abs(w[-1].real - amp * math.sin(t)) * profile,
              abs(w[-1].imag - amp * math.cos(t)) * profile)
    return np.abs(np.array(w[m:])) * profile, errors


def assert_same_run(got, ref, rtol):
    assert got.stats.path == "modes" and ref.stats.path == "dense-inverse"
    assert np.array_equal(got.times, ref.times)
    assert got.diverged == ref.diverged
    assert (got.stats.steps, got.stats.g_calls) == (ref.stats.steps, ref.stats.g_calls)
    scale = np.max(np.abs(ref.states))
    assert np.max(np.abs(got.states - ref.states)) <= rtol * scale
    assert abs(got.peak_max_norm - ref.peak_max_norm) <= rtol * ref.peak_max_norm


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("u, m", [(0.0, 1), (0.0, 3), (0.0, 25), (0.3, 3), (0.3, 25)])
@pytest.mark.parametrize("l", [-0.1, 0.1])
def test_matches_dense_inverse(theta, u, m, l):
    # tau = 0.05 keeps h |omega| below 2 for every m, so that the explicit
    # end (theta = 0) is stable and rounding does not grow in the top mode
    dde = mol.build_example1(6, 1.0, 0.6, l, 0.05).dde
    s = ThetaScheme(theta, u, m, dde.tau)
    t_end = 7.3 * dde.tau  # not a whole number of blocks
    window, got = run_collected(solver.solve_linear, dde, s, t_end)
    _, ref = run_collected(solver.solve_linear, dense_twin(dde), s, t_end)
    assert not ref.diverged
    assert_same_run(got, ref, 1e-11)
    assert len(window.times) == m + 2


@pytest.mark.parametrize("u", [0.0, 0.3])
def test_blocks_shorter_than_the_delay(monkeypatch, u):
    # a block holds at most BLOCK_BYTES of states; with five rows of ten
    # float64 (400 bytes) m = 25 takes five blocks per delay, and the halt
    # at l = 40 falls inside one
    monkeypatch.setattr(solver, "BLOCK_BYTES", 5 * 10 * 8)
    for l, t_end in ((-0.1, 7.3 * 0.05), (40.0, 20.0)):
        dde = mol.build_example1(6, 1.0, 0.6, l, 0.05 if l < 0 else math.pi / 2).dde
        s = ThetaScheme(0.5, u, 25, dde.tau)
        _, got = run_collected(solver.solve_linear, dde, s, t_end)
        _, ref = run_collected(solver.solve_linear, dense_twin(dde), s, t_end)
        assert ref.diverged == (l > 0) and (l < 0 or ref.stats.steps % 5)
        assert_same_run(got, ref, 1e-11 if l < 0 else 1e-9)


def test_single_mode_recurrence():
    # example1's published case: M = 100, m = 100, theta = 1, to t = 10 pi
    problem = mol.build_example1(100, 1.0, 1.0, -0.1, math.pi / 2.0)
    s = ThetaScheme(1.0, 0.0, 100, problem.tau)
    _, traj = run_collected(solver.solve_linear, problem.dde, s, 10.0 * math.pi)
    norms, errors = single_mode_reference(100)
    got = np.array([solver.state_norm(state) for state in traj.states])
    assert traj.stats.path == "modes" and got.shape == norms.shape
    assert np.max(np.abs(got - norms) / norms) <= 1e-11
    for comp, want in enumerate(errors):
        got_error = problem.discrete_error(traj.final_state, traj.final_time, comp)
        assert abs(got_error - want) <= 1e-9 * want


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_halt_inside_a_block(theta):
    # l = 40 grows by about e^{40 t}: the state passes 1e100 near t = 5.7,
    # at step 91 or 92 of a run in blocks of 25
    dde = mol.build_example1(10, 1.0, 1.0, 40.0, math.pi / 2.0).dde
    s = ThetaScheme(theta, 0.0, 25, dde.tau)
    _, got = run_collected(solver.solve_linear, dde, s, 20.0)
    _, ref = run_collected(solver.solve_linear, dense_twin(dde), s, 20.0)
    assert ref.diverged and ref.stats.steps % 25 not in (0, 24)
    assert got.diverged and np.array_equal(got.times, ref.times)
    assert got.stats.steps == ref.stats.steps
    assert abs(got.peak_max_norm - ref.peak_max_norm) <= 1e-9 * ref.peak_max_norm


def test_nan_halt_inside_a_block():
    # B = 1e300 I meets a history that jumps from 0 to 1e10: the delayed
    # term overflows to inf the first time it reads the jump (step 11 of
    # a block of 25), and the step turns that into NaN on both paths
    op = mol.SineLaplacian(6, 0.25, (-1.0, -2.0))
    s = ThetaScheme(1.0, 0.0, 25, 1.0)

    def history(t):
        return np.full(12, 1e10 if t >= -s.tau + 10.5 * s.h else 0.0)

    dde = LinearDDE(op, 1e300 * np.eye(12), 1.0, history)
    _, got = run_collected(solver.solve_linear, dde, s, 3.0)
    _, ref = run_collected(solver.solve_linear, dense_twin(dde), s, 3.0)
    assert ref.diverged and got.diverged
    assert got.stats.steps == ref.stats.steps == 11
    assert np.isnan(got.peak_max_norm) and np.isnan(ref.peak_max_norm)
    assert np.array_equal(got.times, ref.times)
    assert np.isnan(got.final_state).any() and np.isnan(ref.final_state).any()


def test_operator_and_b_must_match():
    op = mol.SineLaplacian(3, 0.5, (-1.0,))
    with pytest.raises(errors.InvalidParams, match="shapes differ"):
        LinearDDE(op, np.eye(4), 1.0, lambda t: np.ones(3))
    with pytest.raises(errors.InvalidParams):
        LinearDDE(op, np.full((3, 3), np.nan), 1.0, lambda t: np.ones(3))


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("u", [0.0, 0.5])
def test_one_step_blocks(monkeypatch, theta, u):
    # example2's states at M = 200 (317 KB) exceed BLOCK_BYTES, so each of
    # its blocks is one step; a 1-byte budget does the same at M = 16
    dde = mol.build_example2(16, 0.5, 3.0, 1.0).dde
    s = ThetaScheme(theta, u, 10, dde.tau)

    def run():
        g_calls, blocks = [], []
        op = copy.copy(dde.m_linear)
        op.from_modes = lambda w: blocks.append(1) or dde.m_linear.from_modes(w)
        prob = SemilinearDDE(op, lambda z: g_calls.append(1) or dde.g(z), dde.tau,
                             dde.history)
        _, traj = run_collected(solver.solve_semilinear, prob, s, 3.0)
        assert traj.stats.path == "modes" and not traj.diverged
        assert len(g_calls) == traj.stats.steps + int(theta < 1.0) == traj.stats.g_calls
        return traj, len(blocks)

    ref, ref_blocks = run()
    monkeypatch.setattr(solver, "BLOCK_BYTES", 1)
    got, got_blocks = run()
    span = s.m if u == 0.0 else s.m - 1
    assert ref_blocks == math.ceil(ref.stats.steps / span) and got_blocks == got.stats.steps
    assert np.array_equal(got.times, ref.times)
    assert np.max(np.abs(got.states - ref.states)) <= 1e-13 * np.max(np.abs(ref.states))


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_traced_peak_holds_one_ring(monkeypatch, theta):
    # one-step blocks, as example2 steps at M = 200: a run allocates its
    # m + 2 ring, no copy of it, and a few states' worth of scratch
    monkeypatch.setattr(solver, "BLOCK_BYTES", 1)
    dde = mol.build_example2(40, 0.5, 3.0, 1.0).dde
    s = ThetaScheme(theta, 0.0, 40, dde.tau)
    solver.solve_semilinear(dde, s, s.h)  # the sine transforms load and plan untraced
    tracemalloc.start()
    try:
        traj = solver.solve_semilinear(dde, s, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.stats.steps == 120 and not traj.diverged
    assert peak <= (s.m + 2 + 16) * dde.dim * 8
