"""Shared generators, planar-geometry helpers and test-side references
for the test suite."""

import dataclasses
import json

import numpy as np
import pytest

from ddestab.solver import solve_linear
from ddestab.stability import ThetaScheme


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(gen, n, scale=1.0):
    return scale * (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))


def random_hermitian(gen, n, scale=1.0):
    a = random_complex(gen, n, scale)
    return 0.5 * (a + a.conj().T)


def random_spd(gen, n, eig_low=0.5, eig_high=3.0):
    """Hermitian matrix with eigenvalues drawn from [eig_low, eig_high]."""
    q, _ = np.linalg.qr(random_complex(gen, n))
    vals = gen.uniform(eig_low, eig_high, size=n)
    return (q * vals[None, :]) @ q.conj().T


def random_unit_vector(gen, n):
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return v / np.linalg.norm(v)


def convex_hull(points):
    """Convex hull of complex points, counterclockwise, degenerate-safe.

    Returns 1 point for a coincident cloud, 2 for a collinear one, else
    the CCW vertex cycle (no vertex repeated).
    """
    pts = np.unique(np.asarray(points, dtype=complex))
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    if pts.size <= 2:
        return pts

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1], dtype=complex)
    if hull.size == 0:  # fully collinear cloud
        return np.array([pts[0], pts[-1]], dtype=complex)
    return hull


def _point_segment_distance(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def hull_margin(hull, z):
    """Signed inwards distance from ``z`` to a CCW convex polygon with at
    least three vertices: positive strictly inside, negative outside."""
    h = np.asarray(hull, dtype=complex)
    margin = np.inf
    for k in range(h.size):
        a = h[k]
        ab = h[(k + 1) % h.size] - a
        # CCW polygon: positive cross product = z on the inner side of edge
        signed = (ab.real * (z.imag - a.imag) - ab.imag * (z.real - a.real)) / abs(ab)
        margin = min(margin, signed)
    return float(margin)


def random_normal_matrix(gen, n=5, min_gap=0.35):
    """Normal matrix whose spectrum has well-separated hull vertices, so a
    256-direction sweep cannot miss one (narrow normal cones rejected)."""
    while True:
        angles = np.sort(gen.uniform(0.0, 2.0 * np.pi, size=n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if np.min(gaps) < min_gap:
            continue
        radii = gen.uniform(0.5, 1.0, size=n)
        spectrum = radii * np.exp(1j * angles)
        hull = convex_hull(spectrum)
        if len(hull) == n and _min_turn_angle(hull) > 0.1:
            break
    q, _ = np.linalg.qr(random_complex(gen, n))
    return (q * spectrum[None, :]) @ q.conj().T, spectrum


def _min_turn_angle(hull):
    h = np.asarray(hull)
    turns = []
    for k in range(len(h)):
        a, b, c = h[k - 1], h[k], h[(k + 1) % len(h)]
        turns.append(abs(np.angle((c - b) / (b - a))))
    return min(turns)


def point_polygon_distance(hull, z):
    """Exact distance from z to a convex hull (0 if inside or on it)."""
    h = np.asarray(hull, dtype=complex)
    if h.size == 1:
        return abs(z - h[0])
    if h.size == 2:
        return _point_segment_distance(z, h[0], h[1])
    if hull_margin(h, z) >= 0.0:
        return 0.0
    return min(_point_segment_distance(z, h[k], h[(k + 1) % len(h)])
               for k in range(len(h)))


def hausdorff_distance(points_a, points_b):
    """Hausdorff distance between the convex hulls of two point sets
    (vertex-based, exact for convex polygons)."""
    ha, hb = convex_hull(points_a), convex_hull(points_b)
    d_ab = max(point_polygon_distance(hb, z) for z in ha)
    d_ba = max(point_polygon_distance(ha, z) for z in hb)
    return max(d_ab, d_ba)


def multiset_distance(xs, ys):
    """Max pairing error between two equally sized complex multisets under
    the optimal assignment."""
    from scipy.optimize import linear_sum_assignment

    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    assert xs.shape == ys.shape
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def write_matrix(path, matrix):
    """Write ``matrix`` in the JSON matrix-file format ``cli.read_matrix``
    reads: {"rows": n, "cols": n, "entries": [[re, im], ...]}."""
    a = np.asarray(matrix, dtype=complex)
    doc = {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(v.real), float(v.imag)] for v in a.ravel()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def observed_order(prob, exact, theta, m_list, t_end):
    """Least-squares slope of log error versus log h over an m refinement
    (u = 0); the error is the 2-norm of the state at the final grid time
    against ``exact``."""
    hs, errs = [], []
    for m in m_list:
        scheme = ThetaScheme(theta=theta, u=0.0, m=m, tau=prob.tau)
        traj = solve_linear(prob, scheme, t_end)
        errs.append(np.linalg.norm(traj.final_state - exact(traj.final_time)))
        hs.append(scheme.h)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def run_collected(run, prob, scheme, t_end, on_block=None):
    """``run(prob, scheme, t_end)``, for ``run`` ``solve_linear`` or
    ``solve_semilinear``, with a copy taken of every block it streams.
    Returns the run's trajectory (its last m + 2 states) and the same
    trajectory holding every state from t = 0 to the end of the run.
    ``on_block``, if given, is handed each block as well."""
    times, states = [], []

    def collect(t, z):
        times.append(t.copy())
        states.append(z.copy())
        if on_block is not None:
            on_block(t, z)

    window = run(prob, scheme, t_end, on_block=collect)
    return window, dataclasses.replace(window, times=np.concatenate(times),
                                       states=np.concatenate(states))
