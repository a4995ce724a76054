import numpy as np
import pytest
from scipy.optimize import linprog

from rlgames import minimax_lp
from rlgames.errors import InputError, SolverError
from rlgames.minimax_lp import solve_minimax_lp


def scipy_value(pieces, dim):
    """Same epigraph program, solved with the HiGHS reference solver."""
    K = len(pieces)
    # variables: z (dim entries), then t
    c = np.zeros(dim + 1)
    c[-1] = 1.0
    A_ub = np.zeros((K, dim + 1))
    b_ub = np.zeros(K)
    for k, (ck, ak) in enumerate(pieces):
        # t >= c_k - <a_k, z>   becomes   a_k . z + t >= c_k
        A_ub[k, :dim] = -np.asarray(ak)
        A_ub[k, -1] = -1.0
        b_ub[k] = -ck
    A_eq = np.zeros((1, dim + 1))
    A_eq[0, :dim] = 1.0
    b_eq = [1.0]
    bounds = [(0, None)] * dim + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.success
    return res.fun


def grid_value(pieces, dim, resolution=40):
    """Brute minimum of the piecewise max over a simplex lattice."""
    cs = np.array([c for c, _ in pieces])
    mat = np.array([a for _, a in pieces])
    ticks = np.arange(resolution + 1)
    if dim == 2:
        zs = np.stack([ticks, resolution - ticks], axis=1) / resolution
    else:
        pts = [
            (i, j, resolution - i - j)
            for i in range(resolution + 1)
            for j in range(resolution + 1 - i)
        ]
        zs = np.array(pts) / resolution
    vals = cs[None, :] - zs @ mat.T
    return float(vals.max(axis=1).min())


def random_pieces(rng, K, dim, scale=2.0):
    return [
        (float(rng.uniform(-scale, scale)), rng.uniform(-scale, scale, dim))
        for _ in range(K)
    ]


def test_single_constant_piece():
    value, z = solve_minimax_lp([(0.75, np.zeros(3))], 3)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert z.sum() == pytest.approx(1.0, abs=1e-12)
    assert (z >= -1e-12).all()


def test_two_symmetric_pieces_balance():
    # max(z0 - z1, z1 - z0) is minimized at the even split
    pieces = [(0.0, np.array([-1.0, 1.0])), (0.0, np.array([1.0, -1.0]))]
    value, z = solve_minimax_lp(pieces, 2)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(z, [0.5, 0.5], atol=1e-9)


def test_single_affine_piece_maximizes_slope_coordinate():
    # min_z (-1 - (0.5 z0 + 0.25 z1)) puts all mass on the larger slope
    pieces = [(-1.0, np.array([0.5, 0.25]))]
    value, z = solve_minimax_lp(pieces, 2)
    assert value == pytest.approx(-1.5, abs=1e-12)
    assert z[0] == pytest.approx(1.0, abs=1e-9)


def integer_pieces(rng, K, dim):
    """Offsets and slopes in {-2, ..., 2}: many exact ties and degenerate pivots."""
    return [(float(rng.integers(-2, 3)), rng.integers(-2, 3, dim).astype(float))
            for _ in range(K)]


def reference_instances():
    rng = np.random.default_rng(42)
    for make in (random_pieces, integer_pieces):
        for trial in range(300):
            dim = int(rng.integers(2, 6))
            K = int(rng.integers(1, 8))
            yield f"{make.__name__} {trial}", make(rng, K, dim), dim


def test_agrees_with_reference_solver_on_random_instances():
    for label, pieces, dim in reference_instances():
        value, z = solve_minimax_lp(pieces, dim)
        want = scipy_value(pieces, dim)
        assert value == pytest.approx(want, abs=1e-8), label
        assert z.sum() == pytest.approx(1.0, abs=1e-9)
        assert (z >= -1e-12).all()
        # the returned witness attains the reported value
        attained = max(c - float(np.dot(a, z)) for c, a in pieces)
        assert attained == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_value_scales_with_the_pieces(scale):
    for label, pieces, dim in reference_instances():
        value, _ = solve_minimax_lp(pieces, dim)
        scaled, _ = solve_minimax_lp([(scale * c, scale * a) for c, a in pieces], dim)
        assert abs(scaled - scale * value) <= 1e-12 * scale, label


def test_pivot_limit_names_the_problem(monkeypatch):
    monkeypatch.setattr(minimax_lp, "_MAX_PIVOTS", 0)
    pieces = [(0.0, np.array([-1.0, 1.0])), (0.0, np.array([1.0, -1.0]))]
    with pytest.raises(SolverError, match=r"^pivot limit exceeded after 0 pivots "
                                          r"\(2 pieces, dim 2\)$"):
        solve_minimax_lp(pieces, 2)


def test_value_matches_simplex_grid_scan():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(2, 4))
        pieces = random_pieces(rng, int(rng.integers(2, 6)), dim)
        value, _ = solve_minimax_lp(pieces, dim)
        resolution = 4000 if dim == 2 else 300
        coarse = grid_value(pieces, dim, resolution)
        # the lattice minimum can only overshoot the true minimum, and by
        # at most the largest slope times the lattice displacement
        slack = max(np.abs(a).max() for _, a in pieces) * dim / resolution
        assert value <= coarse + 1e-9
        assert value >= coarse - slack


def test_degenerate_duplicate_pieces_terminate():
    piece = (0.3, np.array([1.0, 1.0, 1.0]))
    pieces = [piece] * 6
    value, z = solve_minimax_lp(pieces, 3)
    # the slope term is 1 on the whole simplex, so the value is 0.3 - 1
    assert value == pytest.approx(-0.7, abs=1e-12)
    assert z.sum() == pytest.approx(1.0, abs=1e-12)


def test_phase1_ends_at_a_round_off_ray():
    # slopes six orders of magnitude apart: an epigraph tableau pivots on the
    # tiny one at a degenerate ratio tie, and round-off can then leave an
    # entering column with no positive entry; the game form's entries are
    # exactly 2 and 1
    pieces = [(0, [2.9949209556789924e-07]), (0, [0.9512519850663219])]
    value, z = solve_minimax_lp(pieces, 1)
    assert value == pytest.approx(-2.9949209556789924e-07, rel=1e-9)
    assert z.tolist() == [1.0]


def test_input_validation():
    with pytest.raises(InputError):
        solve_minimax_lp([], 2)
    with pytest.raises(InputError):
        solve_minimax_lp([(0.0, np.zeros(3))], 2)  # slope length mismatch
    with pytest.raises(InputError):
        solve_minimax_lp([(np.nan, np.zeros(2))], 2)
    with pytest.raises(InputError):
        solve_minimax_lp([(0.0, np.zeros(2))], 0)
