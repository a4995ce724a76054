import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from rlgames import (
    DeviationVector,
    Face,
    InputError,
    ResourceLimitError,
    builtin_game,
    check_face,
    club_margin,
    deviation_vectors,
    distance_to_face,
    enumerate_clubs,
    enumerate_pure_nash,
    face_from_lists,
    face_margins,
    is_club,
    is_curb,
    is_resilient,
    minimal_clubs,
    pure_profile,
    random_game,
    singleton_face,
)
from rlgames.builtin import BUILTIN_GAMES
from rlgames.faces import MAX_FACES, _resilience_unchecked
from rlgames.game import Game, make_game, payoff_mixed, payoff_pure, payoff_vector
from rlgames.minimax_lp import solve_minimax_lp


@pytest.fixture(scope="module")
def vz():
    return builtin_game("vz4x4")


SQUARE = [[0, 2], [0, 2]]


# ---------------------------------------------------------------------------
# Face construction and helpers


def test_face_canonicalizes_sorted():
    f = Face(supports=((2, 0), (1,)))
    assert f.supports == ((0, 2), (1,))
    assert f.n_players == 2
    assert f.size() == 3


def test_face_rejects_empty_support():
    with pytest.raises(InputError):
        Face(supports=((0,), ()))


def test_face_rejects_duplicate_action():
    with pytest.raises(InputError):
        Face(supports=((0, 0), (1,)))


def test_check_face_validates_against_game(vz):
    with pytest.raises(InputError):
        check_face(vz, face_from_lists([[0]]))  # wrong player count
    with pytest.raises(InputError):
        check_face(vz, face_from_lists([[0], [4]]))  # action out of range
    ok = check_face(vz, face_from_lists(SQUARE))
    assert ok.supports == ((0, 2), (0, 2))


def test_check_face_rejects_a_negative_action(vz):
    # numpy would read -1 as the last action, so {-1}x{0} would stand for {3}x{0}
    face = face_from_lists([[-1], [0]])
    for call in (lambda: check_face(vz, face),
                 lambda: club_margin(vz, face),
                 lambda: distance_to_face(vz, pure_profile(vz, (3, 0)), face)):
        with pytest.raises(InputError, match="player 0 mentions action -1"):
            call()


def test_face_containment():
    big = face_from_lists(SQUARE)
    small = face_from_lists([[0], [2]])
    assert big.contains(small)
    assert not small.contains(big)
    assert big.contains(big)
    with pytest.raises(InputError):
        big.contains(face_from_lists([[0], [0], [0]]))


def test_singleton_and_full_helpers(vz):
    assert singleton_face(vz, (3, 1)).supports == ((3,), (1,))
    assert face_from_lists([range(4)] * 2).supports == ((0, 1, 2, 3), (0, 1, 2, 3))
    with pytest.raises(InputError):
        singleton_face(vz, (0, 7))


# ---------------------------------------------------------------------------
# geometry


def test_distance_counts_mass_outside(vz):
    face = face_from_lists(SQUARE)
    assert distance_to_face(vz, [np.full(4, 0.25)] * 2, face) == pytest.approx(1.0)
    assert distance_to_face(vz, pure_profile(vz, (0, 2)), face) == 0.0
    assert distance_to_face(vz, pure_profile(vz, (1, 1)), face) == pytest.approx(2.0)
    xs = [np.array([0.7, 0.3, 0.0, 0.0])] * 2
    assert distance_to_face(vz, xs, face) == pytest.approx(0.6)


def test_deviation_vectors_order_and_count(vz):
    face = face_from_lists(SQUARE)
    devs = deviation_vectors(vz, face)
    assert devs == [
        DeviationVector(0, 0, 1), DeviationVector(0, 0, 3),
        DeviationVector(0, 2, 1), DeviationVector(0, 2, 3),
        DeviationVector(1, 0, 1), DeviationVector(1, 0, 3),
        DeviationVector(1, 2, 1), DeviationVector(1, 2, 3),
    ]
    assert deviation_vectors(vz, face_from_lists([range(4)] * 2)) == []


# ---------------------------------------------------------------------------
# clubs


def test_club_margins_on_known_faces(vz):
    assert club_margin(vz, singleton_face(vz, (0, 0))) == pytest.approx(1 / 3)
    assert club_margin(vz, face_from_lists(SQUARE)) == pytest.approx(-2 / 3)
    assert club_margin(vz, face_from_lists([range(4)] * 2)) == np.inf
    assert is_club(vz, face_from_lists([range(4)] * 2))
    assert not is_club(vz, face_from_lists(SQUARE))


def test_face_margins_index_faces_by_support_bitmask(vz):
    margins = face_margins(vz)
    assert margins.shape == (15, 15)
    # {2} is mask 0b100, {0, 2} is 0b101, the full support 0b1111
    assert margins[3, 3] == club_margin(vz, singleton_face(vz, (2, 2)))
    assert margins[4, 4] == club_margin(vz, face_from_lists(SQUARE))
    assert margins[14, 14] == np.inf


def test_vz_club_census(vz):
    clubs = enumerate_clubs(vz)
    assert len(clubs) == 9
    mins = minimal_clubs(vz)
    assert [f.supports for f in mins] == [((0,), (0,)), ((2,), (2,))]
    # census is sorted by size then supports, and every club contains a minimal one
    sizes = [f.size() for f in clubs]
    assert sizes == sorted(sizes)
    for f in clubs:
        assert any(f.contains(g) for g in mins)


def test_parity_minimal_clubs_sit_on_strict_equilibria():
    g = builtin_game("parity")
    mins = minimal_clubs(g)
    want = [tuple((a,) for a in prof) for prof in enumerate_pure_nash(g, strict_only=True)]
    assert [f.supports for f in mins] == want
    assert len(enumerate_clubs(g)) == 5  # the four singletons plus the full face


def test_spectator_minimal_clubs_keep_the_indifferent_player_whole():
    g = builtin_game("spectator")
    mins = minimal_clubs(g)
    assert [f.supports for f in mins] == [
        ((0,), (0,), (0, 1)),
        ((1,), (1,), (0, 1)),
    ]


def brute_is_club(game: Game, face: Face) -> bool:
    """Direct definition: outside actions strictly lose at every vertex."""
    for i in range(game.n_players):
        inside = face.supports[i]
        outside = [b for b in range(game.n_actions[i]) if b not in inside]
        opp = [face.supports[j] for j in range(game.n_players) if j != i]
        for vtx in itertools.product(*opp):
            for a in inside:
                prof_a = list(vtx[:i]) + [a] + list(vtx[i:])
                ua = payoff_pure(game, i, tuple(prof_a))
                for b in outside:
                    prof_b = list(vtx[:i]) + [b] + list(vtx[i:])
                    if payoff_pure(game, i, tuple(prof_b)) >= ua:
                        return False
    return True


def all_faces(game: Game):
    subsets = []
    for m in game.n_actions:
        subs = []
        for r in range(1, m + 1):
            subs.extend(itertools.combinations(range(m), r))
        subsets.append(subs)
    for combo in itertools.product(*subsets):
        yield Face(supports=combo)


def test_club_agrees_with_brute_definition_on_random_games():
    rng = np.random.default_rng(301)
    for _ in range(120):
        n = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 4)) for _ in range(n))
        game = random_game(rng, shape)
        for face in all_faces(game):
            assert is_club(game, face) == brute_is_club(game, face)


def _random_shapes(rng, count):
    """Shapes (2..4)^(2..3): two or three players, two to four actions each."""
    for _ in range(count):
        n = int(rng.integers(2, 4))
        yield tuple(int(rng.integers(2, 5)) for _ in range(n))


def _mask_index(face: Face):
    return tuple(sum(1 << a for a in s) - 1 for s in face.supports)


def test_face_margins_equal_club_margin_on_every_face():
    rng = np.random.default_rng(304)
    for shape in _random_shapes(rng, 40):
        game = random_game(rng, shape)
        margins = face_margins(game)
        assert margins.shape == tuple((1 << m) - 1 for m in shape)
        for face in all_faces(game):
            want = np.float64(club_margin(game, face))
            assert margins[_mask_index(face)].tobytes() == want.tobytes(), face


def test_enumerate_clubs_matches_brute_filter():
    rng = np.random.default_rng(302)
    shapes = [(3, 3)] * 20 + list(_random_shapes(rng, 20))
    for shape in shapes:
        game = random_game(rng, shape)
        want = [f.supports for f in all_faces(game) if brute_is_club(game, f)]
        got = [f.supports for f in enumerate_clubs(game)]
        assert got == sorted(want, key=lambda s: (sum(map(len, s)), s))


def test_zero_margin_faces_are_not_clubs():
    """Ties fail: the closedness test is strict, as the theorem is."""
    spectator = builtin_game("spectator")
    tie = face_from_lists([[0], [0], [0]])  # the spectator is indifferent
    assert face_margins(spectator)[_mask_index(tie)] == 0.0
    assert club_margin(spectator, tie) == 0.0
    assert not is_club(spectator, tie)
    assert tie.supports not in [f.supports for f in enumerate_clubs(spectator)]
    rng = np.random.default_rng(305)
    ties = 0
    for shape in _random_shapes(rng, 20):
        game = make_game([rng.integers(-1, 2, shape).astype(float) for _ in shape])
        margins = face_margins(game)
        clubs = {f.supports for f in enumerate_clubs(game)}
        for face in all_faces(game):
            margin = margins[_mask_index(face)]
            assert margin == club_margin(game, face)
            assert (face.supports in clubs) == (margin > 0.0) == brute_is_club(game, face)
            ties += margin == 0.0
    assert ties > 0


def test_club_is_invariant_under_positive_affine_rescaling():
    rng = np.random.default_rng(303)
    base = random_game(rng, (3, 2, 2))
    scaled = make_game([
        1.7 * (i + 1) * u + 0.4 * i - 2.0 for i, u in enumerate(base.payoffs)
    ])
    before = [f.supports for f in enumerate_clubs(base)]
    after = [f.supports for f in enumerate_clubs(scaled)]
    assert before == after


def test_enumerate_clubs_refuses_oversized_lattices():
    # 40 actions each: (2^40 - 1)^2 faces, refused before any table exists
    wide = make_game([np.zeros((40, 40)), np.zeros((40, 40))])
    tracemalloc.start()
    try:
        for call in (face_margins, enumerate_clubs, minimal_clubs):
            with pytest.raises(ResourceLimitError, match=f"more than {MAX_FACES} faces"):
                call(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 40 * 8


def test_enumerate_clubs_peaks_near_one_lattice_array():
    """A 9x9 lattice may hold a few faces-sized arrays, not one per action."""
    game = random_game(np.random.default_rng(306), (9, 9))
    faces = 511 * 511
    tracemalloc.start()
    try:
        enumerate_clubs(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * faces * 8


# ---------------------------------------------------------------------------
# curb


def test_curb_separates_from_club(vz):
    square = face_from_lists(SQUARE)
    assert is_curb(vz, square)          # best replies stay inside
    assert not is_club(vz, square)      # but a better reply leaves it
    assert not is_curb(vz, singleton_face(vz, (1, 1)))
    for prof in enumerate_pure_nash(vz, strict_only=True):
        assert is_curb(vz, singleton_face(vz, prof))


def test_every_club_is_curb():
    for name in sorted(BUILTIN_GAMES):
        game = builtin_game(name)
        for face in enumerate_clubs(game):
            assert is_curb(game, face), (name, face)


def _curb_per_point(game, face, resolution):
    """Best-reply closure checked one opposing grid mixture at a time."""
    for i in range(game.n_players):
        inside = list(face.supports[i])
        outside = [b for b in range(game.n_actions[i]) if b not in inside]
        if not outside:
            continue
        grids = []
        for j in range(game.n_players):
            sub = list(face.supports[j]) if j != i else [0]  # own strategy is ignored
            pts = []
            for counts in itertools.product(range(resolution + 1), repeat=len(sub)):
                if sum(counts) == resolution:
                    x = np.zeros(game.n_actions[j])
                    x[sub] = [c / resolution for c in counts]
                    pts.append(x)
            grids.append(pts)
        for xs in itertools.product(*grids):
            v = payoff_vector(game, i, list(xs))
            if v[outside].max() >= v[inside].max():
                return False
    return True


def _curb_oracle(game, face):
    """Two-player best-reply closure decided by HiGHS feasibility: the face
    fails when some opposing mixture lets an outside action weakly beat
    every inside one."""
    for i in range(2):
        opp = list(face.supports[1 - i])
        u = np.moveaxis(game.payoffs[i], i, 0)[:, opp]
        inside = list(face.supports[i])
        for b in range(game.n_actions[i]):
            if b in inside:
                continue
            res = linprog(np.zeros(len(opp)), A_ub=u[inside] - u[b],
                          b_ub=np.zeros(len(inside)), A_eq=np.ones((1, len(opp))),
                          b_eq=[1.0], bounds=(0, None), method="highs")
            assert res.status in (0, 2), res.message
            if res.status == 0:
                return False
    return True


def _uniform_game(seed, shape):
    return random_game(np.random.default_rng(seed), shape)


def _integer_game(seed, shape):
    """Payoffs in {-2, ..., 2}, so exact ties between actions are common."""
    rng = np.random.default_rng([5, seed])
    return make_game([rng.integers(-2, 3, shape) for _ in shape])


def _shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("make,seed,shape", [
    *(pytest.param(_uniform_game, seed, shape, id=f"seed{seed}-{_shape_id(shape)}")
      for seed, shape in [
          (275, (4, 4)),  # once made the LP report a phase-1 ray
          (6, (4, 4)),
          (11, (4, 4)),
          (3, (3, 5)),
          (4, (2, 3)),
      ]),
    # exact ties, which must fail however the LP rounds them
    *(pytest.param(_integer_game, seed, shape, id=f"int{seed}-{_shape_id(shape)}")
      for shape in [(3, 3), (4, 4), (2, 4), (3, 4)] for seed in range(10)),
])
def test_curb_matches_a_highs_oracle(make, seed, shape):
    game = make(seed, shape)
    for face in all_faces(game):
        assert is_curb(game, face) == _curb_oracle(game, face), face


def test_curb_rejects_a_face_the_grid_accepted():
    # against row mixtures near 0.26/0.74 on actions 2 and 3, between the
    # resolution-8 and -32 grid points, column action 1 is a best reply
    game = random_game(np.random.default_rng(6), (4, 4))
    face = face_from_lists([[2, 3], [2, 3]])
    assert not is_curb(game, face)
    assert not _curb_oracle(game, face)


def test_curb_is_sufficient_for_three_players():
    three = random_game(np.random.default_rng(32), (3, 3, 2))
    # the spectator's indifference makes ties, which must fail the test
    for game in (three, builtin_game("spectator")):
        accepted = [face for face in all_faces(game) if is_curb(game, face)]
        assert len(accepted) > 1  # more than the full face
        for face in accepted:
            assert _curb_per_point(game, face, 8), face


# ---------------------------------------------------------------------------
# resilience


def test_equilibrium_pair_is_resilient(vz):
    bb = pure_profile(vz, (1, 1))
    dd = pure_profile(vz, (3, 3))
    report = is_resilient(vz, [bb, dd])
    assert report.resilient
    assert report.gaps == pytest.approx((1 / 6, 1 / 6))
    for z in report.witnesses:
        assert z.sum() == pytest.approx(1.0)
        assert (z >= -1e-12).all()


def test_single_point_fails_with_pure_witness(vz):
    report = is_resilient(vz, [pure_profile(vz, (1, 1))])
    assert not report.resilient
    assert report.gaps == pytest.approx((-1 / 3, -1 / 3))
    for z in report.witnesses:
        assert np.allclose(z, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
    # a loose enough tolerance, as the limit-set audit passes, flips the verdict
    flat = np.concatenate(pure_profile(vz, (1, 1)))[None]
    assert _resilience_unchecked(vz, flat, 0.4).resilient


def test_resilience_validation(vz):
    with pytest.raises(InputError):
        is_resilient(vz, [])


def test_resilience_gaps_match_per_point_pieces(vz):
    rng = np.random.default_rng(31)
    three = random_game(rng, (3, 3, 2))
    for game in (vz, three):
        points = [[rng.dirichlet(np.ones(m)) for m in game.n_actions] for _ in range(5)]
        report = is_resilient(game, points)
        for i in range(game.n_players):
            pieces = [(payoff_mixed(game, i, xs), payoff_vector(game, i, xs)) for xs in points]
            value, _ = solve_minimax_lp(pieces, game.n_actions[i])
            assert abs(report.gaps[i] - value) <= 1e-12


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_resilience_gaps_scale_with_the_payoffs(scale):
    rng = np.random.default_rng(3)
    game = random_game(rng, (4, 4))
    points = [[rng.dirichlet(np.ones(m)) for m in game.n_actions] for _ in range(3)]
    gaps = is_resilient(game, points).gaps
    scaled = is_resilient(make_game([scale * t for t in game.payoffs]), points).gaps
    assert np.allclose(scaled, scale * np.array(gaps), rtol=0.0, atol=1e-12 * scale)


def test_strict_equilibrium_point_is_resilient(vz):
    report = is_resilient(vz, [pure_profile(vz, (0, 0))])
    assert report.resilient
    assert min(report.gaps) >= 0.0
