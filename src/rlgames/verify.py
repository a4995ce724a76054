"""Self-contained verification suite: eleven numbered checks (c01..c11).

Each check recomputes a documented quantity from scratch and compares it
against a frozen expectation with an explicit tolerance, printing one
PASS/FAIL line. Checks with sub-second budgets are timed on a warm second
pass so one-time allocator and import costs do not pollute the number;
long-running checks are timed cold. c10 audits the batches produced by
c08 and will compute them on demand when run in isolation.
"""

from __future__ import annotations

import itertools
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import RESILIENCE_TOL, energy_series, fit_rate
from .builtin import builtin_game, matching_pennies_2p
from .config import config_from_dict
from .errors import InputError
from .experiments import CONVERGENCE_THRESHOLD, execute_batch, run_batch, run_experiment
from .faces import (
    DeviationVector,
    check_face,
    face_from_lists,
    face_margins,
    is_club,
    minimal_clubs,
    singleton_face,
)
from .game import (
    deviation_gap,
    enumerate_pure_nash,
    payoff_bound,
    payoff_vector,
    random_game,
    strictly_dominated_pure,
)
from .learning import (
    Bandit,
    Full,
    MirrorProx,
    Optimistic,
    Schedule,
    derive_run_seed,
    iwe,
    lipschitz_estimate,
    perturbation_stream,
    run,
    sample_actions,
)
from .regularizers import choice_map, conjugate, kernel_from_name
from .trajectory import face_distances


@dataclass(frozen=True)
class Check:
    cid: str
    title: str
    budget: float | None  # seconds; a sub-second budget times a warm second pass
    fn: object


@dataclass
class CheckResult:
    """One check's verdict; a check that raised has its error in `measured`."""

    check: Check
    passed: bool
    measured: str
    tolerance: str
    runtime: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        budget = f"/{self.check.budget:g}s" if self.check.budget is not None else ""
        return (
            f"{self.check.cid}  {verdict}  {self.check.title}\n"
            f"      measured: {self.measured}\n"
            f"      tolerance: {self.tolerance}   runtime: {self.runtime:.3f}s{budget}"
        )


# ---------------------------------------------------------------------------
# individual checks: each returns (ok, measured, tolerance)


def _check_replay_gap(ctx):
    g = builtin_game("vz4x4")
    dist = np.zeros((4, 4))
    dist[1, 1] = 0.5
    dist[3, 3] = 0.5
    errs = [abs(float(deviation_gap(g, i, dist)) - (-1.0 / 6.0)) for i in range(2)]
    worst = max(errs)
    return worst < 1e-12, f"gap error {worst:.2e} (both players)", "|gap + 1/6| < 1e-12"


def _brute_strict_nash(game):
    found = set()
    for prof in itertools.product(*[range(m) for m in game.n_actions]):
        ok = True
        for i in range(game.n_players):
            u = game.payoffs[i]
            base = u[prof]
            for b in range(game.n_actions[i]):
                if b != prof[i] and not base > u[prof[:i] + (b,) + prof[i + 1 :]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(prof)
    return found


def _check_vz_structure(ctx):
    g = builtin_game("vz4x4")
    strict = set(enumerate_pure_nash(g, strict_only=True))
    brute = _brute_strict_nash(g)
    dominated = tuple(strictly_dominated_pure(g, i) for i in range(2))
    minimal = [f.supports for f in minimal_clubs(g)]
    square = check_face(g, face_from_lists([[0, 2], [0, 2]]))
    ok = (
        strict == {(0, 0), (2, 2)}
        and brute == strict
        and dominated == ((1, 3), (1, 3))
        and minimal == [(((0,), (0,))), (((2,), (2,)))]
        and not is_club(g, square)
    )
    measured = (
        f"strict NE {sorted(strict)}, dominated {dominated}, "
        f"{len(minimal)} minimal clubs, square face club={is_club(g, square)}"
    )
    return ok, measured, "exact set equality"


def _check_singleton_club_equivalence(ctx):
    rng = np.random.default_rng(202403)
    games = 0
    disagreements = 0
    for _ in range(1000):
        n_players = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(n_players))
        g = random_game(rng, shape)
        games += 1
        brute = _brute_strict_nash(g)
        margins = face_margins(g)
        for prof in itertools.product(*[range(m) for m in shape]):
            # the singleton {a} has bitmask 1 << a
            club = margins[tuple((1 << a) - 1 for a in prof)] > 0.0
            if club != (prof in brute):
                disagreements += 1
    return (
        disagreements == 0,
        f"{disagreements} disagreements across {games} games",
        "0 disagreements",
    )


# The kernels c04 checks: the named three and power kernels on both sides
# of rho = 1.
_MIRROR_KERNELS = (
    "euclidean", "logit", "tsallis", "power:0.3", "power:0.8", "power:1.5", "power:1.9",
)

# Strong convexity modulus K of h = sum_a theta(x_a), in the primal norm of
# the coupling inequalities. Logit (rho = 1): h is the negative entropy,
# 1-strongly convex in L1 on the simplex (Pinsker), with L-inf as the dual
# norm. Every other rho <= 2: theta'' = z^(rho - 2) >= 1 on (0, 1], so
# K = 1 in L2, its own dual.
_STRONG_CONVEXITY = 1.0


def _check_mirror_maps(ctx):
    rng = np.random.default_rng(704)
    worst = {"feas": 0.0, "shift": 0.0, "grad": 0.0, "lower": 0.0, "upper": 0.0}
    eps = 1e-6
    for name in _MIRROR_KERNELS:
        k = kernel_from_name(name)
        K = _STRONG_CONVEXITY
        prim, dual = (1, np.inf) if k.rho == 1.0 else (2, 2)
        for m in (2, 3, 4, 5):
            B = 2500
            y = rng.normal(0.0, 3.0, (B, m))
            x = choice_map(k, y)
            worst["feas"] = max(
                worst["feas"],
                float(np.abs(x.sum(axis=1) - 1.0).max()),
                float(max(0.0, -x.min())),
            )
            c = rng.normal(0.0, 2.0, (B, 1))
            worst["shift"] = max(
                worst["shift"], float(np.abs(choice_map(k, y + c) - x).max())
            )
            for j in range(m):
                e = np.zeros(m)
                e[j] = eps
                fd = (conjugate(k, y + e) - conjugate(k, y - e)) / (2 * eps)
                worst["grad"] = max(worst["grad"], float(np.abs(fd - x[:, j]).max()))
            # coupling F(p, y) = h(p) + h*(y) - <y, p>, computed rowwise
            p = rng.dirichlet(np.ones(m), size=B)
            h_p = k.theta(p).sum(axis=1)
            F = h_p + conjugate(k, y) - (y * p).sum(axis=1)
            gap_lower = 0.5 * K * np.linalg.norm(x - p, prim, axis=1) ** 2 - F
            worst["lower"] = max(worst["lower"], float(gap_lower.max()))
            d = rng.normal(0.0, 1.0, (B, m))
            F_moved = h_p + conjugate(k, y + d) - ((y + d) * p).sum(axis=1)
            upper = F + ((x - p) * d).sum(axis=1) + np.linalg.norm(d, dual, axis=1) ** 2 / (2 * K)
            worst["upper"] = max(worst["upper"], float((F_moved - upper).max()))
    ok = (
        worst["feas"] < 1e-12
        and worst["shift"] < 1e-10
        and worst["grad"] < 1e-5
        and worst["lower"] < 1e-9
        and worst["upper"] < 1e-9
    )
    measured = (
        f"feas {worst['feas']:.1e}, shift {worst['shift']:.1e}, "
        f"grad {worst['grad']:.1e}, coupling {worst['lower']:.1e}/{worst['upper']:.1e}"
    )
    return ok, measured, "1e-12 / 1e-10 / 1e-5 / 1e-9 / 1e-9"


def _check_iwe_unbiased(ctx):
    g = matching_pennies_2p()
    xhat = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    expected = [payoff_vector(g, i, xhat) for i in range(2)]

    enum = [np.zeros(2), np.zeros(2)]
    for a1 in range(2):
        for a2 in range(2):
            prob = xhat[0][a1] * xhat[1][a2]
            est = iwe(g, xhat, [a1, a2])
            for i in range(2):
                enum[i] += prob * est[i]
    enum_err = max(float(np.abs(e - v).max()) for e, v in zip(enum, expected))

    # the program's own sampler and estimator on 100 000 copies of xhat
    rng = np.random.default_rng(505)
    draws = 100_000
    tiled = [np.tile(x, (draws, 1)) for x in xhat]
    acts = sample_actions(tiled, rng.random((draws, 2)))
    ok_mc = True
    mc_stats = []
    for samples, v in zip(iwe(g, tiled, acts), expected):
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        z = np.abs(mean - v) / se
        mc_stats.append(float(z.max()))
        ok_mc &= bool((z <= 3.0).all())
    return (
        enum_err < 1e-12 and ok_mc,
        f"enumeration error {enum_err:.1e}, MC max |z| {max(mc_stats):.2f}",
        "1e-12 exact; 3 standard errors",
    )


def _check_feedback_envelopes(ctx):
    results = []
    ok = True
    sched = Schedule(0.2, 0.5)
    for game_name, fb in (("vz4x4", Optimistic()), ("vz4x4", MirrorProx())):
        g = builtin_game(game_name)
        k = kernel_from_name("logit")
        L = lipschitz_estimate(g)
        V = payoff_bound(g)
        K = _STRONG_CONVEXITY
        traj = run(g, k, fb, sched, 2000, seed=6)
        bound = (3.0 * L * V / K) * traj.gamma
        ratio = float((np.abs(traj.bias).max(axis=1) / bound).max())
        ok &= ratio <= 1.0
        results.append(f"{fb.label} bias ratio {ratio:.2e}")
    for game_name in ("parity", "vz4x4"):
        g = builtin_game(game_name)
        k = kernel_from_name("logit")
        V = payoff_bound(g)
        fb = Bandit(exploration=Schedule(0.1, 0.15))
        traj = run(g, k, fb, sched, 2000, seed=6)
        n = traj.n.astype(float)
        delta = 0.1 / n**0.15
        bound = V * max(g.n_actions) / delta
        ratio = float((np.abs(traj.vhat).max(axis=1) / bound).max())
        ok &= ratio <= 1.0
        results.append(f"bandit({game_name}) payoff ratio {ratio:.3f}")
    return ok, "; ".join(results), "every step ratio <= 1"


def _check_rate_laws(ctx):
    g = builtin_game("parity")
    face = singleton_face(g, (0, 0, 0))
    y0 = [np.array([1.0, -1.0])] * 3
    parts = []

    k = kernel_from_name("euclidean")
    y0_interior = [np.array([0.2, -0.2])] * 3  # projects to (0.7, 0.3): off the face
    traj = run(g, k, Full(), Schedule(0.2, 0.0), 600, y0=y0_interior, seed=3)
    fit_a = fit_rate(traj, face)
    ok = fit_a.model == "finite_hit" and fit_a.hit_index is not None
    ok &= fit_a.hit_index <= 500
    dist = face_distances(traj, face)
    ok &= dist[0] > 0.0 and bool((dist[fit_a.hit_index - 1 :] == 0.0).all())
    parts.append(f"euclidean hit at n={fit_a.hit_index} (exact zeros onward)")

    k = kernel_from_name("logit")
    traj = run(g, k, Full(), Schedule(0.2, 0.5), 6000, y0=y0, seed=3)
    fit_b = fit_rate(traj, face)
    ok &= fit_b.r_squared > 0.99 and fit_b.slope < 0.0
    parts.append(f"logit slope {fit_b.slope:.3f} R2 {fit_b.r_squared:.5f}")

    k = kernel_from_name("tsallis")
    traj = run(g, k, Full(), Schedule(0.2, 0.5), 30_000, y0=y0, seed=3)
    fit_c = fit_rate(traj, face, atol=5e-4, window=0.1)
    ok &= abs(fit_c.slope + 2.0) <= 0.2
    parts.append(f"tsallis slope {fit_c.slope:.3f} (shift {fit_c.shift:.2f})")

    return (
        ok,
        "; ".join(parts),
        "hit <= 500; R2 > 0.99 with slope < 0; slope within -2 +/- 0.2",
    )


def _bandit_grid_config(game: str) -> dict:
    return {
        "game": game,
        "kernel": "logit",
        "feedback": "bandit",
        "exploration": {"base": 0.1, "exponent": 0.15},
        "step": {"base": 0.2, "exponent": 0.5},
        "horizon": 10_000,
        "seed": 123,
        "init": {"kind": "grid"},
        "faces": "auto:minimal_clubs",
    }


def _ensure_batches(ctx):
    if "batches" not in ctx:
        batches = {}
        for game in ("parity", "vz4x4"):
            config = config_from_dict(_bandit_grid_config(game))
            _, aggregate = execute_batch(config)
            batches[game] = aggregate
        ctx["batches"] = batches
    return ctx["batches"]


def _check_bandit_grid(ctx):
    batches = _ensure_batches(ctx)
    converged = sum(a["converged_runs"] for a in batches.values())
    total = sum(a["runs"] for a in batches.values())
    fraction = converged / total
    detail = ", ".join(
        f"{game} {a['converged_runs']}/{a['runs']}" for game, a in batches.items()
    )
    return (
        fraction >= 0.9,
        f"{converged}/{total} runs within {CONVERGENCE_THRESHOLD} of a minimal club "
        f"({detail})",
        ">= 90% of runs",
    )


def _check_nonclub_escape(ctx):
    g = builtin_game("vz4x4")
    face = check_face(g, face_from_lists([[0, 2], [0, 2]]))
    assert not is_club(g, face)
    # the club test fails for player 0 through inside action 2 vs outside 1
    zeta = DeviationVector(player=0, inside=2, outside=1)
    k = kernel_from_name("logit")
    base = [np.array([-6.0, -0.5, 3.0, -6.0]), np.array([30.0, -1.0, 0.0, -1.0])]
    escapes = 0
    energy_ok = 0
    for s in range(10):
        seed = derive_run_seed(77, s)
        stream = perturbation_stream(seed)
        y0 = [y + stream.uniform(-0.1, 0.1, 4) for y in base]
        traj = run(g, k, Full(), Schedule(0.2, 0.5), 10_000, y0=y0, seed=seed)
        d = face_distances(traj, face)
        E = energy_series(traj, zeta)
        if d[0] < 0.05 and d.max() > 0.05:
            escapes += 1
        if E[-1] > E[0] and E.min() > E[0] - 1.0:
            energy_ok += 1
    return (
        escapes == 10 and energy_ok == 10,
        f"{escapes}/10 seeds escape the 0.05 neighborhood, "
        f"{energy_ok}/10 witness energies never head to -inf",
        "10/10 on both",
    )


def _check_batch_resilience(ctx):
    batches = _ensure_batches(ctx)
    resilient = sum(
        sum(r["resilient"] for r in a["per_run"]) for a in batches.values()
    )
    total = sum(a["runs"] for a in batches.values())
    return (
        resilient == total,
        f"{resilient}/{total} run limit sets resilient at tol {RESILIENCE_TOL}",
        "every run",
    )


def _check_determinism(ctx):
    single = {
        "game": "parity",
        "kernel": "logit",
        "feedback": "bandit",
        "exploration": {"base": 0.1, "exponent": 0.15},
        "step": {"base": 0.2, "exponent": 0.5},
        "horizon": 500,
        "seed": 9,
        "init": {"kind": "explicit", "scores": [[0.5, -0.5], [0.0, 0.0], [-1.0, 1.0]]},
    }
    batch = dict(single)
    batch["init"] = {"kind": "grid"}

    def read_all(folder):
        return {
            p.name: p.read_bytes() for p in sorted(Path(folder).glob("*.csv"))
        }

    with tempfile.TemporaryDirectory() as tmp:
        cfg = config_from_dict(single)
        run_experiment(cfg, out_dir=Path(tmp) / "a")
        run_experiment(cfg, out_dir=Path(tmp) / "b")
        first = (Path(tmp) / "a" / "trajectory.csv").read_bytes()
        second = (Path(tmp) / "b" / "trajectory.csv").read_bytes()
        single_ok = first == second

        cfg_b = config_from_dict(batch)
        run_batch(cfg_b, out_dir=Path(tmp) / "first")
        run_batch(cfg_b, out_dir=Path(tmp) / "second")
        csv_a = read_all(Path(tmp) / "first")
        csv_b = read_all(Path(tmp) / "second")
        agg_a = (Path(tmp) / "first" / "aggregate.json").read_bytes()
        agg_b = (Path(tmp) / "second" / "aggregate.json").read_bytes()
        batch_ok = csv_a == csv_b and len(csv_a) == 27 and agg_a == agg_b
    return (
        single_ok and batch_ok,
        f"single rerun identical: {single_ok}; "
        f"27-run batch rerun identical: {batch_ok}",
        "byte-identical CSV and aggregate",
    )


# ---------------------------------------------------------------------------
# registry and driver


CHECKS = (
    Check("c01", "correlated replay gap on vz4x4 equals -1/6", 0.001,
          _check_replay_gap),
    Check("c02", "vz4x4 equilibrium and club structure", 0.010,
          _check_vz_structure),
    Check("c03", "strict equilibria match singleton clubs on random games", 5.0,
          _check_singleton_club_equivalence),
    Check("c04", "choice maps, conjugates, and coupling inequalities", 10.0,
          _check_mirror_maps),
    Check("c05", "importance-weighted estimator is unbiased", 2.0,
          _check_iwe_unbiased),
    Check("c06", "bias and payoff estimates stay inside their envelopes", 5.0,
          _check_feedback_envelopes),
    Check("c07", "distance decay laws per kernel family", 30.0,
          _check_rate_laws),
    Check("c08", "bandit grid batches settle on minimal clubs", 120.0,
          _check_bandit_grid),
    Check("c09", "non-club face escapes and keeps its witness energy", None,
          _check_nonclub_escape),
    Check("c10", "batch limit sets pass the resilience audit", None,
          _check_batch_resilience),
    Check("c11", "reruns are byte-identical", 10.0,
          _check_determinism),
)


def list_checks() -> list[tuple[str, str]]:
    return [(c.cid, c.title) for c in CHECKS]


def run_check(check: Check, ctx: dict) -> CheckResult:
    try:
        if check.budget is not None and check.budget < 1.0:
            check.fn(ctx)
        start = time.perf_counter()
        ok, measured, tolerance = check.fn(ctx)
        elapsed = time.perf_counter() - start
        if check.budget is not None and elapsed > check.budget:
            ok = False
            measured += f" [over budget: {elapsed:.3f}s > {check.budget:g}s]"
        return CheckResult(check, bool(ok), measured, tolerance, elapsed)
    except Exception as exc:  # a crash is a failed check, not a crashed suite
        return CheckResult(check, False, f"{type(exc).__name__}: {exc}", "", 0.0)


def run_suite(filter_ids=None, printer=print) -> list[CheckResult]:
    """Run all (or the selected) checks, printing one verdict line each."""
    wanted = set(filter_ids) if filter_ids else None
    if wanted is not None:
        known = {c.cid for c in CHECKS}
        bad = wanted - known
        if bad:
            raise InputError(f"unknown check ids {sorted(bad)}")
    ctx: dict = {}
    results = []
    for check in CHECKS:
        if wanted is not None and check.cid not in wanted:
            continue
        result = run_check(check, ctx)
        results.append(result)
        printer(result.line())
    if results:
        n_pass = sum(r.passed for r in results)
        printer(f"{n_pass}/{len(results)} checks passed")
    return results
