"""Correctness checks, written from the definitions and independent of rlgames.

Each check reads what one operation of a workload wrote (CSV files, JSON
reports) and returns a list of problems; an empty list means the output is
correct. Nothing here imports the program: games are rebuilt from their
definitions or from the benchmark's own game files, and every quantity is
recomputed with numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0
CONVERGENCE = 0.05  # c08: a run converges when it ends within 0.05 of a minimal club
GRID_RUNS = 27  # the default grid init: 3 values on 3 score coordinates


# ---------------------------------------------------------------------------
# games


def _from_flat_222(*flats):
    return [np.asarray(f, dtype=float).reshape(2, 2, 2) for f in flats]


def builtin_payoffs(name: str) -> list[np.ndarray]:
    """The bundled games, rebuilt from their definitions."""
    if name == "parity":  # each player earns 1 when the action sum is even
        even = np.fromfunction(lambda a, b, c: (a + b + c + 1) % 2, (2, 2, 2))
        return [even, even, even]
    if name == "spectator":  # players 1 and 2 earn 1 by matching
        match = np.fromfunction(lambda a, b, c: (a == b) * 1.0, (2, 2, 2))
        return [match, match, np.zeros((2, 2, 2))]
    if name == "twisted_mp":
        flat = np.fromfunction(lambda a, b, c: 0.1 * a, (2, 2, 2))
        even = np.fromfunction(lambda a, b, c: (a + b + c + 1) % 2, (2, 2, 2))
        return [flat, even, 1.0 - even]
    if name == "outside_mp":
        return _from_flat_222([-1, 1, -1, 1, 1, -1, 1, -1],
                              [1, 1, -1, -1, -1, 1, 1, -1],
                              [1, -1, -1, 1, -1, 1, 1, -1])
    if name == "matching_pennies_2p":
        u = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return [u, -u]
    if name == "vz4x4":  # actions 1 and 3 pay 1/3 less than 0 and 2
        rows = np.array([[1.0, 1.0, 0.0, 0.0],
                         [TWO_THIRDS, TWO_THIRDS, -THIRD, -THIRD],
                         [0.0, 0.0, 1.0, 1.0],
                         [-THIRD, -THIRD, TWO_THIRDS, TWO_THIRDS]])
        return [rows, rows.T.copy()]
    raise ValueError(f"no definition for builtin game {name!r}")


def game_payoffs(spec: str) -> list[np.ndarray]:
    """Payoff tensors of a builtin name or of a benchmark game file."""
    path = Path(spec)
    if not path.is_file():
        return builtin_payoffs(spec)
    doc = json.loads(path.read_text())
    return [np.asarray(t, dtype=float).reshape(doc["actions"]) for t in doc["payoffs"]]


def payoff_vectors(U, xs) -> list[np.ndarray]:
    """v_i[t, a] = sum over opponents' actions of u_i(a, .) times their
    probabilities, for (T, m_j) strategy rows xs[j]."""
    letters = "abcdefgh"[: len(U)]
    out = []
    for i, u in enumerate(U):
        opp = [j for j in range(len(U)) if j != i]
        spec = letters + "," + ",".join("z" + letters[j] for j in opp) + "->z" + letters[i]
        out.append(np.einsum(spec, u, *(xs[j] for j in opp)))
    return out


# ---------------------------------------------------------------------------
# faces and clubs


def face_key(supports) -> str:
    return "x".join("{" + ",".join(str(a) for a in s) + "}" for s in supports)


def parse_face_key(key: str) -> tuple:
    return tuple(tuple(int(a) for a in part.strip("{}").split(",")) for part in key.split("x"))


def _subsets(m: int) -> list[tuple[int, ...]]:
    return [tuple(a for a in range(m) if mask >> a & 1) for mask in range(1, 1 << m)]


def face_margins(U):
    """Club margin of every face, as an array over per-player subset indices.

    The margin of a face is the least u_i(a, s) - u_i(b, s) over players i,
    inside actions a, outside actions b and pure opposing profiles s inside
    the face; the face is a club exactly when the margin is positive. For
    each s the least difference is min_a u_i(a, s) - max_b u_i(b, s).
    """
    shape = U[0].shape
    subsets = [_subsets(m) for m in shape]
    masks = [np.array([[a in s for a in range(m)] for s in subs])
             for m, subs in zip(shape, subsets)]
    total = np.full([len(s) for s in subsets], np.inf)
    for i, u in enumerate(U):
        moved = np.moveaxis(u, i, 0).reshape(shape[i], -1)  # (m_i, opponent profiles)
        inside = masks[i][:, :, None]
        opp = [j for j in range(len(U)) if j != i]
        margins_i = np.empty([len(subsets[i])] + [len(subsets[j]) for j in opp])
        for combo in itertools.product(*(range(len(subsets[j])) for j in opp)):
            # opposing profiles inside the face, as columns of `moved`
            mask = np.ones([shape[j] for j in opp], dtype=bool)
            for axis, (j, k) in enumerate(zip(opp, combo)):
                keep = masks[j][k].reshape([-1 if a == axis else 1 for a in range(len(opp))])
                mask = mask & keep
            cols = moved[:, mask.ravel()]
            worst_in = np.where(inside, cols[None], np.inf).min(axis=1)
            best_out = np.where(inside, -np.inf, cols[None]).max(axis=1)
            margins_i[(slice(None),) + combo] = (worst_in - best_out).min(axis=1)
        total = np.minimum(total, np.moveaxis(margins_i, 0, i))
    return subsets, total


def clubs(U) -> list[tuple[tuple, float]]:
    """Every club with its margin, sorted by total support size, then supports."""
    subsets, margins = face_margins(U)
    found = []
    for index in zip(*np.nonzero(margins > 0)):
        supports = tuple(subsets[i][k] for i, k in enumerate(index))
        found.append((supports, float(margins[index])))
    found.sort(key=lambda c: (sum(len(s) for s in c[0]), c[0]))
    return found


def _contains(big, small) -> bool:
    return all(set(s) <= set(b) for b, s in zip(big, small))


def minimal(faces) -> list[tuple]:
    """The faces of a club list that contain no other club of it."""
    return [f for f in faces if not any(g != f and _contains(f, g) for g in faces)]


def minimal_clubs(U) -> list[tuple]:
    return minimal([f for f, _ in clubs(U)])


def pure_nash(U, strict: bool, tol: float = 1e-9) -> list[list[int]]:
    """Pure profiles where no player gains by deviating (strict: every
    deviation loses outright)."""
    out = []
    for p in itertools.product(*(range(m) for m in U[0].shape)):
        ok = True
        for i, u in enumerate(U):
            here = u[p]
            for b in range(u.shape[i]):
                if b == p[i]:
                    continue
                there = u[p[:i] + (b,) + p[i + 1:]]
                if (there >= here) if strict else (there > here + tol):
                    ok = False
        if ok:
            out.append(list(p))
    return out


def dominated(U, i: int) -> list[int]:
    """Actions a for which some b earns strictly more against every profile."""
    moved = np.moveaxis(U[i], i, 0).reshape(U[i].shape[i], -1)
    return [a for a in range(len(moved))
            if any(b != a and bool((moved[b] > moved[a]).all()) for b in range(len(moved)))]


# ---------------------------------------------------------------------------
# trajectory CSV files


def read_csv(path: Path):
    """Header and float rows of a trajectory CSV (17-digit floats round-trip)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return header, np.array(rows)


def _expected_header(shape, n_faces: int) -> list[str]:
    head = ["n", "gamma", "tau"]
    for i, m in enumerate(shape):
        head += [f"x_{i}_{a}" for a in range(m)]
    head += [f"realized_{i}" for i in range(len(shape))]
    head += [f"regret_{i}" for i in range(len(shape))]
    return head + [f"dist_{k}" for k in range(n_faces)]


def _split(header, data, shape):
    col = {name: k for k, name in enumerate(header)}
    xs = [data[:, [col[f"x_{i}_{a}"] for a in range(m)]] for i, m in enumerate(shape)]
    realized = data[:, [col[f"realized_{i}"] for i in range(len(shape))]]
    regret = data[:, [col[f"regret_{i}"] for i in range(len(shape))]]
    dists = data[:, [k for k, name in enumerate(header) if name.startswith("dist_")]]
    return xs, realized, regret, dists


def _outside_mass(xs, supports) -> np.ndarray:
    return sum(
        x[:, [a for a in range(x.shape[1]) if a not in s]].sum(axis=1)
        for x, s in zip(xs, supports)
    )


def _check_rows(name, header, data, U, settings, faces) -> list[str]:
    """Checks shared by every trajectory CSV: header, schedule, simplex,
    regret summands and face distances."""
    shape = U[0].shape
    T = settings["horizon"]
    if header != _expected_header(shape, len(faces)):
        return [f"{name}: header {header} is not the contracted one"]
    if data.shape[0] != T:
        return [f"{name}: {data.shape[0]} rows, expected {T}"]
    problems = []
    n = data[:, 0]
    step = settings["step"]
    gamma = step["base"] / n ** step["exponent"]
    if not np.array_equal(n, np.arange(1, T + 1)):
        problems.append(f"{name}: step column is not 1..{T}")
    if not np.allclose(data[:, 1], gamma, rtol=1e-14, atol=0):
        problems.append(f"{name}: gamma column does not follow the step schedule")
    if not np.allclose(data[:, 2], np.cumsum(gamma), rtol=1e-12, atol=0):
        problems.append(f"{name}: tau column is not the running sum of gamma")
    xs, _, regret, dists = _split(header, data, shape)
    for i, x in enumerate(xs):
        if (x < 0).any() or not np.allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            problems.append(f"{name}: player {i} strategies leave the simplex")
    v = payoff_vectors(U, xs)
    gaps = np.stack([vi.max(axis=1) - (vi * x).sum(axis=1) for vi, x in zip(v, xs)], axis=1)
    if not np.allclose(regret, gaps, rtol=0, atol=1e-12):
        problems.append(f"{name}: regret summands differ from max_a v_a - <v, x>")
    for k, face in enumerate(faces):
        if not np.allclose(dists[:, k], _outside_mass(xs, face), rtol=0, atol=1e-12):
            problems.append(f"{name}: dist_{k} is not the mass outside {face_key(face)}")
    return problems


def _last_row(path: Path) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        *_, last = fh
    return [float(v) for v in last.split(",")]


def _exploration(explore: dict, n) -> np.ndarray:
    return explore["base"] / n ** explore["exponent"]


def _replay_bandit(U, i, x, acts, gamma, delta) -> int | None:
    """Replay player i's (T, m_i) strategy rows `x` under exponential
    weights, x_{n+1} ∝ x_n · exp(γ_n v̂_n), with v̂_n the importance-weighted
    estimate from the sampled profile acts[n] (T, N) and the explored
    strategy (1 - δ_n) x_n + δ_n / m_i. Returns the first step n (1-based)
    whose successor is not its update, or None."""
    rows = np.arange(len(x))
    explored = (1.0 - delta[:, None]) * x + delta[:, None] / x.shape[1]
    vhat = np.zeros_like(x)
    vhat[rows, acts[:, i]] = U[i][tuple(acts.T)] / explored[rows, acts[:, i]]
    nxt = x * np.exp(gamma[:, None] * vhat)
    nxt /= nxt.sum(axis=1, keepdims=True)
    close = np.isclose(x[1:], nxt[:-1], rtol=1e-12, atol=0).all(axis=1)
    return None if close.all() else int(np.argmin(close)) + 1


def _logit(y) -> np.ndarray:
    e = np.exp(y - y.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# per operation


def check_bandit_csv(outdir: Path, manifest: dict) -> list[str]:
    """Replay every row under exponential weights with importance-weighted
    bandit estimates, and tie aggregate.json to the CSV files."""
    settings = manifest["settings"]
    U = builtin_payoffs(settings["game"])
    shape = U[0].shape
    aggregate = json.loads((outdir / "aggregate.json").read_text())
    faces = [parse_face_key(k) for k in aggregate["tracked_faces"]]
    problems = []
    if faces != minimal_clubs(U):
        problems.append(f"tracked faces {aggregate['tracked_faces']} are not the minimal clubs")
    paths = sorted(outdir.glob("run_*.csv"))
    if len(paths) != GRID_RUNS or aggregate["runs"] != GRID_RUNS:
        return problems + [f"{len(paths)} run files and {aggregate['runs']} runs, "
                           f"expected {GRID_RUNS}"]
    explore = settings["exploration"]
    for r, path in enumerate(paths):
        header, data = read_csv(path)
        found = _check_rows(path.name, header, data, U, settings, faces)
        if found:
            problems += found
            continue
        xs, realized, _, _ = _split(header, data, shape)
        acts = realized.astype(np.int64)
        if (acts != realized).any() or (acts < 0).any() or (acts >= shape).any():
            problems.append(f"{path.name}: realized actions out of range")
            continue
        delta = _exploration(explore, data[:, 0])
        for i, x in enumerate(xs):
            bad = _replay_bandit(U, i, x, acts, data[:, 1], delta)
            if bad is not None:
                problems.append(f"{path.name}: player {i} at step {bad + 1} is not the "
                                f"exponential-weights update of step {bad}")
        summary = aggregate["per_run"][r]
        last = _last_row(path)[-len(faces):]
        expected = dict(zip(aggregate["tracked_faces"], last))
        if summary["run"] != r or summary["final_distances"] != expected:
            problems.append(f"aggregate.json run {r}: final distances differ from the last CSV row")
    return problems


def _check_mem_runs(runs, U, settings) -> list[str]:
    """Replay every step of every run of an in-memory batch (runs.npz:
    profiles x (R, T, D), sampled actions (R, T, N), initial scores y0
    (R, D), and the n and gamma columns)."""
    shape = U[0].shape
    T = settings["horizon"]
    x, acts, n, gamma = runs["x"], runs["realized"], runs["n"], runs["gamma"]
    if x.shape != (GRID_RUNS, T, sum(shape)) or acts.shape != (GRID_RUNS, T, len(shape)):
        return [f"runs.npz holds profiles {x.shape} and actions {acts.shape}, expected "
                f"{GRID_RUNS} runs of {T} steps"]
    step = settings["step"]
    if not np.array_equal(n, np.arange(1, T + 1)) or not np.allclose(
            gamma, step["base"] / n ** step["exponent"], rtol=1e-14, atol=0):
        return ["runs.npz: step or gamma column does not follow the step schedule"]
    if (acts < 0).any() or (acts >= shape).any():
        return ["runs.npz: sampled actions out of range"]
    problems = []
    delta = _exploration(settings["exploration"], n)
    offsets = np.cumsum((0,) + shape)
    for r in range(GRID_RUNS):
        for i in range(len(shape)):
            xi = x[r, :, offsets[i]:offsets[i + 1]]
            if not np.allclose(xi[0], _logit(runs["y0"][r, offsets[i]:offsets[i + 1]]),
                               rtol=1e-12, atol=0):
                problems.append(f"run {r}: player {i} does not start at the logit "
                                "choice of its initial scores")
            if (xi < 0).any() or not np.allclose(xi.sum(axis=1), 1.0, rtol=0, atol=1e-12):
                problems.append(f"run {r}: player {i} strategies leave the simplex")
                continue
            bad = _replay_bandit(U, i, xi, acts[r], gamma, delta)
            if bad is not None:
                problems.append(f"run {r}: player {i} at step {bad + 1} is not the "
                                f"exponential-weights update of step {bad}")
    return problems


def check_bandit_mem(outdir: Path, manifest: dict) -> list[str]:
    """Replay every step of every run, recompute each run's final distance
    to the minimal clubs, then c08 and c10: at least 90% of runs end within
    0.05 of a minimal club, and every run's limit set is resilient."""
    settings = manifest["settings"]
    U = builtin_payoffs(settings["game"])
    aggregate = json.loads((outdir / "aggregate.json").read_text())
    with np.load(outdir / "runs.npz") as npz:
        runs = dict(npz)
    problems = _check_mem_runs(runs, U, settings)
    if problems:
        return problems
    offsets = np.cumsum((0,) + U[0].shape)
    finals = [runs["x"][:, -1, offsets[i]:offsets[i + 1]] for i in range(len(U))]
    faces = minimal_clubs(U)
    expected = [face_key(f) for f in faces]
    if aggregate["tracked_faces"] != expected:
        problems.append(f"tracked faces {aggregate['tracked_faces']} are not the minimal "
                        f"clubs {expected}")
    summaries = aggregate["per_run"]
    if len(summaries) != GRID_RUNS or aggregate["runs"] != GRID_RUNS:
        return problems + [f"{len(summaries)} runs, expected {GRID_RUNS}"]
    distances = {key: _outside_mass(finals, face) for key, face in zip(expected, faces)}
    converged = 0
    for r, summary in enumerate(summaries):
        dists = summary["final_distances"]
        if sorted(dists) != sorted(expected):
            problems.append(f"run {r}: distances to {sorted(dists)}, not to the minimal clubs")
            continue
        if not all(math.isclose(dists[key], distances[key][r], rel_tol=0, abs_tol=1e-12)
                   for key in expected):
            problems.append(f"run {r}: final distances differ from the mass of its last "
                            "profile outside each minimal club")
        nearest = min(distances[key][r] for key in expected)
        if summary["min_distance"] != min(dists.values()):
            problems.append(f"run {r}: min_distance is not the least final distance")
        if summary["converged"] != (nearest <= CONVERGENCE):
            problems.append(f"run {r}: converged flag disagrees with its distance")
        converged += nearest <= CONVERGENCE
        if summary["resilient"] is not True:
            problems.append(f"run {r}: limit set is not resilient")
    if converged < 0.9 * len(summaries):
        problems.append(f"only {converged}/{len(summaries)} runs end within {CONVERGENCE} "
                        "of a minimal club")
    if aggregate["converged_runs"] != converged or aggregate["all_resilient"] is not True:
        problems.append("aggregate totals disagree with the per-run summaries")
    return problems


def check_power_report(outdir: Path, manifest: dict) -> list[str]:
    """Tsallis KKT on every step, regret against a recomputation, and the
    tau^-2 law for the distance to the strict equilibrium."""
    settings = manifest["settings"]
    U = builtin_payoffs(settings["game"])
    shape = U[0].shape
    report = json.loads((outdir / "report.json").read_text())
    header, data = read_csv(outdir / "trajectory.csv")
    faces = [tuple(tuple(s) for s in f) for f in settings["faces"]]
    problems = _check_rows("trajectory.csv", header, data, U, settings, faces)
    if problems:
        return problems
    xs, realized, _, dists = _split(header, data, shape)
    if (realized != -1).any():
        problems.append("trajectory.csv: full feedback recorded sampled actions")
    gamma = data[:, 1]
    v = payoff_vectors(U, xs)
    for i, x in enumerate(xs):
        # KKT of the tsallis map: y_a = mu - 2/sqrt(x_a), and y moves by gamma v
        w = 2.0 / np.sqrt(x)
        c = w[:-1] - w[1:] - gamma[:-1, None] * v[i][:-1]
        spread = c.max(axis=1) - c.min(axis=1)
        if (spread > 1e-11 * w[:-1].max(axis=1)).any():
            bad = int(np.argmax(spread > 1e-11 * w[:-1].max(axis=1)))
            problems.append(f"player {i}: step {bad + 1} to {bad + 2} breaks the tsallis KKT "
                            f"conditions (spread {spread[bad]:.3e})")
        total = float(v[i].sum(axis=0).max() - (v[i] * x).sum())
        reported = report["regret_final"][i]
        if not math.isclose(reported, total, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"player {i}: regret_final {reported!r} differs from the "
                            f"recomputed {total!r}")
    dist = dists[:, 0]
    half = len(dist) // 2
    slope = np.polyfit(np.log(data[half:, 2]), np.log(dist[half:]), 1)[0]
    if abs(slope + 2.0) > 0.1:
        problems.append(f"log-log slope of the distance to {face_key(faces[0])} is "
                        f"{slope:.3f}, outside -2 +/- 0.1")
    key = face_key(faces[0])
    if (report["horizon"] != settings["horizon"] or report["tracked_faces"] != [key]
            or report["final_distances"] != {key: _last_row(outdir / "trajectory.csv")[-1]}):
        problems.append("report.json disagrees with the trajectory it describes")
    return problems


def check_club_analyze(outdir: Path, manifest: dict) -> list[str]:
    """Every report against brute force from the definitions; the calls
    listed in manifest["failed"] raised and are left out."""
    reports = json.loads((outdir / "reports.json").read_text())
    specs = manifest["games"]
    if len(reports) != len(specs):
        return [f"{len(reports)} reports for {len(specs)} games"]
    problems = []
    failed = set(manifest.get("failed", ()))
    for k, (spec, report) in enumerate(zip(specs, reports)):
        if k in failed:  # the call raised; there is no report to check
            continue
        U = game_payoffs(spec)
        name = Path(spec).name
        found = clubs(U)
        expected = {
            "game": spec,
            "n_players": len(U),
            "n_actions": list(U[0].shape),
            "strict_nash": pure_nash(U, strict=True),
            "pure_nash": pure_nash(U, strict=False),
            "dominated": [dominated(U, i) for i in range(len(U))],
            "clubs": [{"face": face_key(f), "margin": m} for f, m in found],
            "minimal_clubs": [face_key(f) for f in minimal([f for f, _ in found])],
        }
        for field, value in expected.items():
            if report.get(field) != value:
                problems.append(f"{name}: {field} is {report.get(field)!r}, expected {value!r}")
    return problems


CHECKS = {
    "bandit-batch-csv": check_bandit_csv,
    "bandit-batch-mem": check_bandit_mem,
    "power-report": check_power_report,
    "club-analyze": check_club_analyze,
}
