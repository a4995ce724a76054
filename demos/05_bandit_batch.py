"""A batch of bandit runs, summarized the way the CLI would.

Payoff-only feedback with decaying exploration still finds the stable
singleton faces of the parity game from a grid of starting scores. The
batch expands a 3x3x3 grid of initial tilts (one coordinate per player),
jitters each start, runs every point with its own derived seed, and
reports the fraction that converged into a minimal club plus a resilience
verdict for each limit point.

Reruns are byte-identical because every run's randomness depends only
on (master seed, grid index).
"""

import collections

from rlgames import config_from_dict
from rlgames.experiments import execute_batch

config = config_from_dict({
    "game": "parity",
    "kernel": "logit",
    "horizon": 3000,
    "seed": 123,
    "feedback": {"kind": "bandit"},
    "exploration": {"base": 0.1, "exponent": 0.15},
    "step": {"base": 0.2, "exponent": 0.5},
    "init": {"kind": "grid", "values": [-1, 0, 1], "dims": 3, "radius": 0.1},
})

summaries, aggregate = execute_batch(config)

print(f"{aggregate['runs']} runs of horizon {aggregate['horizon']} "
      f"({aggregate['kernel']} kernel, {aggregate['feedback']} feedback)")
print("tracked faces:", ", ".join(aggregate["tracked_faces"]))
print(f"converged: {aggregate['converged_runs']}/{aggregate['runs']} "
      f"(threshold {aggregate['convergence_threshold']})")
print("every limit set resilient:", aggregate["all_resilient"])

# which face does each run settle on?
landing = collections.Counter()
for s in summaries:
    face, d = min(s["final_distances"].items(), key=lambda kv: kv[1])
    landing[face if d <= 0.05 else "(none)"] += 1
print("\nlanding counts by face:")
for face, count in sorted(landing.items()):
    print(f"  {face:18s} {count}")

worst = max(summaries, key=lambda s: s["min_distance"])
print(f"\nslowest run: index {worst['run']} "
      f"min distance {worst['min_distance']:.4f}")
if not aggregate["all_resilient"]:
    print("(the straggler is still drifting at this horizon, so its limit\n"
          " estimate has wide support and fails the resilience audit)")
