"""Each kernel family approaches a stable face at its own speed.

Running the same game (three-player parity) from the same tilted start,
the distance to the all-zeros equilibrium face decays in three
characteristically different ways:

* euclidean: the boundary is reached in finitely many steps, exactly;
* logit: geometric decay, log-distance linear in accumulated step size;
* tsallis: polynomial decay with exponent -2 in shifted time.

The fits below are computed from the recorded trajectories alone.
"""

import numpy as np

from rlgames import (
    Full,
    Schedule,
    builtin_game,
    face_distances,
    fit_rate,
    kernel_from_name,
    run,
    singleton_face,
)

game = builtin_game("parity")
face = singleton_face(game, (0, 0, 0))

# a start tilted toward action 0 for every player
tilt = [np.array([1.0, -1.0])] * 3
soft_tilt = [np.array([0.2, -0.2])] * 3

print("euclidean: constant steps, exact arrival")
k = kernel_from_name("euclidean")
traj = run(game, k, Full(), Schedule(0.2, 0.0), 600, y0=soft_tilt)
fit = fit_rate(traj, face)
dist = face_distances(traj, face)
print(f"  model {fit.model}: first exactly-zero step n = {fit.hit_index}")
print(f"  distance at n=1: {dist[0]:.4f}, at the hit: {dist[fit.hit_index - 1]:.1e}")

print("\nlogit: geometric decay in tau")
k = kernel_from_name("logit")
traj = run(game, k, Full(), Schedule(0.2, 0.5), 6000, y0=tilt)
fit = fit_rate(traj, face)
print(f"  model {fit.model}: slope {fit.slope:.4f} per unit tau, "
      f"R^2 = {fit.r_squared:.6f}")
print(f"  fitted on steps {fit.window[0]}..{fit.window[1]} "
      f"({fit.n_points} points)")

print("\ntsallis: inverse-square decay in shifted tau")
k = kernel_from_name("tsallis")
traj = run(game, k, Full(), Schedule(0.2, 0.5), 15000, y0=tilt)
fit = fit_rate(traj, face, atol=5e-4, window=0.1)
print(f"  model {fit.model}: slope {fit.slope:.3f} on log(shift + tau), "
      f"shift {fit.shift:.2f}, R^2 = {fit.r_squared:.6f}")
print(f"  fitted on steps {fit.window[0]}..{fit.window[1]} "
      f"({fit.n_points} points)")
