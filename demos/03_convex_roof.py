#!/usr/bin/env python3
"""Convex-roof optimization against the two-qubit closed forms.

The roof of the reduced-entropy measure is the entanglement of formation;
on two qubits the Wootters formula gives it exactly, so the optimizer can
be graded.  The roof of the negativity h-function equals half the
concurrence, a second free oracle.

Both roofs are found by Riemannian gradient descent on the decomposition
isometries.  The negativity h-function has square-root kinks at product
members, so its descent runs on a smoothed h-function whose smoothing
shrinks stage by stage.  For either, ``converged`` says that the winning
chain's gradient or relative-decrease test fired (in the last stage).
"""

import numpy as np

from entmon import (
    Dims,
    ENTROPY,
    NEGATIVITY_H,
    evaluate_measure,
    random_mixed,
    random_separable,
    roof_minimize,
    werner_state,
    wootters_concurrence,
    wootters_eof,
)

rng = np.random.default_rng(3)

print("=" * 64)
print("Roof of the entropy measure vs the Wootters closed form")
print("=" * 64)
for t in range(5):
    rho = random_mixed(Dims(2, 2), 2 + t % 3, rng)
    res = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20,
                        rng=np.random.default_rng(t))
    oracle = wootters_eof(rho)
    print(f"  rank {2 + t % 3}: roof = {res.value:.8f}   wootters = {oracle:.8f}   "
          f"diff = {res.value - oracle:+.2e}   converged = {res.converged}")

print()
print("=" * 64)
print("Roof of the negativity h-function = concurrence / 2")
print("=" * 64)
for t in range(3):
    rho = random_mixed(Dims(2, 2), 2, rng)
    res = roof_minimize(NEGATIVITY_H, rho, n_terms=4, restarts=20,
                        rng=np.random.default_rng(10 + t))
    print(f"  roof = {res.value:.8f}   C/2 = {wootters_concurrence(rho) / 2:.8f}   "
          f"converged = {res.converged}")

print()
print("=" * 64)
print("The optimal decomposition of a Werner state")
print("=" * 64)
rho = werner_state(0.8)
res = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20, rng=np.random.default_rng(42))
print(f"  roof value {res.value:.6f} (wootters {wootters_eof(rho):.6f}), "
      f"{len(res.best.states)} members")
for w, psi in zip(res.best.weights, res.best.states):
    member_val = evaluate_measure("eof", psi.density()).value
    print(f"    weight {w:.4f}   member eof {member_val:.6f}")

print()
print("=" * 64)
print("A separable mixture admits a zero-measure decomposition")
print("=" * 64)
sep = random_separable(Dims(2, 2), 3, np.random.default_rng(200))
res = roof_minimize(NEGATIVITY_H, sep, n_terms=3, restarts=20,
                    rng=np.random.default_rng(0))
print(f"  roof of negativity-h on a 3-term product mixture: {res.value:.2e}")
