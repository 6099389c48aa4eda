#!/usr/bin/env python3
"""Stochastic LOCC in action: apply local Kraus families, watch averages drop.

A one-sided Kraus family maps a state to an outcome ensemble.  Averaged
over outcomes, no entanglement measure increases; the decrease is strict
for every channel that is not a mixture of local unitaries.
"""

import numpy as np

from entmon import (
    Dims,
    apply_channel,
    bell_state,
    classify,
    check_monotone,
    check_strict,
    evaluate_measure,
    haar_unitary,
    random_channel,
    random_mixed,
    projector_stack,
    random_pure_stack,
    unitary_mixture_channel,
)
from entmon.channels import LocalKrausChannel

rng = np.random.default_rng(0)

print("=" * 64)
print("A projective measurement on B destroys Bell entanglement")
print("=" * 64)
eye = np.eye(2)
projective = LocalKrausChannel("B", (np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])))
ensemble = apply_channel(projective, bell_state().density())
for p, sigma in ensemble.outcomes:
    print(f"  outcome p={p:.3f}, negativity={evaluate_measure('negativity', sigma).value:.6f}")
rep = check_monotone("negativity", bell_state().density(), projective)
print(f"  E(rho) = {rep.lhs:.3f}, average after = {rep.rhs:.3f}, verdict: {rep.verdict}")

print()
print("=" * 64)
print("Random general channels: strictly decreasing on average")
print("=" * 64)
for t in range(5):
    channel = random_channel(2, 2 + t % 3, rng)
    rho = random_mixed(Dims(2, 2), None, rng)
    rep = check_monotone("negativity", rho, channel, rng=rng)
    print(f"  {classify(channel).tag:28s} gap = {rep.gap:+.3e}  [{rep.verdict}]")

print()
print("=" * 64)
print("Unitary mixtures: the average is exactly preserved")
print("=" * 64)
for t in range(3):
    channel = unitary_mixture_channel(
        rng.dirichlet(np.ones(2)), [haar_unitary(2, rng) for _ in range(2)]
    )
    rho = random_mixed(Dims(2, 2), None, rng)
    rep = check_monotone("eof", rho, channel, rng=rng)
    print(f"  {classify(channel).tag:28s} gap = {rep.gap:+.3e}  [{rep.verdict}]")

print()
print("=" * 64)
print("Strictness sweeps: existence vs equality direction")
print("=" * 64)
# A check_strict sampler returns n density matrices as one (n, N, N) array;
# check_strict validates the whole stack once.
sampler = lambda r, n: projector_stack(random_pure_stack(Dims(2, 2), n, r))
general = random_channel(2, 2, rng)
rep = check_strict("negativity", sampler, general, 100, rng)
print(f"  general channel:  max gap over 100 pure states = "
      f"{rep.metadata['max_gap']:.4f}  [{rep.verdict}]")
mixture = unitary_mixture_channel(
    rng.dirichlet(np.ones(3)), [haar_unitary(2, rng) for _ in range(3)]
)
rep = check_strict("negativity", sampler, mixture, 100, rng)
print(f"  unitary mixture:  max |gap| over 100 pure states = "
      f"{abs(rep.gap):.2e}  [{rep.verdict}]")
