#!/usr/bin/env python3
"""Relative entropy of entanglement on two qubits, by the PPT barrier path.

On 2x2 and 2x3 the separable states are the PPT ones, so ``ree_minimize``
follows a log-barrier path over PPT states: it returns an upper bound, the
separable state achieving it, and a certified bracket width (the value minus a
proven lower bound).  It builds no product decomposition, so ``atoms`` is 0;
larger dims take the Frank-Wolfe atom solver instead.  On pure states the
value coincides with the reduced entropy; on separable inputs it goes to
zero; and it never exceeds the entanglement of formation.
"""

import math

import numpy as np

from entmon import (
    Dims,
    bell_state,
    partial_trace,
    random_mixed,
    random_pure,
    random_separable,
    ree_data_processing_check,
    ree_minimize,
    random_channel,
    von_neumann_entropy,
    wootters_eof,
)

print("=" * 64)
print("Bell state: E_r = ln 2, one closest separable state (not unique)")
print("=" * 64)
res = ree_minimize(bell_state().density(), rng=np.random.default_rng(1))
print(f"  value = {res.value:.6f}  (ln 2 = {math.log(2):.6f})")
print(f"  Newton steps = {res.iterations}, atoms = {res.atoms} (no decomposition), "
      f"certified width = {res.duality_gap_estimate:.2e}")
print("  closest separable state (real part):")
print(np.round(res.closest_separable.matrix.real, 4))

print()
print("=" * 64)
print("Pure-state coincidence with the reduced entropy")
print("=" * 64)
rng = np.random.default_rng(11)
for t in range(4):
    psi = random_pure(Dims(2, 2), rng)
    oracle = von_neumann_entropy(partial_trace(psi.density(), "A"))
    res = ree_minimize(psi.density(), rng=np.random.default_rng(t))
    print(f"  ree = {res.value:.6f}   S(rho_A) = {oracle:.6f}   "
          f"err = {res.value - oracle:+.1e}   width = {res.duality_gap_estimate:.1e}")

print()
print("=" * 64)
print("Separable inputs are feasible points: value ~ 0; mixed stay below eof")
print("=" * 64)
sep = random_separable(Dims(2, 2), 4, rng)
res = ree_minimize(sep, rng=np.random.default_rng(5))
print(f"  separable input: ree = {res.value:.2e}")
for t in range(3):
    rho = random_mixed(Dims(2, 2), 2, rng)
    res = ree_minimize(rho, rng=np.random.default_rng(20 + t))
    print(f"  mixed: ree = {res.value:.6f} <= eof = {wootters_eof(rho):.6f}")

print()
print("=" * 64)
print("Data processing: outcome divergences never exceed the input divergence")
print("=" * 64)
for t in range(4):
    rho = random_mixed(Dims(2, 2), None, rng)
    sigma = random_mixed(Dims(2, 2), None, rng)
    channel = random_channel(2, 2 + t % 3, rng)
    rep = ree_data_processing_check(rho, sigma, channel)
    print(f"  sum_i S(p_i rho_i || q_i sigma_i) = {rep.outcome_divergence:.6f}"
          f"  <=  S(rho||sigma) = {rep.total_divergence:.6f}"
          f"   (gap {rep.gap:+.3e})")
