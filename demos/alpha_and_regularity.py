"""Gradient mass, regularity, and noise sensitivity of threshold functions.

For a multilinear p, the quantity
    alpha(p) = E[ min(1, |D_B p(A)|^2 / |p(A)|^2) ]
(uniform point A, uniform signed direction B) measures how much of p's
mass sits near its zero set.  Together with the regularity ratio
tau = max_i Inf_i(p) / Var(p) it controls how fast noise flips the sign.
This script computes alpha exactly by enumeration where feasible, checks
the Monte Carlo estimator against it, and sweeps noise sensitivity.
"""

import math

from boolsurf import (TruthTable, alpha_estimate, alpha_exact, generate,
                      noise_sensitivity, noise_sensitivity_semigroup,
                      poly_stats, sign_table)


def main():
    print("alpha, regularity, and noise")
    print("=" * 60)

    print("regularity of a few linear forms (tau = max influence / variance):")
    for name, p in [("x1 (dictator)", generate("parity", 4, subset=1)),
                    ("x1+x2+x3 scaled", generate("majority", 3)),
                    ("harmonic 8", generate("harmonic", 8))]:
        stats = poly_stats(p)
        print(f"  {name:<18} var {stats.variance:8.4f}  tau {stats.regular_tau:.4f}")

    print("\nalpha by exhaustive enumeration vs Monte Carlo (100000 trials):")
    for name, p in [("dictator", generate("parity", 6, subset=1)),
                    ("majority 7", generate("majority", 7)),
                    ("random d=2 n=8", generate("random", 8, degree=2, seed=5))]:
        exact = alpha_exact(p)
        est = alpha_estimate(p, trials=100_000, seed=9)
        sigmas = abs(est.estimate - exact) / est.stderr if est.stderr else 0.0
        print(f"  {name:<16} exact {exact:.6f}  mc {est.estimate:.6f} "
              f"(stderr {est.stderr:.1e}, {sigmas:.2f} sigmas)")
    print("  the dictator gives alpha = 1: the derivative always matches p.")

    f = TruthTable.majority(13)
    print("\nnoise sensitivity of majority of 13, two routes:")
    print(f"  {'delta':>6} {'flip-prob':>10} {'semigroup':>10} {'ns/sqrt(t)':>11}")
    for delta in (0.01, 0.02, 0.05, 0.1):
        ns = noise_sensitivity(f, delta)
        ns2 = noise_sensitivity_semigroup(f, delta)
        t = -math.log1p(-2.0 * delta)
        print(f"  {delta:>6} {ns:>10.6f} {ns2:>10.6f} {ns / math.sqrt(t):>11.4f}")
    print("  the ratio ns / sqrt(t) stays bounded: majority flips like sqrt(noise).")

    print("\ndictator for contrast: ns(delta) = delta exactly")
    d = TruthTable.dictator(13)
    for delta in (0.01, 0.05):
        print(f"  delta {delta}: ns = {noise_sensitivity(d, delta)}")

    table, zeros = sign_table(generate("majority", 4))
    print(f"\nties: majority of 4 has {zeros} zero evaluations, all signed +1")


if __name__ == "__main__":
    main()
