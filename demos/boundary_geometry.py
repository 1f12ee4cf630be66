"""Where the Boolean boundary lives: profiles, surface area, and the
edge-biased threshold.

The surface area of f is E[sqrt(s(x))] for the sensitivity s.  This
script walks the basic geometry for a few named functions: how the
profile distributes mass, how far E[sqrt(s)] sits below sqrt(E[s]), and
why a randomly sampled boundary edge almost always touches a highly
sensitive point.
"""

import math

from boolsurf import (TruthTable, boundary_report, bsa, edge_threshold_check_exhaustive,
                      level_sign_counts, total_influence)


def describe(name, f):
    profile = f.profile()
    total, _ = total_influence(f)
    area = bsa(f)
    print(f"\n{name} (n={f.n})")
    print(f"  sensitivity counts : {profile.counts.tolist()}")
    print(f"  total influence    : {total:.6f}")
    print(f"  surface area       : {area:.6f}")
    print(f"  sqrt(influence)    : {math.sqrt(total):.6f}   (upper bound, tight "
          "only when s is constant)")
    rep = boundary_report(f)
    print(f"  Var(sqrt(s))       : {rep.var_sqrt_sens:.6f}")
    if not rep.is_constant:
        print(f"  edge-biased mass at s >= {rep.threshold:.4f}: "
              f"{rep.edge_biased_prob:.4f} (needs >= 0.5, margin {rep.margin:+.4f})")


def main():
    print("boundary geometry walkthrough")
    print("=" * 60)

    describe("majority of 5", TruthTable.majority(5))
    describe("dictator x1 in 6 variables", TruthTable.dictator(6))
    describe("parity of all 6", TruthTable.parity(6, 0b111111))
    describe("parity of 2 inside 6", TruthTable.parity(6, 0b000011))
    describe("random function", TruthTable.random(8, seed=1))

    print("\nparity is the equality case: s is constant, so Var(sqrt(s)) = 0")
    print("and the surface area equals sqrt(influence) exactly.")

    print("\nsign pattern of majority of 5 by Hamming level (count of -1 inputs):")
    for level, plus, minus in level_sign_counts(TruthTable.majority(5)):
        bar = "+" * plus + "-" * minus
        print(f"  level {level}: {bar}")

    print("\nexhaustive audit of the half-mass threshold claim:")
    for n in range(1, 5):
        rep = edge_threshold_check_exhaustive(n)
        print(f"  n={n}: {rep.functions_checked:6d} nonconstant functions, "
              f"{rep.failures} failures, min margin {rep.min_margin:+.4f}")


if __name__ == "__main__":
    main()
