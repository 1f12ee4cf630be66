"""E[sqrt(s)] as a weighted sum of tail masses, and the coupling floor.

Two ideas in one script.  First, the identity
    E[sqrt(s)] = sum over m >= 1 of (sqrt(m) - sqrt(m-1)) * Pr[s >= m],
which turns the surface area into a telescoping sum of tail
probabilities.  Second, the coupling certificate: resampling m random
coordinates of a point with s >= m flips the function with probability
at least 1 - (1 - 1/m)^m > 1 - 1/e, so tail mass is observable mass.
All quantities here are exact rationals.
"""

import math

from boolsurf import TruthTable, bsa, bsa_via_tails, tail_coupling_check


def main():
    print("tail-sum route to the surface area")
    print("=" * 60)
    for name, f in [("majority of 9", TruthTable.majority(9)),
                    ("random n=10", TruthTable.random(10, seed=5)),
                    ("parity of 4 inside 10", TruthTable.parity(10, 0b1111))]:
        direct = bsa(f)
        tails = bsa_via_tails(f)
        print(f"  {name:24s} direct {direct:.12f}  via tails {tails:.12f}  "
              f"diff {abs(direct - tails):.2e}")

    print("\ntelescoping weights sqrt(m) - sqrt(m-1) for m = 1..6:")
    print("  " + "  ".join(f"{math.sqrt(m) - math.sqrt(m - 1):.4f}"
                           for m in range(1, 7)))

    f = TruthTable.majority(9)
    counts = f.profile().counts.tolist()
    print(f"\ncoupling certificates for majority of 9 (counts {counts}):")
    print(f"  {'m':>2} {'Pr[s >= m]':>12} {'coupling lb':>12} {'ratio':>8} "
          f"{'floor':>8}")
    for m in range(1, 10):
        rep = tail_coupling_check(f, m)
        ratio = "-" if rep.bound_ratio is None else f"{float(rep.bound_ratio):.4f}"
        print(f"  {m:>2} {float(rep.p_e):>12.6f} {float(rep.coupling_lb):>12.6f} "
              f"{ratio:>8} {float(rep.floor):>8.4f}")
    print("  the ratio always sits in [floor, 1]; floor -> 1 - 1/e as m grows")

    n = 8
    par = TruthTable.parity(n, (1 << n) - 1)
    rep = tail_coupling_check(par, n)
    print(f"\nfull parity on {n} variables at m = n:")
    print(f"  Pr[s >= {n}] = {rep.p_e} (every point is fully sensitive)")
    print(f"  coupling lb  = {rep.coupling_lb} = 1 - (1 - 1/{n})^{n} exactly")


if __name__ == "__main__":
    main()
