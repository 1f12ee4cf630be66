"""Splitting sqrt(n - k) across blocks: the certified sandwich.

Scatter n positions, k of which are dead (zeros), uniformly into b
near-equal blocks.  The number of live positions in a block of size m is
hypergeometric, and the average
    B = (1/sqrt(b)) * sum over blocks of E[sqrt(X_block)]
sits just below A = sqrt(n - k): concavity gives B <= A, and a two-step
Jensen argument caps the gap.  Everything is exact rational or an
integer-interval certificate; Monte Carlo only as an external cross-check.
"""

from boolsurf import (BlockPartitionSpec, HypergeometricParams, TruthTable,
                      block_average_B, bsa_block_bound, hg_pmf,
                      jensen_bounds, mc_partition_average, mean_sqrt_hg,
                      near_equal_sizes, sandwich_check)


def main():
    print("block-partition sandwich")
    print("=" * 60)

    params = HypergeometricParams(4, 2, 2)
    print("hypergeometric building block: 4 positions, 2 live, blocks of 2")
    for s in params.support():
        print(f"  P[X = {s}] = {hg_pmf(params, s)}")
    print(f"  E[sqrt(X)] = {float(mean_sqrt_hg(params, precision=30)):.16f}"
          "  (= 2/3 + sqrt(2)/6)")

    spec = BlockPartitionSpec(4, 2, (2, 2))
    report = sandwich_check(spec, precision=30)
    print(f"\nn=4, k=2, sizes 2-2:")
    print(f"  A = sqrt(n - k) = {float(report.sqrt_total):.16f}")
    print(f"  B (block avg)   = {float(report.block_average):.16f}")
    print(f"  gap             = {float(report.gap):.16f}")
    print(f"  certified bound = {float(report.gap_bound):.16f}")
    print(f"  lower/upper/gap checks: {report.pass_lower}/"
          f"{report.pass_upper}/{report.pass_gap}")

    print("\nsweep k for n=12 in 4 near-equal blocks (30-digit certificates):")
    sizes = near_equal_sizes(12, 4)
    print(f"  {'k':>2} {'A':>10} {'B':>10} {'gap':>10} {'bound':>10}")
    for k in range(0, 13, 2):
        r = sandwich_check(BlockPartitionSpec(12, k, sizes), precision=30)
        bound = "-" if r.gap_bound is None else f"{float(r.gap_bound):10.6f}"
        print(f"  {k:>2} {float(r.sqrt_total):>10.6f} {float(r.block_average):>10.6f} "
              f"{float(r.gap):>10.6f} {bound:>10}")
    print("  k = 0 with equal blocks is exactly tight (gap 0); the bound grows "
          "with k\n  yet A <= B + b holds throughout for near-equal sizes.")

    out = jensen_bounds([0, 4], [0.5, 0.5], precision=30)
    print("\ntwo-sided Jensen enclosure for X uniform on {0, 4}:")
    print(f"  sqrt(E X) = {float(out.upper):.12g},  "
          f"lower = {float(out.lower):.12g},  E sqrt(X) = {float(out.mean_sqrt):.12g}")

    est = mc_partition_average([1, 1, 0, 0], (2, 2), trials=200_000, seed=1)
    exact = float(block_average_B(spec, precision=30))
    print("\nshuffle-based cross-check of B for n=4, k=2, sizes 2-2:")
    print(f"  exact {exact:.10f}  sampled {est.estimate:.10f} "
          f"(stderr {est.stderr:.2e}, {abs(est.estimate - exact) / est.stderr:.2f} "
          "sigmas away)")

    f = TruthTable.majority(9)
    rep = bsa_block_bound(f, blocks=3, trials=2000, seed=0)
    print("\nblock-splitting surface-area bound for majority of 9, b=3:")
    print(f"  BSA(f) = {rep.lhs:.6f} <= sampled block sum {rep.rhs_estimate:.6f} "
          f"+ b = {rep.rhs_estimate + rep.blocks:.6f}")
    print(f"  margin {rep.margin:.4f} with stderr {rep.stderr:.2e}: "
          f"{'holds' if rep.passed else 'FAILS'}")


if __name__ == "__main__":
    main()
