"""Pinned output bytes: sha256 of fixed CLI runs, and of exact enclosure ends.

Each row runs one command in-process and hashes its stdout, followed by
the `--levels-csv` file when the command writes one.  A refactor that
keeps every computation's result keeps every digest; a changed digest
means a changed output byte, which needs its own reason and a new pin.
The CLI prints floats only, so the integer ends behind them are pinned
on their own.
"""

import hashlib
import math

import pytest

from boolsurf import partition, verify
from boolsurf.cli import main
from boolsurf.core import TruthTable
from boolsurf.ptf import generate, sign_table
from boolsurf.seeding import substream

PINNED = [
    ("partition-1..30-15",
     ["partition", "--n", "1..30", "--precision", "15"],
     "3b4ed42f5556336d3c3bead9ab17b6c0329a46d8c20fc40d53c2027fa21eed4f"),
    ("partition-1..30-30",
     ["partition", "--n", "1..30", "--precision", "30"],
     "3b4ed42f5556336d3c3bead9ab17b6c0329a46d8c20fc40d53c2027fa21eed4f"),
    ("partition-1..30-50",
     ["partition", "--n", "1..30", "--precision", "50"],
     "3b4ed42f5556336d3c3bead9ab17b6c0329a46d8c20fc40d53c2027fa21eed4f"),
    # the benchmark's largest near-equal sweeps
    ("partition-41,44,50-50",
     ["partition", "--n", "41,44,50", "--precision", "50"],
     "34bfd5855d0ed918f6dc0f819f81afbd19e368042118be652ad7b211fafec989"),
    ("partition-50-30",
     ["partition", "--n", "50", "--precision", "30"],
     "96e6b4ed8bf4528a96b17528855aaf4aafb37ef2e3b6a9996757ce1430ec8504"),
    ("partition-sizes-7-5-3",
     ["partition", "--sizes", "7-5-3", "--precision", "30"],
     "71d9d3167294dd9a36ba3ccbc3993573e8e8ce78dc3bc21ce0340230512c933b"),
    ("partition-sizes-json",
     ["partition", "--sizes", "13-8-5-2-1", "--k", "0..29",
      "--precision", "50", "--format", "json"],
     "4ad64e6864d64068e882234ef57f45233197cb6bd1f4732842bad78ab2d9b8a3"),
    ("restrict",
     ["restrict", "rand:d=2,n=14,seed=3", "--trials", "2000", "--workers", "3"],
     "3db0a123bdd41b68de36918cdbc127826ef5dd306a0eab4e68a5efee8766b1bc"),
    ("sweep-alpha-exact",
     ["sweep", "--kind", "alpha", "--exact", "--n", "8", "--seeds", "0,1",
      "--workers", "2"],
     "d0e30f1d5c1a7342d0bbb5878216a367156e37a4480294c7e01cefb13c7abcba"),
    ("sweep-alpha-exact-n10",  # alpha_exact over 16 row blocks
     ["sweep", "--kind", "alpha", "--exact", "--n", "10", "--seeds", "0,1",
      "--workers", "2"],
     "cd8019a6e2ee392e38fc592153e656014ee668326a33df8508dcad8cf23114d7"),
    ("analyze-maj",
     ["analyze", "maj:12"],
     "64adbb72c84f34cae31b27ddd474770176437b4f2c2cce18cb64d0ead5dcc23d"),
    ("analyze-rand",
     ["analyze", "rand:d=2,n=12,seed=5"],
     "6d2cfd3f173bedfcf83da2246ce71b546a515891574126c3485f18a3d8e35296"),
    ("boundary-maj",
     ["boundary", "maj:12", "--levels-csv", "{levels}"],
     "2a5776c64fd97432cc35cc026a519850c194ea8ddbf077b17c7ad901124a6b81"),
    ("boundary-rand",
     ["boundary", "rand:d=2,n=12,seed=5", "--levels-csv", "{levels}"],
     "79ac1959627d783334eda77663ef2bf74d0a1c9023e16e1f1df9d20c7efb88a3"),
    # past one 2^16 transform row and past 64 packed words: the multi-row
    # transform (rands:d=3 leaves high rows all zero) and the cross-word axes
    ("analyze-rands-n18",
     ["analyze", "rands:d=3,n=18,terms=8,seed=2"],
     "9867dd8fde00dc7440f879a5152d01cfe1bcb5572e590962a0184d87e566c0d9"),
    ("boundary-rands-n18",
     ["boundary", "rands:d=3,n=18,terms=8,seed=2", "--levels-csv", "{levels}"],
     "9b8c0a269462e55dac6371f0f3e0198679747d020aec52dc654adfb584145f8c"),
    ("analyze-harm-n18",
     ["analyze", "harm:18"],
     "38abc2b23a019f794550404d2f48d1cd47f2eacbc0d0b224e62b6584111179e7"),
    ("boundary-harm-n18",
     ["boundary", "harm:18", "--levels-csv", "{levels}"],
     "5e21bff92416d219e6ffd788fb5797e749e0955dd6fcd70d6f50aa8a89aa8de9"),
    ("tail-rand-n17",
     ["tail", "rand:d=2,n=17,seed=4"],
     "08b072aaf34f88c342bf66e260869235eb75be072e2ad4f77b1fc3ccf044cac1"),
]


@pytest.mark.filterwarnings("ignore:rate=.* outside the regime")
@pytest.mark.parametrize("argv, digest", [row[1:] for row in PINNED],
                         ids=[row[0] for row in PINNED])
def test_output_digest(capsys, tmp_path, argv, digest):
    levels = tmp_path / "levels.csv"
    argv = [arg.format(levels=levels) for arg in argv]
    assert main(argv) == 0
    output = capsys.readouterr().out.encode()
    if levels.exists():
        output += levels.read_bytes()
    assert hashlib.sha256(output).hexdigest() == digest


def _ends(x) -> tuple | None:
    return None if x is None else (x.lo, x.hi, x.bits)


def _jensen_ends():
    """`jensen_bounds`' (lo, hi, bits) on c8's first 500 random distributions
    and first 200 hypergeometric cases, at 15, 30 and 50 digits."""
    rng = substream(verify.SUITE_SEED, 8)
    random_cases = []
    for _ in range(500):  # drawn as c8 draws them
        size = int(rng.integers(1, 9))
        values = rng.uniform(0.0, 10.0, size=size)
        weights = rng.uniform(0.1, 1.0, size=size)
        probs = weights / weights.sum()
        random_cases.append(([float(v) for v in values], [float(p) for p in probs]))
    hg_cases = [case for case in verify._c6_hypergeometric_cases() if case[1]][:200]
    rows = []
    for precision in (15, 30, 50):
        for values, probs in random_cases:
            out = partition.jensen_bounds(values, probs, precision)
            rows.append((_ends(out.lower), _ends(out.upper), _ends(out.mean_sqrt)))
        for n, successes, m in hg_cases:
            support, weights = partition._hg_weights(n, successes, m)
            out = partition._jensen_bounds(list(support), weights, math.comb(n, m),
                                           precision=precision)
            rows.append((_ends(out.lower), _ends(out.upper), _ends(out.mean_sqrt)))
    return rows


def _sandwich_ends():
    """`sandwich_check`'s (lo, hi, bits) and verdicts on 500 splits drawn as
    c7 draws them."""
    rng = substream(verify.SUITE_SEED, 7)
    rows = []
    for _ in range(500):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, n))
        b = int(rng.integers(1, min(4, n) + 1))
        spec = partition.BlockPartitionSpec(n, k, verify._random_composition(rng, n, b))
        out = partition.sandwich_check(spec)
        rows.append((_ends(out.sqrt_total), _ends(out.block_average), _ends(out.gap),
                     _ends(out.gap_bound), out.pass_lower, out.pass_upper, out.pass_gap))
    return rows


@pytest.mark.parametrize("rows, digest", [
    (_jensen_ends, "fa1c7c972e795113264a3929e7cea1d87bc8d1285d4b82501b53164d7961b7c8"),
    (_sandwich_ends, "513684b89cd52af5e587d91921b9e72fb1540fbe2580e487ffab60cff58966b3"),
], ids=["jensen_bounds", "sandwich_check"])
def test_enclosure_ends_digest(rows, digest):
    assert hashlib.sha256(repr(rows()).encode()).hexdigest() == digest


def _block_bound_reports():
    """`bsa_block_bound`'s full reports: c10's 22 functions at b = 2, 3 and
    4,000 trials, then a random 12-variable table at b = 1..4 (b = 1 runs
    many index segments per chunk) with 1 and 257 trials on 1 and 3 workers."""
    functions = [TruthTable.majority(9), TruthTable.parity(8, (1 << 8) - 1)]
    functions += [sign_table(generate("random", 10, degree=2, seed=100 + s))[0]
                  for s in range(20)]
    reports = [partition.bsa_block_bound(f, b, trials=4000, seed=verify.SUITE_SEED)
               for f in functions for b in (2, 3)]
    f = TruthTable.random(12, seed=7)
    reports += [partition.bsa_block_bound(f, b, trials, seed=11, workers=workers)
                for b in range(1, 5) for workers in (1, 3) for trials in (1, 257)]
    return reports


def test_block_bound_reports_digest():
    digest = hashlib.sha256(repr(_block_bound_reports()).encode()).hexdigest()
    assert digest == "3fdb2de9d8b13a6fd6ee206a825483298f293d892c19d58d7c3920efcabee1bf"
