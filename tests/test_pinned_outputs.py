"""Pinned output bytes: sha256 of fixed CLI runs.

Each row runs one command in-process and hashes its stdout, followed by
the `--levels-csv` file when the command writes one.  A refactor that
keeps every computation's result keeps every digest; a changed digest
means a changed output byte, which needs its own reason and a new pin.
"""

import hashlib

import pytest

from boolsurf.cli import main

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
