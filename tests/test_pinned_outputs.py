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
    ("analyze-maj",
     ["analyze", "maj:12"],
     "2080c7bfdeaf6de59e95125dde9494ac8dc64afcb8d90585f0baffcfc85000d7"),
    ("analyze-rand",
     ["analyze", "rand:d=2,n=12,seed=5"],
     "122d644ff7371d9a0df2b92b3643deb4a30ff3ccb94cb1087ca705c93fead661"),
    ("boundary-maj",
     ["boundary", "maj:12", "--levels-csv", "{levels}"],
     "2a5776c64fd97432cc35cc026a519850c194ea8ddbf077b17c7ad901124a6b81"),
    ("boundary-rand",
     ["boundary", "rand:d=2,n=12,seed=5", "--levels-csv", "{levels}"],
     "79ac1959627d783334eda77663ef2bf74d0a1c9023e16e1f1df9d20c7efb88a3"),
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
