"""The README's CLI and Library blocks print what they printed when their
outputs were recorded.

Every `hkforge ...` line of the CLI block is run through `cli.main` from the
repository root; each must exit 0 with stdout of the recorded SHA-256.  A
change that moves one byte of these reports fails here, in tier-1.  The
Library block is run as it stands, and every name the package exports must
resolve, so a dropped export cannot leave the documented API stale.
"""

import hashlib
import os
import re
import shlex

import pytest

import hkforge
import hkforge.cli as cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

DIGESTS = {
    "gb --in problems/ops.json --ideal mixed --order lex":
        "18440b936378d40ce3f9acb52ac55f2830ca64e281f9045e13b3d2bfa7166bb3",
    "colength --in problems/regular2.json --ideal a --oracle":
        "fffdd6b90b615745b95a867e6194506a0658fc07f5a5fcc39f2dc7e537744afe",
    "dim --in problems/ops.json --ideal X":
        "ce8b5c27d891c488715897b78a508ec86c99aa060315d0d5bd7e08e1b752216c",
    "colon --in problems/ops.json --ideal A --by B":
        "2c02dfa6e13793453ba3060fb0e3665e2d9155994168c76e11071279c9f7479e",
    "intersect --in problems/ops.json --ideal X --with Y":
        "04c199d945d5d74d59d25ebadec392c1a451a7290efd32c44e514eb947414117",
    "bracket --in problems/ops.json --ideal B --q 5":
        "409c9658a8db0ec9babe83e75d035e7a84bf86878e1080c7f3fa9755e8db27b1",
    "link --in problems/node.json --ideal I --ci a":
        "6f3dec23d76d1f390110c5ba04739426d54d035da27311f4cef5d5071faf3956",
    "corner --in problems/node.json --ideal I --ci a --q 5":
        "12b6e31bcf6ee9f879f6147db173b1261fd8357d3396873f861836c40db22373",
    "hk --in problems/node.json --ideal I --nmax 2":
        "bd0b94184c23b2a9c9f7f52970b3086df16c56e14c617d31e44646958cbce1e4",
    "reciprocity --in problems/node.json --ideal I --ci a --nmax 2 --format tsv":
        "bb37bcb35f0787b98563b48c7e436c94ef7d741922ef98d63eb60da163ec21ba",
    "parity --in problems/dualnumbers.json --ideal I":
        "863aaf2ba0740c8f14099513352b2314a7f2e12ca4320ac7198b2ab6478ad63d",
    "invariant --in problems/order2.json":
        "83c37288837e00e1cc464879b3d16b35386db94f4d1ca710d009bbf79c2e7b30",
    "bound --n 2 --g 2":
        "a64cd007ab704cd93b75bcea209fcd742b4ab063e6620195311dedb536b1b4f0",
}


def readme_block(section: str, language: str) -> str:
    """The first fenced block of the given language under a README heading."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    pattern = rf"^## {section}$.*?^```{language}$(.*?)^```$"
    return re.search(pattern, text, re.S | re.M).group(1)


def readme_cli_lines() -> list[str]:
    """The block's `hkforge` lines, program name dropped, spaces collapsed."""
    block = readme_block("CLI", "sh")
    return [
        " ".join(shlex.split(line)[1:])
        for line in block.splitlines()
        if line.startswith("hkforge ")
    ]


def test_every_readme_line_has_a_digest():
    assert readme_cli_lines() == list(DIGESTS)


@pytest.mark.parametrize("line", list(DIGESTS))
def test_readme_line_prints_recorded_bytes(capsys, monkeypatch, line):
    monkeypatch.chdir(ROOT)
    code = cli.main(shlex.split(line))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[line]


def test_readme_library_block_prints_the_node_rows(capsys):
    exec(readme_block("Library", "python"), {})
    # q, len(R/I^[q]) and the deviation on the node, for n = 0, 1, 2.
    assert capsys.readouterr().out == "1 1 0\n5 9 8\n25 49 48\n"


def test_every_export_resolves():
    missing = [name for name in hkforge.__all__ if not hasattr(hkforge, name)]
    assert missing == []
