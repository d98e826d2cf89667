"""`hkforge link`, `corner` and `reciprocity` print what they printed when
these digests were taken.

Every problem file under `problems/` that declares ideals `I` and `a` is run
through `cli.main([<command>, "--in", <file>, "--ideal", "I", "--ci", "a",
...])` from the repository root, for `link`, `corner --q p`,
`corner --q p^2`, `reciprocity --nmax 2` and `reciprocity --nmax 1
--oracle`; each must give the recorded exit code and stdout of the recorded
SHA-256.  J's reduced basis, the corners' bases and every length of the
rows are in that stdout, so a change to the link, the colon or the
elimination behind it that moves one byte fails here.
"""

import glob
import hashlib
import json
import os

import pytest

import hkforge.cli as cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

# Every problem file here has p = 5.
COMMANDS = {
    "link": ["link"],
    "corner-p": ["corner", "--q", "5"],
    "corner-p2": ["corner", "--q", "25"],
    "reciprocity-2": ["reciprocity", "--nmax", "2"],
    "reciprocity-1-oracle": ["reciprocity", "--nmax", "1", "--oracle"],
}

# problem file -> command -> (exit code, SHA-256 of stdout)
DIGESTS = {
    "problems/node.json": {
        "link":
            (0, "6f3dec23d76d1f390110c5ba04739426d54d035da27311f4cef5d5071faf3956"),
        "corner-p":
            (0, "12b6e31bcf6ee9f879f6147db173b1261fd8357d3396873f861836c40db22373"),
        "corner-p2":
            (0, "471949ac1d29ab24b1ecf8cbe5087fde913412f6ff9ae64d2639bb916a76c8e7"),
        "reciprocity-2":
            (0, "7dc21a02f3255ddff9e9d64fc65688d519db6b5c884088f697c33ab613e6b0c1"),
        "reciprocity-1-oracle":
            (0, "fb8700d53ebc3dba1edce6d627c2348fefd96360c4798572a5aa9c4897e5e04c"),
    },
    "problems/regular2.json": {
        "link":
            (0, "503a8784f1b30be9889377031a639297e2587dad88531753962a60dd1b6b6a6a"),
        "corner-p":
            (0, "b2d8ad0a1c220b78ccdf3ace04237795d81f512051bafe9dff933e91f6defdaa"),
        "corner-p2":
            (0, "2d7eb7672a1c6714cf739fe10813f40fb3b68bf7e087e1338c9aa2c7dbd2b221"),
        "reciprocity-2":
            (0, "fe2c0e6ad7dc869c29f1fcb35ad5d2c27b52d320cb468c9c765ac0efa36f1db2"),
        "reciprocity-1-oracle":
            (0, "17573d2eec38eacd3a403f18f59c9a5f9afdec06fe6f12c912c0b08a32f67466"),
    },
    "problems/sphere.json": {
        "link":
            (0, "044ceeaebe3381bba0285682c1b037faeb608657d7d421e5f6d4f24ecc055432"),
        "corner-p":
            (0, "a736c3e790b74b39886a7eb825a67005cb34824f6bc7a959203468b12a4c9207"),
        "corner-p2":
            (0, "e5795579bdd80b12b454b3d3548a6211b79d4a46a3d8d193e9dae85b1190fd16"),
        "reciprocity-2":
            (0, "cb5f0340e7b65e644c0488dc62295aeb705d177c71f74e1636e2b4dbf5d95393"),
        "reciprocity-1-oracle":
            (0, "0f1a967c150f079dccb21bae70958621bd8df9b2097716d1d4928633534e8dd7"),
    },
}


def linkage_problems() -> list[str]:
    """The problem files that declare ideals I and a, relative to the root."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            if {"I", "a"} <= set(json.load(handle).get("ideals", {})):
                out.append(os.path.relpath(path, ROOT))
    return out


def test_every_linkage_problem_has_a_digest():
    assert linkage_problems() == list(DIGESTS)
    assert all(list(table) == list(COMMANDS) for table in DIGESTS.values())


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("path", list(DIGESTS))
def test_linkage_commands_print_recorded_bytes(capsys, monkeypatch, path, command):
    monkeypatch.chdir(ROOT)
    head, *rest = COMMANDS[command]
    code = cli.main([head, "--in", path, "--ideal", "I", "--ci", "a", *rest])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[path][command]
