"""`hkforge invariant` prints what it printed when these digests were taken.

Every problem file under `problems/` that declares a group is run through
`cli.main(["invariant", "--in", <file>])` from the repository root; each
must give the recorded exit code and stdout of the recorded SHA-256.  The
generators, d_stop, colength and e_hk are all in that stdout, so a change
to the Reynolds kernel, the pivot loop or the stop test that moves one byte
fails here.
"""

import glob
import hashlib
import json
import os

import pytest

import hkforge.cli as cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

# problem file -> (exit code, SHA-256 of stdout)
DIGESTS = {
    "problems/klein4_f5.json":
        (0, "40c80adc57c43d804ba11de2b8ba3f9b8066c797a155f3e487f15fb5a540bb87"),
    "problems/order2.json":
        (0, "83c37288837e00e1cc464879b3d16b35386db94f4d1ca710d009bbf79c2e7b30"),
    "problems/order2_f7.json":
        (0, "83c37288837e00e1cc464879b3d16b35386db94f4d1ca710d009bbf79c2e7b30"),
    "problems/order2_reflection.json":
        (0, "b1b5948c4f8f1d9d74ac2472646dfb92d1fce0e908dfc4600a51d4e923e15c4f"),
    "problems/order3_f7.json":
        (0, "df89abcfc05f75069b8fe00e954a0faf7e84b24db2f4bb6e55e85956e680401f"),
    "problems/order4_f5.json":
        (0, "0e846edf4b1cbd71e8178950e5d510371a63d54d8a30f34924847d904d22524a"),
    "problems/order6_f7.json":
        (0, "70364e76eff110eddebcdd05e8fed515264f77bbc5cea7110c6e0c63c0a2bd04"),
    "problems/s3_f7.json":
        (0, "c98c4589b9a0907a9c3927cba20d68128999b924a77b0624921c3ad61d7dd660"),
    "problems/trivial_group.json":
        (0, "0d626208965de0f12ad2333a167bc2f1492d461189c2e2cf152e8be865e2253a"),
}


def group_problems() -> list[str]:
    """The problem files that declare a group, relative to the root."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            if "group" in json.load(handle):
                out.append(os.path.relpath(path, ROOT))
    return out


def test_every_group_problem_has_a_digest():
    assert group_problems() == list(DIGESTS)


@pytest.mark.parametrize("path", list(DIGESTS))
def test_invariant_prints_recorded_bytes(capsys, monkeypatch, path):
    monkeypatch.chdir(ROOT)
    code = cli.main(["invariant", "--in", path])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[path]
