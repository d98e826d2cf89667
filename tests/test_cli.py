import hashlib
import json
import os

import pytest

import hkforge.cli as cli
import hkforge.groebner as groebner
import hkforge.invariants as invariants
import hkforge.linkage as linkage
from hkforge.errors import IdentityViolation, InternalError
from hkforge.ideals import Ideal
from hkforge.problem import load_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def path(name):
    return os.path.join(PROBLEMS, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_gb(capsys):
    payload = run_json(capsys, "gb", "--in", path("regular2.json"), "--ideal", "a")
    assert payload == {"basis": ["x^2", "y^2"], "order": "grevlex", "reduced": True}
    payload = run_json(
        capsys, "gb", "--in", path("ops.json"), "--ideal", "mixed", "--order", "lex"
    )
    assert payload["order"] == "lex"
    assert payload["basis"] == ["x + y", "y^2"]


# Recorded stdout of `gb --order`: the command, not the ideal, builds the
# basis in an order other than the ring's.
GB_ORDER_STDOUT = {
    ("ops.json", "mixed", "lex"):
        '{\n  "basis": [\n    "x + y",\n    "y^2"\n  ],\n  "order": "lex",\n'
        '  "reduced": true\n}\n',
    ("ops.json", "mixed", "elim(1)"):
        '{\n  "basis": [\n    "x + y",\n    "y^2"\n  ],\n  "order": "elim(1)",\n'
        '  "reduced": true\n}\n',
    ("sphere.json", "I", "elim(2)"):
        '{\n  "basis": [\n    "x^2",\n    "y",\n    "z"\n  ],\n  "order": "elim(2)",\n'
        '  "reduced": true\n}\n',
}


@pytest.mark.parametrize("problem, ideal, order", sorted(GB_ORDER_STDOUT))
def test_gb_in_another_order_prints_recorded_bytes(capsys, problem, ideal, order):
    code, out = run(capsys, "gb", "--in", path(problem), "--ideal", ideal, "--order", order)
    assert (code, out) == (0, GB_ORDER_STDOUT[problem, ideal, order])


def test_colength_and_oracle(capsys):
    payload = run_json(
        capsys, "colength", "--in", path("regular2.json"), "--ideal", "a", "--oracle"
    )
    assert payload == {"colength": 4, "oracle_colength": 4}
    payload = run_json(capsys, "colength", "--in", path("ops.json"), "--ideal", "X")
    assert payload == {"colength": "infinite"}


def test_dim(capsys):
    assert run_json(capsys, "dim", "--in", path("ops.json"), "--ideal", "X") == {
        "dim": 1
    }
    assert run_json(capsys, "dim", "--in", path("ops.json"), "--ideal", "A") == {
        "dim": 0
    }


def test_colon(capsys):
    payload = run_json(
        capsys, "colon", "--in", path("ops.json"), "--ideal", "A", "--by", "B"
    )
    assert payload == {"generators": ["x^2", "x*y", "y^2"]}


def test_colon_by_a_unit_divisor_runs_no_elimination(capsys, monkeypatch, tmp_path):
    problem = tmp_path / "unit.json"
    problem.write_text(
        json.dumps(
            {"p": 5, "vars": ["x", "y"], "ideals": {"A": ["x^2 + y", "y^3"], "B": ["x", "3"]}}
        )
    )
    meets = []
    intersect = Ideal.intersect
    monkeypatch.setattr(
        Ideal, "intersect", lambda self, other: meets.append(other) or intersect(self, other)
    )
    payload = run_json(capsys, "colon", "--in", str(problem), "--ideal", "A", "--by", "B")
    basis = run_json(capsys, "gb", "--in", str(problem), "--ideal", "A")["basis"]
    assert payload == {"generators": basis} == {"generators": ["y^3", "x^2 + y"]}
    assert meets == []


def test_intersect(capsys):
    payload = run_json(
        capsys, "intersect", "--in", path("ops.json"), "--ideal", "X", "--with", "Y"
    )
    assert payload == {"generators": ["x*y"]}


def test_bracket(capsys):
    payload = run_json(
        capsys, "bracket", "--in", path("ops.json"), "--ideal", "B", "--q", "5"
    )
    assert payload == {"generators": ["x^5", "y^5"], "q": 5}


def test_link(capsys):
    payload = run_json(
        capsys, "link", "--in", path("node.json"), "--ideal", "I", "--ci", "a"
    )
    assert payload == {
        "J": ["x", "y"],
        "degenerate": False,
        "double_link": True,
        "self_linked": True,
    }


def test_corner(capsys):
    payload = run_json(
        capsys,
        "corner",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--q",
        "5",
    )
    assert payload == {"colength": 1, "generators": ["x", "y"], "q": 5}


def test_hk_json_and_tsv(capsys):
    payload = run_json(
        capsys, "hk", "--in", path("node.json"), "--ideal", "b", "--nmax", "1"
    )
    assert payload == {
        "dim": 1,
        "rows": [
            {"length": 2, "n": 0, "normalized": "2/1", "q": 1},
            {"length": 10, "n": 1, "normalized": "2/1", "q": 5},
        ],
    }
    code, out = run(
        capsys,
        "hk",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--nmax",
        "1",
        "--format",
        "tsv",
    )
    assert code == 0
    assert out == "n\tq\tlength\tnormalized\n0\t1\t1\t1/1\n1\t5\t9\t9/5\n"


def test_reciprocity_tsv_header_is_pinned(capsys):
    code, out = run(
        capsys,
        "reciprocity",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--nmax",
        "1",
        "--format",
        "tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert (
        lines[0]
        == "n\tq\tlen_I\tlen_J\tlen_a\tlen_corner\tdeviation\tvraciu_ok\tsmith_ok"
    )
    assert lines[1] == "0\t1\t1\t1\t2\t1\t0\ttrue\ttrue"
    assert lines[2] == "1\t5\t9\t9\t10\t1\t8\ttrue\tfalse"


def test_reciprocity_json_verdicts(capsys):
    payload = run_json(
        capsys,
        "reciprocity",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--nmax",
        "1",
    )
    assert payload["verdicts"] == {
        "smith_identity_at_1": True,
        "reciprocity_all_q": False,
        "pd_probe": "infinite",
        "dim": 1,
        "isolated_singularity": True,
        "full_ci": True,
        "m_primary": True,
        "degenerate": False,
        "self_linked": True,
    }
    first = payload["rows"][0]
    assert first["normalized_I"] == "1/1"
    assert first["normalized_a"] == "2/1"


def test_reciprocity_with_oracle(capsys, monkeypatch):
    # The oracle checks the ideals the report printed: the link is made once.
    links = []

    def counting_link(I, a, real=linkage.link):
        links.append((I, a))
        return real(I, a)

    monkeypatch.setattr(linkage, "link", counting_link)
    monkeypatch.setattr(cli, "link", counting_link)
    code, _ = run(
        capsys,
        "reciprocity",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--nmax",
        "1",
        "--oracle",
    )
    assert code == 0
    assert len(links) == 1


def test_oracle_certifies_each_generator_set_once(capsys, monkeypatch):
    # The corner at q = 1 is I itself, and a corner's lift repeats C.
    seen = []

    def recording_oracle(ring, gens, real=cli.colength_bruteforce):
        seen.append(gens)
        return real(ring, gens)

    monkeypatch.setattr(cli, "colength_bruteforce", recording_oracle)
    code, _ = run(
        capsys, "reciprocity", "--in", path("sphere.json"),
        "--ideal", "I", "--ci", "a", "--nmax", "1", "--oracle",
    )
    assert code == 0
    assert all(len(set(gens)) == len(gens) for gens in seen)
    assert len({frozenset(gens) for gens in seen}) == len(seen) < 8


def test_oracle_compares_every_engine_value(monkeypatch):
    ideal = load_problem(path("regular2.json")).ideal("a")
    calls = []
    monkeypatch.setattr(cli, "colength_bruteforce", lambda ring, gens: calls.append(gens) or 4)
    memo = {}
    assert cli._oracle_check("a", ideal, 4, memo) == 4
    with pytest.raises(InternalError, match="engine 5, oracle 4"):
        cli._oracle_check("a again", ideal, 5, memo)
    assert len(calls) == 1


def test_uncertified_oracle_is_a_resource_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "colength_bruteforce", lambda ring, gens: None)
    code, out = run(
        capsys, "colength", "--in", path("regular2.json"), "--ideal", "a", "--oracle"
    )
    assert code == 4
    assert out == ""


def test_parity(capsys):
    payload = run_json(
        capsys, "parity", "--in", path("dualnumbers.json"), "--ideal", "I"
    )
    assert payload == {
        "even_certified": True,
        "self_linked": True,
        "total_length": 2,
    }


def test_invariant(capsys):
    payload = run_json(capsys, "invariant", "--in", path("order2.json"))
    assert payload == {
        "colength": 3,
        "d_stop": 2,
        "e_hk": "3/2",
        "generators": ["x^2", "x*y", "y^2"],
        "group_order": 2,
    }


def test_bound(capsys):
    payload = run_json(capsys, "bound", "--n", "2", "--g", "2")
    assert payload == {"bound": "3/2", "two_var_bound": "3/2", "hs_bound": 3}
    payload = run_json(capsys, "bound", "--n", "3", "--g", "4")
    assert payload == {"bound": "5/1"}


def test_determinism(capsys):
    args = (
        "reciprocity",
        "--in",
        path("sphere.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--nmax",
        "1",
    )
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_exit_code_2_preconditions(capsys):
    code, _ = run(capsys, "bracket", "--in", path("ops.json"), "--ideal", "B", "--q", "3")
    assert code == 2
    code, _ = run(capsys, "invariant", "--in", path("ops.json"))
    assert code == 2
    code, _ = run(capsys, "hk", "--in", path("ops.json"), "--ideal", "X", "--nmax", "1")
    assert code == 2


@pytest.mark.parametrize("order", ["elim(x)", "elim()"])
def test_order_with_a_non_integer_block_exits_2(capsys, order):
    code = cli.main(["gb", "--in", path("ops.json"), "--ideal", "mixed", "--order", order])
    assert code == 2
    assert "unknown monomial order" in capsys.readouterr().err


def test_exit_code_3_parse_errors(capsys, tmp_path):
    code, _ = run(capsys, "dim", "--in", path("ops.json"), "--ideal", "nope")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _ = run(capsys, "dim", "--in", str(bad), "--ideal", "I")
    assert code == 3
    code, _ = run(capsys, "dim", "--in", str(tmp_path / "missing.json"), "--ideal", "I")
    assert code == 3


def test_exit_code_4_resource_caps(capsys):
    code, _ = run(
        capsys, "gb", "--in", path("node.json"), "--ideal", "I", "--max-pairs", "0"
    )
    assert code == 4
    code, _ = run(capsys, "gb", "--in", path("node.json"), "--ideal", "I")
    assert code == 0


@pytest.mark.parametrize("value", ["0", "abc"])
def test_environment_sets_no_limit(capsys, monkeypatch, value):
    # The limits are module constants and the flags; no variable is read.
    for name in ("HKFORGE_MAX_PAIRS", "HKFORGE_MAX_GROUP"):
        monkeypatch.setenv(name, value)
    code, out = run(capsys, "gb", "--in", path("node.json"), "--ideal", "I")
    assert code == 0
    assert json.loads(out) == {"basis": ["x", "y"], "order": "grevlex", "reduced": True}
    code, out = run(capsys, "invariant", "--in", path("order2.json"))
    assert code == 0
    assert json.loads(out) == {
        "colength": 3,
        "d_stop": 2,
        "e_hk": "3/2",
        "generators": ["x^2", "x*y", "y^2"],
        "group_order": 2,
    }


def test_exit_code_5_identity_violation(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise IdentityViolation("length identity failed")

    monkeypatch.setattr(cli, "reciprocity_report", explode)
    code, _ = run(
        capsys,
        "reciprocity",
        "--in",
        path("node.json"),
        "--ideal",
        "I",
        "--ci",
        "a",
        "--nmax",
        "0",
    )
    assert code == 5
    err = capsys.readouterr().err
    assert err == ""  # stderr already drained by run()


def test_errors_go_to_stderr(capsys):
    code = cli.main(["dim", "--in", path("ops.json"), "--ideal", "nope"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no ideal named" in captured.err


PARSER_SEQUENCE = [
    ["hk", "--in", path("node.json"), "--ideal", "I", "--nmax", "1"],
    ["bound", "--n", "2", "--g", "2"],
    ["hk", "--in", path("node.json"), "--nmax", "one"],
    ["hk", "--in", path("node.json"), "--ideal", "I", "--nmax", "1"],
    ["--help"],
]


def _run_parser_sequence(capsys, fresh):
    """(exit code, stdout, stderr) of each call; fresh clears the parser
    cache before every call, so each call builds its own parser."""
    results = []
    for argv in PARSER_SEQUENCE:
        if fresh:
            cli.build_parser.cache_clear()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_one_parser_serves_every_call(capsys):
    fresh = _run_parser_sequence(capsys, fresh=True)
    cli.build_parser.cache_clear()
    shared = _run_parser_sequence(capsys, fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert shared[0] == shared[3]
    assert "invalid int value: 'one'" in shared[2][2]
    assert shared[4][1].startswith("usage: hkforge")


def test_caps_reset_after_run(capsys):
    defaults = groebner.MAX_PAIRS, groebner.MAX_TERMS, invariants.MAX_GROUP
    for argv, flag in [
        (["gb", "--in", path("node.json"), "--ideal", "I"], ["--max-pairs", "0"]),
        (["colon", "--in", path("ops.json"), "--ideal", "A", "--by", "mixed"], ["--max-terms", "1"]),
        (["invariant", "--in", path("s3_f7.json")], ["--max-group", "3"]),
    ]:
        assert run(capsys, *argv, *flag) == (4, "")
        # the per-run limit must not leak into the next invocation
        code, _ = run(capsys, *argv)
        assert code == 0
        assert (groebner.MAX_PAIRS, groebner.MAX_TERMS, invariants.MAX_GROUP) == defaults


# The node xy = 0 over the largest admitted prime, where q = p^6 is near
# 2^186: the packed exponent fields must be wide enough for every bracket.
LARGEST_PRIME_NODE = {
    "p": 2147483647,
    "vars": ["x", "y"],
    "quotient": ["x*y"],
    "ideals": {"I": ["x", "y"], "a": ["x + y"]},
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["bracket", "--ideal", "I", "--q", "2147483647"],
            "23dd1f9c00046207e02902826e9285cb8618946210dee8073d7ec134a1909d53",
        ),
        (
            ["hk", "--ideal", "I", "--nmax", "6"],
            "a7e477fb2c4fc4ea56e47a12197f1f0afd803919e66529cb6d3d384b78e6acdb",
        ),
        (
            ["reciprocity", "--ideal", "I", "--ci", "a", "--nmax", "2", "--format", "tsv"],
            "1cb895b9cf3034e83744400b51198146cb66046687173ff57464721cfa0ca762",
        ),
    ],
    ids=["bracket", "hk", "reciprocity"],
)
def test_largest_prime_fits_the_packed_fields(capsys, tmp_path, argv, digest):
    problem = tmp_path / "node_p31.json"
    problem.write_text(json.dumps(LARGEST_PRIME_NODE))
    code, out = run(capsys, argv[0], "--in", str(problem), *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NESTED_X = "(" * 2000 + "x" + ")" * 2000


@pytest.mark.parametrize(
    "poly, argv, code",
    [
        ("x^²", ["dim", "--ideal", "I"], 3),
        (NESTED_X, ["dim", "--ideal", "I"], 3),
        (None, ["bound", "--n", "10000", "--g", "10000"], 4),
        # Refused before the binomial is computed, which would take minutes.
        (None, ["bound", "--n", "2000000", "--g", "2000000"], 4),
    ],
    ids=["superscript", "nesting", "bound-digits", "bound-digits-up-front"],
)
def test_crash_inputs_exit_with_a_named_error(capsys, tmp_path, poly, argv, code):
    if poly is not None:
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"p": 5, "vars": ["x", "y"], "ideals": {"I": [poly]}}))
        argv = [argv[0], "--in", str(problem), *argv[1:]]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1



def run_failing(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def test_integer_past_the_string_conversion_limit_exits_3(capsys, tmp_path):
    problem = tmp_path / "long.json"
    problem.write_text(json.dumps({"p": 5, "vars": ["x"], "ideals": {"I": ["1" * 5000 + "*x"]}}))
    assert run_failing(capsys, "gb", "--in", str(problem), "--ideal", "I") == (
        3,
        "",
        ["error: integer of 5000 digits is too long (line 1, column 1)"],
    )


def test_json_nested_past_the_recursion_limit_exits_3(capsys, tmp_path):
    problem = tmp_path / "deep.json"
    problem.write_text("[" * 100_000)
    code, out, err = run_failing(capsys, "dim", "--in", str(problem), "--ideal", "I")
    assert (code, out, err) == (3, "", [f"error: JSON in {problem} is nested too deeply"])
