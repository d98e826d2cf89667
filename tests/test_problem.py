import glob
import json
import os

import pytest

import hkforge.cli as cli
from hkforge.errors import ParseError, PreconditionViolated
from hkforge.problem import load_problem, problem_from_dict

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def test_whole_corpus_loads():
    paths = sorted(glob.glob(os.path.join(PROBLEMS, "*.json")))
    assert len(paths) >= 20
    for path in paths:
        problem = load_problem(path)
        assert problem.ring.p >= 2
        for rideal in problem.ideals.values():
            assert rideal.presentation is problem.presentation


def test_node_file_contents():
    problem = load_problem(os.path.join(PROBLEMS, "node.json"))
    assert problem.ring.names == ("x", "y")
    assert len(problem.presentation.ci_gens) == 1
    assert set(problem.ideals) == {"I", "a", "b"}
    assert problem.ideal("I").colength() == 1
    assert problem.group is None


def test_group_file_contents():
    problem = load_problem(os.path.join(PROBLEMS, "order2.json"))
    assert problem.group == [[[4, 0], [0, 4]]]
    assert problem.ideals == {}


def test_defaults():
    problem = problem_from_dict({"p": 5, "vars": ["x"]})
    assert problem.ring.order.name == "grevlex"
    assert len(problem.presentation.ci_gens) == 0
    assert problem.ideals == {}
    assert problem.group is None


def test_order_override():
    problem = problem_from_dict({"p": 5, "vars": ["x", "y"], "order": "lex"})
    assert problem.ring.order.name == "lex"


def test_unknown_ideal_name():
    problem = problem_from_dict({"p": 5, "vars": ["x"], "ideals": {"I": ["x"]}})
    with pytest.raises(ParseError) as exc:
        problem.ideal("J")
    assert "I" in str(exc.value)


def test_non_ci_quotient_rejected():
    # two relations in a 2-variable ring must cut the dimension to 0
    with pytest.raises(PreconditionViolated):
        problem_from_dict(
            {"p": 5, "vars": ["x", "y"], "quotient": ["x*y", "x^2"]}
        )


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        {"p": "five", "vars": ["x"]},
        {"p": 5},
        {"p": 5, "vars": []},
        {"p": 5, "vars": ["x", "2bad"]},
        {"p": 5, "vars": ["x\n", "y"]},
        {"p": 5, "vars": "xy"},
        {"p": 5, "vars": ["x"], "order": 3},
        {"p": 5, "vars": ["x"], "order": "mystery"},
        {"p": 5, "vars": ["x"], "order": "elim(x)"},
        {"p": 5, "vars": ["x"], "order": "elim()"},
        {"p": 5, "vars": ["x"], "quotient": "x^2"},
        {"p": 5, "vars": ["x"], "ideals": ["x"]},
        {"p": 5, "vars": ["x"], "ideals": {"I": "x"}},
        {"p": 5, "vars": ["x"], "ideals": {"I": [3]}},
        {"p": 5, "vars": ["x", "y"], "group": []},
        {"p": 5, "vars": ["x", "y"], "group": [[[1, 0]]]},
        {"p": 5, "vars": ["x", "y"], "group": [[[1, 0], [0, "1"]]]},
        {"p": 5, "vars": ["x", "y"], "group": [[[True, 0], [0, 1]]]},
        {"p": 5, "vars": ["x"], "extra": True},
    ],
)
def test_malformed_shapes(data):
    with pytest.raises(ParseError):
        problem_from_dict(data)


def test_nonprime_p_rejected(capsys, tmp_path):
    with pytest.raises(PreconditionViolated):
        problem_from_dict({"p": 6, "vars": ["x"]})
    # End to end: exit 2, nothing on stdout, one line naming the modulus.
    for p, message in [
        ("6", "modulus 6 is not prime"),
        ("1", "modulus 1 is not prime"),
        ("2147483659", "modulus 2147483659 exceeds 2^31"),
    ]:
        path = tmp_path / "bad_p.json"
        path.write_text(f'{{"p": {p}, "vars": ["x"], "ideals": {{"I": ["x"]}}}}')
        code = cli.main(["colength", "--in", str(path), "--ideal", "I"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n"), p
    # A JSON boolean is a malformed shape, like "5" and 5.0: exit 3.
    for p in ("true", '"5"', "5.0"):
        path.write_text(f'{{"p": {p}, "vars": ["x"], "ideals": {{"I": ["x"]}}}}')
        code = cli.main(["colength", "--in", str(path), "--ideal", "I"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (3, "", "error: 'p' must be an integer prime\n"), p


def test_variable_name_with_a_trailing_newline_exits_3(capsys, tmp_path):
    # No polynomial can name "x\n", and a basis printed over it would carry
    # a raw newline.
    path = tmp_path / "newline_var.json"
    path.write_text(json.dumps({"p": 5, "vars": ["x\n", "y"], "ideals": {"I": ["y^2"]}}))
    code = cli.main(["colength", "--in", str(path), "--ideal", "I"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: 'vars' must be a nonempty list of identifiers\n"


def test_boolean_group_entry_exits_3(capsys, tmp_path):
    # A JSON boolean is not an integer entry, as with "p": true: the run
    # exits 3 instead of reading true as 1.
    path = tmp_path / "bool_group.json"
    path.write_text('{"p": 5, "vars": ["x", "y"], "group": [[[true, 0], [0, 1]]]}')
    code = cli.main(["invariant", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: group matrices must be 2x2 integer rows\n"


def test_parse_errors_surface_with_ideal_context():
    with pytest.raises(ParseError):
        problem_from_dict({"p": 5, "vars": ["x"], "ideals": {"I": ["x +"]}})


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ParseError):
        load_problem(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem(str(bad))


def test_non_utf8_file_is_a_parse_error_naming_the_file(tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"p": 5, "vars": ["x"]}'.encode("utf-16-le"))
    with pytest.raises(ParseError, match="utf16.json"):
        load_problem(str(bad))


def test_loading_matches_dict_route(tmp_path):
    data = {
        "p": 5,
        "vars": ["x", "y"],
        "quotient": ["x*y"],
        "ideals": {"I": ["x", "y"]},
    }
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(data))
    problem = load_problem(str(path))
    direct = problem_from_dict(data)
    assert problem.ring.signature() == direct.ring.signature()
    assert problem.ideal("I").equals(direct.ideal("I"))
