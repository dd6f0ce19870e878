import contextlib
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassconf.cli import _parse_eps, main
from grassconf.grassmann import (
    Configuration,
    StratumId,
    canonicalize,
    configuration_to_json,
    sample_configuration,
)
from grassconf.linalg import Matrix


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_strata_listing_h2():
    code, text = run_cli("strata", "--h", "2", "--k", "2", "--n", "4")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert "dim=7" in lines[0] and "F_2^3(2,4)" in lines[0]
    assert "dim=8" in lines[1] and "open" in lines[1]


def test_strata_listing_h1():
    code, text = run_cli("strata", "--h", "1", "--k", "2", "--n", "5")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 1
    assert "dim=6" in lines[0]


def test_strata_h1_is_the_grassmannian():
    # F_1^k(k, n) is Gr(k, n): one open stratum, its own closure
    assert run_cli("strata", "--h", "1", "--k", "2", "--n", "5") == (
        0, "F_1^2(2,5)  dim=6  nonempty=yes  open  closure=[2]\n")
    code, text = run_cli("strata", "--h", "1", "--k", "2", "--n", "5", "--json")
    assert code == 0
    assert json.loads(text) == {"h": 1, "k": 2, "n": 5, "strata": [
        {"i": 2, "dimension": 6, "nonempty": True, "open": True, "closure": [2]}]}
    assert text == '{"h":1,"k":2,"n":5,"strata":[{"closure":[2],"dimension":6,"i":2,' \
        '"nonempty":true,"open":true}]}\n'


def test_strata_hyperplane_case():
    code, text = run_cli("strata", "--h", "2", "--k", "3", "--n", "4", "--json")
    assert code == 0
    data = json.loads(text)
    assert [row["i"] for row in data["strata"]] == [4]
    assert data["strata"][0]["nonempty"] is True


def test_strata_bad_flags_exit_2():
    code, _ = run_cli("strata", "--h", "2", "--k", "5", "--n", "4")
    assert code == 2


@pytest.mark.parametrize("h", ["0", "-1"])
def test_strata_h_below_1_names_the_bound(capsys, h):
    code, text = run_cli("strata", "--h", h, "--k", "2", "--n", "4")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: need h >= 1\n"


def test_pi_trivial_case():
    code, text = run_cli("pi", "--order", "1", "--h", "3", "--i", "6", "--k", "2", "--n", "7")
    assert code == 0
    assert text.strip() == "0"


@pytest.mark.parametrize("h, answer", [("2", "0"), ("3", "PB_3(S^2)")])
def test_pi_of_points_of_the_sphere(h, answer):
    # PB_2(S^2) is trivial and normalizes to 0
    code, text = run_cli("pi", "--order", "1", "--h", h, "--i", "2", "--k", "1", "--n", "2")
    assert code == 0
    assert text.strip() == answer


def test_pi_direct_sum_case():
    code, text = run_cli("pi", "--order", "2", "--h", "3", "--i", "6", "--k", "2", "--n", "6")
    assert code == 0
    assert text.strip() == "Z^2"


def test_pi_uncovered_exits_3():
    code, text = run_cli("pi", "--order", "2", "--h", "3", "--i", "4", "--k", "2", "--n", "6")
    assert code == 3
    assert text.startswith("Unknown(")


def test_pi_empty_stratum_exits_2():
    code, _ = run_cli("pi", "--order", "1", "--h", "2", "--i", "5", "--k", "2", "--n", "7")
    assert code == 2


def test_pi_trace_replays():
    code, text = run_cli(
        "pi", "--order", "2", "--h", "2", "--i", "3", "--k", "2", "--n", "4",
        "--trace", "--json",
    )
    assert code == 0
    data = json.loads(text)
    assert data["render"] == "Z^3"
    steps = data["trace"]["steps"]
    assert steps[0]["before"] == data["trace"]["initial"]
    for first, second in zip(steps, steps[1:]):
        assert first["after"] == second["before"]
    assert steps[-1]["after"] == data["trace"]["result"] == "Z^3"


def test_sample_then_classify(tmp_path):
    target = tmp_path / "c.json"
    code, _ = run_cli(
        "sample", "--h", "3", "--i", "5", "--k", "2", "--n", "7",
        "--seed", "42", "-o", str(target),
    )
    assert code == 0
    code, text = run_cli("classify", str(target))
    assert code == 0
    assert text.strip() == "i = 5"


def test_classify_rejects_coinciding_points(tmp_path):
    code, out = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    data["points"][1] = data["points"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli("classify", str(bad))
    assert code == 2


def test_classify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("classify", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _sampled_json():
    code, out = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--seed", "1")
    assert code == 0
    return json.loads(out)


def _zero_denominator():
    data = _sampled_json()
    data["points"][0]["basis"]["entries"][0] = ["1", "0", "0", "1"]
    return json.dumps(data)


def _entries_not_a_list():
    data = _sampled_json()
    data["points"][0]["basis"]["entries"] = 5
    return json.dumps(data)


def _top_level_array():
    return json.dumps([_sampled_json()])


def _boolean_wire_integer():
    # true would pass as the integer 1 and the payload as a valid configuration
    data = _sampled_json()
    data["points"][0]["basis"]["entries"][0][1] = True
    return json.dumps(data)


def _wire_string(value):
    """The sampled payload with its first entry's real numerator set to
    value, which int() would read as an integer."""
    def payload():
        data = _sampled_json()
        data["points"][0]["basis"]["entries"][0][0] = value
        return json.dumps(data)
    return payload


def _deeply_nested():
    # json.load recurses once per open bracket and overflows the stack
    return "[" * 100000 + "]" * 100000


def _full_space():
    # one 2-plane in C^2 is a valid configuration in no stratum
    plane = canonicalize(Matrix.unit_rows([0, 1], 2), 2)
    return json.dumps(configuration_to_json(Configuration.of([plane])))


def _without(*path):
    """The sampled payload with the field at the end of path removed."""
    def payload():
        data = _sampled_json()
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
        return json.dumps(data)
    return payload


def _with(*path, value):
    """The sampled payload with the field at the end of path set to value."""
    def payload():
        data = _sampled_json()
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return json.dumps(data)
    return payload


@pytest.mark.parametrize("payload, named", [
    (_zero_denominator, "has a zero denominator"),
    (_entries_not_a_list, "an 'entries' list"),
    (_top_level_array, "a 'points' list"),
    (_boolean_wire_integer, "expected an integer, got True"),
    (_without("h"), "a configuration is missing the field 'h'"),
    (_without("points", 0, "n"), "a subspace is missing the field 'n'"),
    (_without("points", 1, "basis", "rows"), "a matrix is missing the field 'rows'"),
    (_with("points", 0, "basis", "rows", value=-1),
     "the field 'rows' of a matrix is -1; it must be >= 0"),
    (_with("points", 0, "basis", "cols", value=-4),
     "the field 'cols' of a matrix is -4; it must be >= 0"),
    (_with("points", 1, "n", value=-1), "the field 'n' of a subspace is -1; it must be >= 0"),
    (_with("points", 1, "k", value="-2"), "the field 'k' of a subspace is -2; it must be >= 0"),
    (_with("h", value=-2), "the field 'h' of a configuration is -2; it must be >= 0"),
    (_deeply_nested, "is nested too deeply"),
    (_wire_string("1_0"), "expected a decimal integer string, got '1_0'"),
    (_wire_string(" 1"), "expected a decimal integer string, got ' 1'"),
    (_wire_string("+1"), "expected a decimal integer string, got '+1'"),
    (_wire_string("\u0663"), "expected a decimal integer string, got '\u0663'"),
    (_wire_string("7" * 5000),
     "the entry at row 0, column 0 of a matrix: Exceeds the limit (4300 digits)"),
    (_wire_string(0.5), "the entry at row 0, column 0 of a matrix: expected an integer, got 0.5"),
    (_full_space, "need 0 < k < n, got k=2, n=2"),
], ids=["zero-denominator", "entries-not-a-list", "top-level-array", "boolean-wire-integer",
        "missing-h", "point-missing-n", "basis-missing-rows", "negative-rows", "negative-cols",
        "negative-n", "negative-k", "negative-h", "deeply-nested", "underscore-digits",
        "leading-space", "plus-sign", "arabic-indic-digit", "5000-digits", "float", "k-equals-n"])
def test_classify_malformed_payload(tmp_path, capsys, payload, named):
    bad = tmp_path / "bad.json"
    bad.write_text(payload())
    code, _ = run_cli("classify", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


def test_classify_mismatched_h_names_both_counts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_with("h", value=3)())
    code, out = run_cli("classify", str(bad))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: declared h = 3 but the configuration has 2 points\n"
    )


# malformed configurations, each made from a valid sampled one by a change
# that no valid configuration survives
_CORPUS_BASES = [
    configuration_to_json(sample_configuration(StratumId(*s), seed))
    for s, seed in (((2, 3, 2, 4), 1), ((3, 2, 1, 3), 2), ((1, 2, 2, 4), 3), ((2, 4, 2, 5), 4))
]
_COUNT_FIELDS = ("h", "k", "n", "rows", "cols")
_not_decimal = st.text(max_size=6).filter(lambda text: not re.fullmatch(r"-?[0-9]+", text))
# invalid at every position of the wire format, containers included
_wrong_type = st.one_of(
    st.none(), st.booleans(), st.floats(), _not_decimal, st.just({}), st.just([]),
    st.dictionaries(st.sampled_from(["x", "h", "points", "entries"]), st.none(), max_size=2),
)


def _paths(node, prefix=()):
    """Every (path, value) below node, node itself first."""
    yield prefix, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _is_wire_int(path):
    """A count field, or one of the four integers of a matrix entry."""
    return bool(path) and (path[-1] in _COUNT_FIELDS or path[-3:-2] == ("entries",))


_DELETE = object()


def _replaced(data, path, value):
    """A copy of data with the value at path replaced, or removed for _DELETE."""
    data = json.loads(json.dumps(data))
    if not path:
        return value
    obj = data
    for key in path[:-1]:
        obj = obj[key]
    if value is _DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return data


@st.composite
def _malformed_configuration(draw):
    """(kind, JSON text) of a malformed configuration."""
    data = draw(st.sampled_from(_CORPUS_BASES))
    paths = [path for path, _ in _paths(data)]
    kind = draw(st.sampled_from(
        ["wrong-type", "missing", "zero-denominator", "bad-wire-string", "mismatched", "truncated"]
    ))
    if kind == "wrong-type":
        data = _replaced(data, draw(st.sampled_from(paths)), draw(_wrong_type))
    elif kind == "missing":
        data = _replaced(data, draw(st.sampled_from(paths[1:])), _DELETE)
    elif kind == "zero-denominator":
        point = draw(st.integers(0, len(data["points"]) - 1))
        entry = draw(st.integers(0, len(data["points"][point]["basis"]["entries"]) - 1))
        path = ("points", point, "basis", "entries", entry, draw(st.sampled_from([1, 3])))
        data = _replaced(data, path, draw(st.sampled_from([0, "0", "-0", "000"])))
    elif kind == "bad-wire-string":
        path = draw(st.sampled_from([path for path in paths if _is_wire_int(path)]))
        data = _replaced(data, path, draw(_not_decimal))
    elif kind == "mismatched":
        path = draw(st.sampled_from([p for p in paths if p and p[-1] in _COUNT_FIELDS]))
        current = int(dict(_paths(data))[path])
        value = draw(st.integers(0, 12).filter(lambda v: v != current))
        data = _replaced(data, path, draw(st.sampled_from([value, str(value)])))
    text = json.dumps(data)
    if kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return kind, text


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "bad.json"


@given(_malformed_configuration())
@settings(max_examples=200, deadline=None)
def test_classify_malformed_corpus_exits_2(corpus_file, case):
    kind, text = case
    corpus_file.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("classify", str(corpus_file))
    err = err.getvalue()
    assert (code, out) == (2, ""), (kind, text, err)
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (kind, err)
    assert "Traceback" not in err


def test_verify_suite_cli(tmp_path):
    report_file = tmp_path / "report.json"
    code, text = run_cli(
        "verify", "--suite", "gamma", "--cases", "6", "--seed", "1",
        "-o", str(report_file),
    )
    assert code == 0
    assert "6/6 passed" in text
    data = json.loads(report_file.read_text())
    assert data["passed"] == 6


def test_verify_failures_exit_1(monkeypatch, tmp_path):
    # a wrong inverse on every other case: the text names each failure
    # after the count, --json and -o carry the same failures, and the exit
    # code is 1 either way
    from grassconf import fibrations

    calls = []

    def reversed_on_even_calls(point, triv, _real=fibrations.gamma_untrivialize):
        back = _real(point, triv)
        calls.append(True)
        if len(calls) % 2:
            return Configuration(back.h, back.k, back.n, back.points[::-1])
        return back
    monkeypatch.setattr(fibrations, "gamma_untrivialize", reversed_on_even_calls)
    argv = ["verify", "--suite", "gamma", "--cases", "3", "--seed", "4"]
    assert run_cli(*argv) == (1, (
        "suite gamma: 1/3 passed\n"
        "  FAIL [4:0] round trip failed (untrivialize o trivialize)\n"
        "  FAIL [4:2] round trip failed (untrivialize o trivialize)\n"
    ))
    calls.clear()
    report_file = tmp_path / "report.json"
    code, text = run_cli(*argv, "--json", "-o", str(report_file))
    assert code == 1
    data = json.loads(text)
    assert json.loads(report_file.read_text()) == data
    assert (data["cases"], data["passed"]) == (3, 1)
    assert data["failures"] == [
        {"seed": f"4:{idx}", "desc": "round trip failed (untrivialize o trivialize)"}
        for idx in (0, 2)
    ]


@pytest.mark.parametrize("argv", [
    ["--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--eps", "1/0"],
    ["--suite", "eta", "--i", "5", "--k", "2", "--n", "4"],
    ["--suite", "eta", "--i", "4", "--k", "2", "--n", "4"],
    ["--suite", "gamma", "--i", "9", "--k", "2", "--n", "5"],
    ["--suite", "pr", "--h", "1"],
    ["--suite", "gamma", "--cases", "-5"],
    ["--suite", "dimension", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--samples", "-1"],
    ["--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--trials", "-3"],
    ["--suite", "gamma", "--h", "2", "--i", "3", "--k", "2", "--n", "3"],
    ["--suite", "eta", "--h", "3"],
], ids=[
    "eps-zero-denominator", "eta-empty-stratum", "eta-direct-sum",
    "gamma-empty-stratum", "pr-one-point",
    "negative-cases", "negative-samples", "negative-trials",
    "gamma-full-space", "eta-not-a-pair",
])
def test_verify_bad_input_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "grassconf", "verify", "--cases", "3", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_verify_tol_is_an_unknown_argument():
    # --tol had no effect on the exact dimension suite and was removed
    proc = subprocess.run(
        [sys.executable, "-m", "grassconf", "verify", "--suite", "dimension",
         "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--tol", "1e-6"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "grassconf: error: unrecognized arguments: --tol 1e-6"
    )


def test_verify_adjacency_at_a_huge_eps_is_quick():
    # every trial shrinks t from about 10^4299 to below half the smallest
    # base gap; the scale is found from bit lengths, not one factor of 4 at
    # a time, so the default 100 trials finish well inside the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "grassconf", "verify", "--suite", "adjacency",
         "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--eps", "1e4299", "--json"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["cases"], report["passed"]) == (101, 101)


@pytest.mark.parametrize("eps, named", [
    ("1/0", "has a zero denominator"),
    ("1e-5000", "has too many digits to write in the report"),
    ("1e30000000", "has too many digits to write in the report"),
    ("1e-30000000", "has too many digits to write in the report"),
    ("inf", "is not a fraction"),
    ("1/2/3", "is not a fraction"),
], ids=["zero-denominator", "too-many-digits", "huge-exponent", "huge-negative-exponent",
        "inf", "two-slashes"])
def test_bad_eps_error_names_the_flag(capsys, eps, named):
    # an exponent too large to write is refused before 10**exponent is built
    start = time.perf_counter()
    code, out = run_cli(
        "verify", "--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2", "--n", "4",
        f"--eps={eps}",
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: --eps {eps!r} {named}\n"


def _eps_outcome(text):
    """The value _parse_eps returns for text, or the message it raises."""
    try:
        return _parse_eps(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("eps", [
    "1e5000", "1e20000", "1e-5000", "1e30000000", "1e4200", "1e-4299", "0e99999", "1/3",
    "1" * 4301,
])
def test_eps_refusal_ignores_a_switched_off_int_str_limit(eps):
    # with the limit at 0 both checks measure against the default limit;
    # a 4301-digit mantissa is refused either way, but Fraction itself
    # refuses it first under the default limit, as not a fraction
    default = _eps_outcome(eps)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        unlimited = _eps_outcome(eps)
        assert time.perf_counter() - start < 0.5
    finally:
        sys.set_int_max_str_digits(limit)
    if len(eps) > 4300:
        assert default.endswith("is not a fraction")
        assert unlimited.endswith("has too many digits to write in the report")
    else:
        assert unlimited == default


@pytest.mark.parametrize("argv, flag", [
    (["strata", "--h=--", "--k", "2", "--n", "4"], "--h"),
    (["pi", "--order", "1", "--h", "2", "--i=--", "--k", "2", "--n", "4"], "--i"),
    (["verify", "--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2", "--n", "4",
      "--eps=--"], "--eps"),
], ids=["strata-h", "pi-i", "verify-eps"])
def test_flag_value_double_dash_names_the_flag(capsys, argv, flag):
    # argparse stores a value of exactly "--" as an empty list, unconverted
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"grassconf: error: argument {flag}: expected one argument"
    ]


# the parser surface of the commands that take stratum flags, at 80 columns
_HELP = {
    "strata": """\
usage: grassconf strata [-h] --h H --k K --n N [--json]

options:
  -h, --help  show this help message and exit
  --h H
  --k K
  --n N
  --json
""",
    "pi": """\
usage: grassconf pi [-h] --order {1,2} --h H --i I --k K --n N [--trace]
                    [--json]

options:
  -h, --help     show this help message and exit
  --order {1,2}
  --h H
  --i I
  --k K
  --n N
  --trace
  --json
""",
    "sample": """\
usage: grassconf sample [-h] --h H --i I --k K --n N [--seed SEED] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --h H
  --i I
  --k K
  --n N
  --seed SEED
  -o OUTPUT, --output OUTPUT
""",
    "verify": """\
usage: grassconf verify [-h] --suite {gamma,pr,eta,dimension,adjacency}
                        [--cases CASES] [--seed SEED] [--h H] [--i I] [--k K]
                        [--n N] [--samples SAMPLES] [--target TARGET]
                        [--eps EPS] [--trials TRIALS] [--json] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --suite {gamma,pr,eta,dimension,adjacency}
  --cases CASES
  --seed SEED
  --h H
  --i I
  --k K
  --n N
  --samples SAMPLES
  --target TARGET
  --eps EPS
  --trials TRIALS
  --json
  -o OUTPUT, --output OUTPUT
""",
}


@pytest.mark.parametrize("command", sorted(_HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr() == (_HELP[command], "")


@pytest.mark.parametrize("argv, missing", [
    (["strata", "--json"], "--h, --k, --n"),
    (["strata", "--h", "2", "--k", "2"], "--n"),
    (["pi", "--order", "1"], "--h, --i, --k, --n"),
    (["pi", "--order", "2", "--h", "2", "--i", "3", "--k", "2"], "--n"),
    (["sample", "--seed", "1"], "--h, --i, --k, --n"),
    (["sample", "--h", "2", "--i", "3", "--n", "4"], "--k"),
], ids=["strata-all", "strata-n", "pi-all", "pi-n", "sample-all", "sample-k"])
def test_missing_stratum_flag_is_a_usage_error(monkeypatch, capsys, argv, missing):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    usage = _HELP[argv[0]].split("\n\n")[0]
    assert capsys.readouterr() == ("", (
        f"{usage}\ngrassconf {argv[0]}: error: the following arguments are required: {missing}\n"
    ))


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "dimension", "--h", "2"],
    ["verify", "--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2"],
], ids=["dimension", "adjacency"])
def test_verify_suite_without_stratum_flags(capsys, argv):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: suite {argv[2]} needs --h, --i, --k, and --n\n"
    )


# malformed flags: a valid command line with one flag replaced by a value
# outside its range.  h, k and n stay at most 6: larger values are not
# capped yet, and a valid-looking large n only makes the run slow.
_FLAG_COMMANDS = [
    (["strata"], {"h": 2, "k": 2, "n": 4}),
    (["pi", "--order", "1"], {"h": 2, "i": 3, "k": 2, "n": 4}),
    (["sample"], {"h": 2, "i": 3, "k": 2, "n": 4, "seed": 0}),
    (["verify", "--suite", "gamma"], {"h": 2, "i": 3, "k": 2, "n": 5, "seed": 0, "cases": 1}),
    (["verify", "--suite", "pr"], {"h": 3, "k": 2, "n": 6, "seed": 0, "cases": 1}),
    (["verify", "--suite", "eta"], {"h": 2, "i": 3, "k": 2, "n": 4, "seed": 0, "cases": 1}),
    (["verify", "--suite", "dimension"], {"h": 2, "i": 3, "k": 2, "n": 4, "seed": 0, "samples": 1}),
    (["verify", "--suite", "adjacency"], {
        "h": 2, "i": 3, "k": 2, "n": 4, "seed": 0, "target": 4, "trials": 1, "eps": "1/1000",
    }),
]
_BAD_EPS = ["0", "0/7", "-1/3", "-2", "1/0", "1/2/3", "inf", "-inf", "nan", "1e-5000",
            "1e30000000", "1e-30000000"]
_NOT_INT = ["", "x", "1.5", "0x10", "1e3", "nan", "--"]


def _out_of_range(prefix, flags, key):
    """Values of flag key that no run of this command line can accept."""
    h, k, n = flags["h"], flags["k"], flags["n"]
    top = min(h * k, n)
    if key == "h":
        if prefix[-1] == "eta":
            return st.integers(-6, 6).filter(lambda v: v != 2)
        return st.integers(-6, 1 if prefix[-1] == "pr" else 0)
    if key == "k":
        return st.integers(-6, 0) | st.integers(n, 6)
    if key == "n":
        return st.integers(-6, k)
    if key == "i":
        return st.integers(-6, k) | st.integers(top + 1, 12)
    if key == "seed":
        return st.integers(-2 ** 70, -1) | st.integers(2 ** 64, 2 ** 70)
    if key == "target":
        return st.integers(-6, flags["i"] - 1) | st.integers(top + 1, 12)
    if key == "eps":
        return st.sampled_from(_BAD_EPS)
    return st.integers(-10 ** 6, -1)  # cases, samples, trials


@st.composite
def _malformed_flags(draw):
    """(argv, argparse rejects it) for a command line with one bad flag."""
    prefix, flags = draw(st.sampled_from(_FLAG_COMMANDS))
    key = draw(st.sampled_from(sorted(flags)))
    rejected_by_argparse = key != "eps" and draw(st.booleans())
    if rejected_by_argparse:
        value = draw(st.sampled_from(_NOT_INT))
    else:
        value = draw(_out_of_range(prefix, flags, key))
    flags = dict(flags, **{key: value})
    return prefix + [f"--{name}={flags[name]}" for name in flags], rejected_by_argparse


@given(_malformed_flags())
@settings(max_examples=200, deadline=None)
def test_malformed_flag_corpus_exits_2(case):
    argv, rejected_by_argparse = case
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if rejected_by_argparse:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2, argv
        else:
            code, out = run_cli(*argv)
            assert (code, out) == (2, ""), (argv, err.getvalue())
    err = err.getvalue()
    assert "Traceback" not in err
    lines = err.splitlines()
    assert sum("error:" in line for line in lines) == 1, (argv, err)
    if not rejected_by_argparse:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


def test_verify_adjacency_cli():
    code, text = run_cli(
        "verify", "--suite", "adjacency", "--h", "2", "--i", "3", "--k", "2",
        "--n", "4", "--trials", "5", "--seed", "2", "--json",
    )
    assert code == 0
    data = json.loads(text)
    assert data["passed"] == data["cases"] == 6


def test_verify_dimension_cli():
    code, _ = run_cli(
        "verify", "--suite", "dimension", "--h", "2", "--i", "3", "--k", "2",
        "--n", "4", "--samples", "1", "--seed", "3",
    )
    assert code == 0


def test_sample_deterministic_bytes():
    _, first = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "5", "--seed", "9")
    _, second = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "5", "--seed", "9")
    assert first == second
    _, third = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "5", "--seed", "10")
    assert first != third


def test_seed_range_validated():
    code, _ = run_cli("sample", "--h", "2", "--i", "3", "--k", "2", "--n", "5", "--seed", "-1")
    assert code == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "grassconf.cli", "pi", "--order", "2",
         "--h", "2", "--i", "4", "--k", "2", "--n", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Z"


def test_cli_without_float_layer_does_not_import_numpy():
    # the package does not use numpy; a fresh interpreter that imports it
    # and runs a command stays free of numpy
    script = (
        "import io, sys\n"
        "import grassconf\n"
        "from grassconf import cli\n"
        "code = cli.main(['strata', '--h', '2', '--k', '2', '--n', '4'], out=io.StringIO())\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


_MODULES_AFTER = (
    "import io, json, sys\n"
    "from grassconf import cli\n"
    "code = cli.main(json.loads(sys.argv[1]), out=io.StringIO())\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)
_SUITES = {"grassconf.homotopy", "grassconf.verify", "grassconf.fibrations"}
_MATRICES = {"grassconf.grassmann", "grassconf.linalg"}
_HIKN = ["--h", "2", "--i", "3", "--k", "2", "--n", "4"]


@pytest.fixture(scope="module")
def bare_interpreter_modules():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv, absent", [
    (["strata", "--h", "3", "--k", "2", "--n", "5", "--json"],
     _SUITES | _MATRICES | {"fractions"}),
    (["sample", *_HIKN, "--seed", "4"], _SUITES),
    (["classify", "{config}", "--json"], _SUITES),
    (["pi", "--order", "2", *_HIKN, "--trace", "--json"],
     {"grassconf.verify", "grassconf.fibrations"} | _MATRICES),
    (["verify", "--suite", "dimension", *_HIKN, "--samples", "1"],
     {"grassconf.fibrations", "grassconf.homotopy"}),
    (["verify", "--suite", "gamma", "--cases", "2"], {"grassconf.homotopy"}),
    (["verify", "--suite", "adjacency", *_HIKN, "--trials", "2"],
     {"grassconf.fibrations", "grassconf.homotopy"}),
], ids=["strata", "sample", "classify", "pi", "verify-dimension", "verify-gamma",
        "verify-adjacency"])
def test_command_loads_only_what_it_runs(tmp_path, bare_interpreter_modules, argv, absent):
    # a fresh interpreter: which modules a command loads; numpy never, and
    # dataclasses and inspect only if the bare interpreter already has them
    config = tmp_path / "c.json"
    assert run_cli("sample", *_HIKN, "--seed", "4", "-o", str(config))[0] == 0
    argv = [str(config) if a == "{config}" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, json.dumps(argv)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert not (absent | {"numpy"}) & set(modules)
    assert not {"dataclasses", "inspect"} & (set(modules) - bare_interpreter_modules)
