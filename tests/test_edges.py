"""Error paths and edge behavior across modules."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from grassconf._strata import fibration
from grassconf.errors import (
    EmptyStratumError,
    GrassconfError,
    MixedAmbientError,
    NotComplementaryError,
    NotDirectSumError,
    OutsideChartError,
    WireFormatError,
)
from grassconf.fibrations import (
    ChartPoint,
    Trivialization,
    chart_point,
    eta_fiber_lift,
    eta_fiber_point,
    extend_isomorphism,
    gamma_trivialize,
    gamma_untrivialize,
    pr_trivialize,
    pr_untrivialize,
)
from grassconf.grassmann import (
    Configuration,
    StratumId,
    canonicalize,
    complement,
    configuration_from_json,
    configuration_to_json,
    projection_along,
    sample_configuration,
    sample_subspace,
    stratum_closure,
    stratum_dimension,
    subspace_from_json,
    subspace_sum,
)
from grassconf.homotopy import (
    PiQuery,
    config_pi1,
    config_unordered_pi1,
    derive,
    free_abelian,
    group_from_json,
)
from grassconf.linalg import (
    GaussianRational,
    Matrix,
    gq,
    matrix_from_json,
    matrix_to_json,
)
from grassconf.verify import check_dimension, run_roundtrip_suite


def unit_rows(n, *idx):
    return Matrix.from_rows([[1 if j == i else 0 for j in range(n)] for i in idx])


_EMPTY = StratumId(2, 5, 2, 4)  # i = 5 exceeds min(hk, n) = 4
_EMPTY_GRID = {"h": 2, "i": 5, "k": 2, "n": 4}


@pytest.mark.parametrize("entry", [
    stratum_dimension,
    stratum_closure,
    lambda s: sample_configuration(s, 0),
    check_dimension,
    lambda s: run_roundtrip_suite("gamma", grid=_EMPTY_GRID, cases=1),
    lambda s: run_roundtrip_suite("eta", grid=_EMPTY_GRID, cases=1),
    lambda s: fibration("gamma", s),
    lambda s: derive(s, 1),
    lambda s: derive(s, 2),
    config_pi1,
    config_unordered_pi1,
], ids=["stratum_dimension", "stratum_closure", "sample_configuration", "check_dimension",
        "gamma-suite", "eta-suite", "fibration", "derive-1", "derive-2", "config_pi1",
        "config_unordered_pi1"])
def test_every_entry_rejects_an_empty_stratum_alike(entry):
    with pytest.raises(EmptyStratumError) as exc:
        entry(_EMPTY)
    assert str(exc.value) == "F_2^5(2,4) is empty"


# --- linalg -------------------------------------------------------------------


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_scalar_renderings():
    assert str(gq(0)) == "0"
    assert str(gq(Fraction(3, 2))) == "3/2"
    assert str(gq(0, 1)) == "i"
    assert str(gq(0, -1)) == "-i"
    assert str(gq(1, Fraction(-1, 3))) == "1-1/3i"
    assert str(gq(Fraction(1, 2), 2)) == "1/2+2i"


def test_matrix_shape_errors():
    a = Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        a + Matrix.zeros(3, 2)
    with pytest.raises(ValueError):
        a @ Matrix.zeros(2, 2)
    with pytest.raises(ValueError):
        Matrix.from_rows([])
    with pytest.raises(ValueError):
        Matrix(2, 2, ((gq(1),),))


def test_matrix_json_entry_count_checked():
    data = matrix_to_json(Matrix.zeros(2, 2))
    data["entries"] = data["entries"][:-1]
    with pytest.raises(ValueError):
        matrix_from_json(data)


def test_matrix_columns_picks_by_index():
    m = Matrix.from_rows([[2, gq(0, 1), Fraction(1, 3)], [4, 0, 6]])
    assert m.columns([2, 0]) == Matrix.from_rows([[Fraction(1, 3), 2], [6, 4]])
    assert m.columns([1, 1]) == Matrix.from_rows([[gq(0, 1), gq(0, 1)], [0, 0]])
    assert m.columns([]) == Matrix.zeros(2, 0)
    assert m.columns(range(3)) == m
    # the row (1/2, 1/3, 1/4) is stored as (12, (6, 4, 3)); its first two
    # columns are (1/2, 1/3), stored primitive as (6, (3, 2)), not (12, (6, 4))
    thirds = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]])
    assert thirds.zrows == ((12, ((6, 0), (4, 0), (3, 0))),)
    assert thirds.columns([0, 1]).zrows == ((6, ((3, 0), (2, 0))),)
    for bad in ([3], [-1], [0, 5]):
        with pytest.raises(ValueError, match="out of range"):
            m.columns(bad)


def test_wire_counts_name_a_non_integer_field():
    # each count field of the three wire objects, holding 2.5
    sampled = configuration_to_json(sample_configuration(StratumId(2, 3, 2, 4), 0))
    cases = [
        (matrix_from_json, sampled["points"][0]["basis"], "rows", "a matrix"),
        (matrix_from_json, sampled["points"][0]["basis"], "cols", "a matrix"),
        (subspace_from_json, sampled["points"][0], "n", "a subspace"),
        (subspace_from_json, sampled["points"][0], "k", "a subspace"),
        (configuration_from_json, sampled, "h", "a configuration"),
    ]
    for read, data, key, what in cases:
        with pytest.raises(WireFormatError) as info:
            read({**data, key: 2.5})
        assert str(info.value) == f"the field {key!r} of {what}: expected an integer, got 2.5"
    with pytest.raises(WireFormatError, match="the field 'n' of a subspace: expected an integer"):
        subspace_from_json({"n": 2.5, "k": 1, "basis": {}})


# --- grassmann ----------------------------------------------------------------


def test_subspace_rejects_non_canonical_basis():
    from grassconf.grassmann import Subspace

    with pytest.raises(ValueError):
        Subspace(3, 1, Matrix.from_rows([[2, 0, 0]]))
    with pytest.raises(ValueError):
        Subspace(3, 2, Matrix.from_rows([[0, 1, 0], [1, 0, 0]]))


def test_stratum_id_validation():
    with pytest.raises(ValueError):
        StratumId(2, 3, 0, 4)
    with pytest.raises(ValueError):
        StratumId(2, 3, 4, 4)
    with pytest.raises(ValueError):
        StratumId(0, 2, 1, 3)


def test_canonicalize_wrong_ambient():
    with pytest.raises(MixedAmbientError):
        canonicalize(Matrix.from_rows([[1, 0]]), 3)


def test_projection_mixed_ambient():
    a = sample_subspace(1, 3, 0)
    b = sample_subspace(2, 4, 0)
    with pytest.raises(MixedAmbientError):
        projection_along(a, b)


def test_sample_subspace_deterministic():
    assert sample_subspace(2, 5, 7) == sample_subspace(2, 5, 7)
    assert sample_subspace(2, 5, 7) != sample_subspace(2, 5, 8)


# --- fibrations ---------------------------------------------------------------


def test_trivialization_rejects_non_complementary_pair():
    v0 = canonicalize(unit_rows(4, 0, 1), 4)
    bad = canonicalize(unit_rows(4, 1, 2), 4)
    with pytest.raises(NotComplementaryError):
        Trivialization.over(v0, bad)


def test_extend_isomorphism_dimension_mismatch():
    triv = Trivialization.over(canonicalize(unit_rows(4, 0, 1), 4))
    line = canonicalize(unit_rows(4, 2), 4)
    with pytest.raises(OutsideChartError):
        extend_isomorphism(line, triv)


def test_gamma_untrivialize_rejects_fiber_outside_base_point():
    c = sample_configuration(StratumId(2, 3, 2, 5), 0)
    total = subspace_sum(c.points)
    triv = Trivialization.over(total)
    point = gamma_trivialize(c, triv)
    stray = sample_configuration(StratumId(2, 4, 2, 5), 1)
    with pytest.raises(OutsideChartError):
        gamma_untrivialize(ChartPoint(base=point.base, fiber=stray), triv)


def test_gamma_untrivialize_type_checks():
    c = sample_configuration(StratumId(2, 3, 2, 5), 0)
    triv = Trivialization.over(subspace_sum(c.points))
    with pytest.raises(TypeError):
        gamma_untrivialize(ChartPoint(base=c, fiber=c), triv)


def test_pr_untrivialize_rejects_fiber_meeting_base_point():
    pts = tuple(canonicalize(unit_rows(6, 2 * j, 2 * j + 1), 6) for j in range(3))
    c = Configuration(3, 2, 6, pts)
    v0 = subspace_sum(pts[:2])
    triv = Trivialization.over(v0)
    point = pr_trivialize(c, triv)
    bad = ChartPoint(base=point.base, fiber=canonicalize(unit_rows(6, 0, 1), 6))
    with pytest.raises(OutsideChartError):
        pr_untrivialize(bad, triv)


def test_eta_fiber_lift_validates_quotient_pair():
    h1 = canonicalize(unit_rows(4, 0, 1), 4)
    h2 = canonicalize(unit_rows(4, 0, 2), 4)
    c = Configuration(2, 2, 4, (h1, h2))
    v0 = canonicalize(unit_rows(4, 0), 4)
    triv = Trivialization.over(v0)
    point = eta_fiber_point(c, triv)
    outside = canonicalize(unit_rows(4, 0), 4)  # lies in V0, not in L0
    with pytest.raises(OutsideChartError):
        eta_fiber_lift(ChartPoint(base=point.base, fiber=(outside, point.fiber[1])), triv)
    first = point.fiber[0]
    with pytest.raises(OutsideChartError):
        eta_fiber_lift(ChartPoint(base=point.base, fiber=(first, first)), triv)


def test_chart_point_shape_validation():
    w = canonicalize(unit_rows(5, 0, 1, 2), 5)
    with pytest.raises(ValueError):
        chart_point(Matrix.zeros(2, 2), w)


# --- homotopy -----------------------------------------------------------------


def test_free_abelian_guards():
    with pytest.raises(ValueError):
        free_abelian(-1)
    from grassconf.homotopy import FreeAbelian

    with pytest.raises(ValueError):
        FreeAbelian(0)


def test_group_json_unknown_variant():
    with pytest.raises(ValueError):
        group_from_json({"variant": "Banana"})


def test_pi_query_json_round_trip():
    q = PiQuery(2, 3, 6, 2, 9)
    assert group_from_json(q.to_json()) == q


def test_derive_empty_stratum():
    from grassconf.errors import EmptyStratumError

    with pytest.raises(EmptyStratumError):
        derive(StratumId(2, 2, 2, 5), 1)


def test_stiefel_grassmann_param_validation():
    from grassconf.homotopy import grassmann_pi, stiefel_pi

    with pytest.raises(ValueError):
        stiefel_pi(1, 0, 3)
    with pytest.raises(ValueError):
        stiefel_pi(1, 4, 3)
    with pytest.raises(ValueError):
        grassmann_pi(2, 3, 3)


# --- verify -------------------------------------------------------------------


def test_verify_parameter_validation():
    from grassconf.verify import check_adjacency, check_dimension, run_roundtrip_suite

    c = sample_configuration(StratumId(2, 3, 2, 4), 0)
    with pytest.raises(ValueError):
        check_adjacency(c, 4, Fraction(0))
    with pytest.raises(ValueError):
        run_roundtrip_suite("moebius")
    with pytest.raises(ValueError):
        run_roundtrip_suite("gamma", grid={"h": 2})
    with pytest.raises(ValueError, match="samples"):
        check_dimension(StratumId(2, 3, 2, 4), samples=-1)
    with pytest.raises(ValueError, match="trials"):
        check_adjacency(c, 4, Fraction(1, 10), trials=-3)
    with pytest.raises(ValueError, match="cases"):
        run_roundtrip_suite("gamma", cases=-5)
    # a grid key the suite does not use is refused by name before the first case
    with pytest.raises(ValueError, match=r"grid for gamma has unknown keys \['nn'\]"):
        run_roundtrip_suite("gamma", grid={"h": 2, "i": 3, "k": 2, "n": 5, "nn": 7})
    with pytest.raises(ValueError, match=r"grid for pr has unknown keys \['i'\]"):
        run_roundtrip_suite("pr", grid={"h": 3, "i": 6, "k": 2, "n": 6})
    # an empty grid is a grid with every key missing, not the default one
    with pytest.raises(ValueError, match=r"grid for gamma is missing \['h', 'i', 'k', 'n'\]"):
        run_roundtrip_suite("gamma", grid={})
    with pytest.raises(ValueError, match=r"grid for pr is missing \['h', 'k', 'n'\]"):
        run_roundtrip_suite("pr", grid={})
    # every grid value is an int, checked before the first case
    with pytest.raises(TypeError, match=r"grid\['h'\] must be an int, not float"):
        run_roundtrip_suite("gamma", grid={"h": 2.0, "i": 3, "k": 2, "n": 5})
    with pytest.raises(TypeError, match=r"grid\['n'\] must be an int, not str"):
        run_roundtrip_suite("pr", grid={"h": 3, "k": 2, "n": "5"})
    with pytest.raises(TypeError, match=r"grid\['h'\] must be an int, not bool"):
        run_roundtrip_suite("eta", grid={"h": True, "i": 2, "k": 1, "n": 3})
    assert check_dimension(StratumId(2, 3, 2, 4), samples=0).cases == 0
    assert check_adjacency(c, 4, Fraction(1, 10), trials=0).cases == 1
    assert run_roundtrip_suite("gamma", cases=0).cases == 0


def test_fibration_refuses_pr_off_a_direct_sum():
    # no suite reaches this refusal: a pr grid point names F_h^(hk)
    with pytest.raises(NotDirectSumError) as exc:
        fibration("pr", StratumId(3, 5, 2, 6))
    assert str(exc.value) == "F_3^5(2,6) is not a direct sum (i != hk)"


def _grid_outcome(which, grid):
    try:
        run_roundtrip_suite(which, grid=grid, cases=0)
    except (GrassconfError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def test_roundtrip_suites_refuse_each_grid_point_as_pinned():
    # cases=0 runs no case but still checks every grid point; each refusal's
    # type and text is pinned, and so is the order of the checks: the
    # arity comes before the stratum is built (pr with h = 0 or k = n still
    # names it), emptiness before gamma's full sum and eta's direct sum
    outcomes = {}
    for which in ("gamma", "pr", "eta"):
        for h in range(5):
            for n in range(1, 8):
                for k in range(1, n + 1):
                    for i in [None] if which == "pr" else range(n + 2):
                        grid = {"h": h, "k": k, "n": n, **({} if i is None else {"i": i})}
                        outcomes[which, h, i, k, n] = _grid_outcome(which, grid)
    assert outcomes["gamma", 2, 3, 2, 5] == "accepted"
    assert outcomes["gamma", 0, 3, 2, 5] == "ValueError: need h >= 1"
    assert outcomes["gamma", 2, 4, 2, 4] == (
        "FullSpaceError: F_2^4(2,4) sums to C^4; the chart complement would be zero"
    )
    assert outcomes["gamma", 2, 5, 2, 5] == "EmptyStratumError: F_2^5(2,5) is empty"
    assert outcomes["pr", 3, None, 2, 6] == "accepted"
    for h, k, n in ((0, 3, 3), (1, 2, 4), (1, 3, 3)):
        assert outcomes["pr", h, None, k, n] == (
            "WrongArityError: need at least two subspaces to forget one"
        )
    assert outcomes["pr", 3, None, 2, 5] == "EmptyStratumError: F_3^6(2,5) is empty"
    assert outcomes["pr", 2, None, 3, 3] == "ValueError: need 0 < k < n, got k=3, n=3"
    assert outcomes["eta", 2, 3, 2, 4] == "accepted"
    assert outcomes["eta", 3, 3, 2, 4] == "WrongArityError: the intersection map applies to pairs"
    assert outcomes["eta", 2, 4, 2, 5] == (
        "DirectSumError: F_2^4(2,5) is in direct sum; the intersection is zero"
    )
    kinds = Counter((which, outcome.split(":")[0]) for (which, *_), outcome in outcomes.items())
    assert kinds == {
        ("gamma", "accepted"): 104, ("gamma", "EmptyStratumError"): 466,
        ("gamma", "FullSpaceError"): 46, ("gamma", "ValueError"): 364,
        ("pr", "accepted"): 23, ("pr", "EmptyStratumError"): 40, ("pr", "ValueError"): 21,
        ("pr", "WrongArityError"): 56,
        ("eta", "accepted"): 22, ("eta", "DirectSumError"): 12, ("eta", "EmptyStratumError"): 120,
        ("eta", "ValueError"): 42, ("eta", "WrongArityError"): 784,
    }
    text = "".join(f"{key}: {outcome}\n" for key, outcome in outcomes.items())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "de9c6c9fc80208efe87f42dc56cfa21cb87a18b18d164dbe20f16260b8f69c62"
    )


@pytest.mark.parametrize("count", [True, 2.5, "3", None], ids=repr)
@pytest.mark.parametrize("name", ["samples", "trials", "cases", "target_i"])
def test_verify_counts_must_be_ints(name, count, monkeypatch):
    # a bool would run one case and a float would fail mid-run: both are
    # refused before any exact work, naming the parameter
    from grassconf import linalg
    from grassconf.verify import check_adjacency, check_dimension, run_roundtrip_suite

    c = sample_configuration(StratumId(2, 3, 2, 4), 0)
    run = {
        "samples": lambda: check_dimension(StratumId(2, 3, 2, 4), samples=count),
        "trials": lambda: check_adjacency(c, 4, Fraction(1, 10), trials=count),
        "cases": lambda: run_roundtrip_suite("gamma", cases=count),
        "target_i": lambda: check_adjacency(c, count, Fraction(1, 10)),
    }[name]

    def no_work(*args, **kwargs):
        raise AssertionError("exact work before the count was checked")
    monkeypatch.setattr(linalg, "_integer_rref", no_work)
    with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(count).__name__}$"):
        run()


# --- cli ----------------------------------------------------------------------


def test_cli_pi_text_trace(capsys):
    import io

    from grassconf.cli import main

    out = io.StringIO()
    code = main(
        ["pi", "--order", "2", "--h", "2", "--i", "4", "--k", "2", "--n", "4", "--trace"],
        out=out,
    )
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "query: pi_2(F_2^4(2,4))"
    assert lines[-1] == "answer: Z"
    assert any("pr-equality" in line for line in lines)


def test_cli_sample_stdout_parses():
    import io

    from grassconf.cli import main

    out = io.StringIO()
    code = main(["sample", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--seed", "1"], out=out)
    assert code == 0
    data = json.loads(out.getvalue())
    assert data["h"] == 2 and len(data["points"]) == 2


def test_cli_order_choice_rejected():
    from grassconf.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["pi", "--order", "3", "--h", "2", "--i", "4", "--k", "2", "--n", "4"])
    assert exc.value.code == 2


def test_cli_classify_json(tmp_path):
    import io

    from grassconf.cli import main

    target = tmp_path / "c.json"
    main(["sample", "--h", "2", "--i", "3", "--k", "2", "--n", "4", "--seed", "3",
          "-o", str(target)])
    out = io.StringIO()
    code = main(["classify", str(target), "--json"], out=out)
    assert code == 0
    assert json.loads(out.getvalue()) == {"h": 2, "i": 3, "k": 2, "n": 4}


def test_cli_verify_missing_flags_exit_2():
    import io

    from grassconf.cli import main

    code = main(["verify", "--suite", "dimension"], out=io.StringIO())
    assert code == 2
