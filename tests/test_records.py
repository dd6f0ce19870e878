"""The value types built by errors.record keep the behaviour they had as
frozen (and, for VerificationReport, mutable) data classes."""

import copy
import pickle
from fractions import Fraction

import pytest

from grassconf import _strata, grassmann
from grassconf.errors import DuplicatePointsError, FrozenInstanceError
from grassconf.fibrations import ChartPoint, Trivialization
from grassconf.grassmann import Configuration, StratumId, Subspace, canonicalize
from grassconf.homotopy import (
    DerivationStep,
    DerivationTrace,
    FreeAbelian,
    PiQuery,
    Product,
    PureSphereBraid,
    Symmetric,
    Unknown,
    Zero,
)
from grassconf.linalg import GaussianRational, Matrix, gq
from grassconf.verify import VerificationReport

LINE = "Subspace(n=2, k=1, basis=Matrix(rows=1, cols=2, entries=((GaussianRational(" \
    "re=Fraction(1, 1), im=Fraction(0, 1)), GaussianRational(re=Fraction(0, 1), " \
    "im=Fraction(0, 1))),)))"
QUERY = "PiQuery(degree=1, h=2, i=3, k=2, n=5)"
STEP = f"DerivationStep(rule='rule', statement='statement', before={QUERY}, " \
    "after=FreeAbelian(rank=1))"


def _records() -> dict:
    """One fresh instance of every record type, keyed by its repr text as a
    data class printed it, as a format string: {line} and {other} stand
    for the reprs of the parts that carry matrices."""
    line = canonicalize(Matrix.from_rows([[1, 0]]), 2)
    other = canonicalize(Matrix.from_rows([[0, 1]]), 2)
    query = PiQuery(1, 2, 3, 2, 5)
    step = DerivationStep("rule", "statement", query, FreeAbelian(1))
    report = VerificationReport("gamma")
    report.record(4, "bad")
    return {
        "GaussianRational(re=Fraction(1, 1), im=Fraction(-2, 1))": gq(1, -2),
        LINE: line,
        "Configuration(h=2, k=1, n=2, points=({line}, {other}))":
            Configuration.of([line, other]),
        "StratumId(h=2, i=3, k=2, n=5)": StratumId(2, 3, 2, 5),
        "Zero()": Zero(),
        "FreeAbelian(rank=2)": FreeAbelian(2),
        "PureSphereBraid(strands=3)": PureSphereBraid(3),
        "Symmetric(degree=2)": Symmetric(2),
        "Product(factors=(FreeAbelian(rank=1), Symmetric(degree=2)))":
            Product((FreeAbelian(1), Symmetric(2))),
        "Unknown(reason='why')": Unknown("why"),
        QUERY: query,
        STEP: step,
        f"DerivationTrace(initial={QUERY}, steps=({STEP},), result=FreeAbelian(rank=1))":
            DerivationTrace(query, (step,), FreeAbelian(1)),
        "Trivialization(base_point={line}, complement={other})":
            Trivialization.over(line),
        "ChartPoint(base={line}, fiber={other})": ChartPoint(line, other),
        "VerificationReport(suite='gamma', cases=1, passed=0, failures=[('4', 'bad')], "
        "parameters={{}})": report,
    }


TEXTS = list(_records())
FROZEN = [text for text in TEXTS if not text.startswith("VerificationReport")]


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def test_every_former_data_class_is_covered():
    assert len({type(obj) for obj in _records().values()}) == 16


@pytest.mark.parametrize("text", TEXTS)
def test_repr_is_the_data_class_text(text):
    obj = _records()[text]
    line = canonicalize(Matrix.from_rows([[1, 0]]), 2)
    other = canonicalize(Matrix.from_rows([[0, 1]]), 2)
    assert repr(line) == LINE
    assert repr(obj) == text.format(line=LINE, other=repr(other))


def test_equal_fields_in_different_classes_are_not_equal():
    assert FreeAbelian(2) != Symmetric(2)
    assert PureSphereBraid(2) != Symmetric(2)
    assert FreeAbelian(2).__eq__(Symmetric(2)) is NotImplemented
    assert StratumId(2, 3, 2, 5) != (2, 3, 2, 5)
    assert PiQuery(1, 2, 3, 2, 5) != StratumId(2, 3, 2, 5)
    assert len({FreeAbelian(2), Symmetric(2), PureSphereBraid(2)}) == 3


@pytest.mark.parametrize("text", FROZEN)
def test_equal_records_hash_equal(text):
    first, second = _records()[text], _records()[text]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(_fields(first))


def test_mutable_report_compares_by_fields_and_is_unhashable():
    first, second = VerificationReport("gamma"), VerificationReport("gamma")
    assert first == second
    second.record(1, None)
    assert first != second and (second.cases, second.passed) == (1, 1)
    with pytest.raises(TypeError):
        hash(first)


@pytest.mark.parametrize("text", FROZEN)
def test_assigning_or_deleting_a_field_raises(text):
    obj = _records()[text]
    before = repr(obj)
    for name in (*type(obj).__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 7)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert repr(obj) == before


def test_matrix_raises_the_same_frozen_error():
    m = Matrix.identity(2)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'rows'"):
        m.rows = 3
    assert issubclass(FrozenInstanceError, AttributeError)


def test_keyword_and_default_construction():
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert GaussianRational(im=1) == gq(0, 1)
    assert StratumId(h=2, i=3, k=2, n=5) == StratumId(2, 3, 2, 5)
    assert DerivationStep(after=Zero(), before=Zero(), statement="s", rule="r") == \
        DerivationStep("r", "s", Zero(), Zero())
    with pytest.raises(TypeError):
        StratumId(2, 3, 2)
    with pytest.raises(TypeError):
        StratumId(2, 3, 2, 5, h=2)
    first, second = VerificationReport("a"), VerificationReport(suite="b", cases=2)
    assert (first.cases, first.passed, first.failures, first.parameters) == (0, 0, [], {})
    assert (second.suite, second.cases) == ("b", 2)
    assert first.failures is not second.failures
    assert first.parameters is not second.parameters
    first.record("s", "bad")
    first.parameters["h"] = 2
    assert second.failures == [] and second.parameters == {}
    assert VerificationReport("c", failures=first.failures).failures is first.failures


def test_post_init_validation_still_runs():
    assert type(GaussianRational(1, 2).re) is Fraction
    with pytest.raises(ValueError, match="need 0 < k < n"):
        StratumId(2, 3, 0, 5)
    with pytest.raises(ValueError, match="need h >= 1"):
        StratumId(0, 3, 2, 5)
    with pytest.raises(ValueError, match="rank 0 normalizes to Zero"):
        FreeAbelian(0)
    with pytest.raises(ValueError, match="basis shape"):
        Subspace(3, 1, Matrix.unit_rows([0], 2))
    line = canonicalize(Matrix.from_rows([[1, 0]]), 2)
    with pytest.raises(DuplicatePointsError):
        Configuration(2, 1, 2, (line, line))


@pytest.mark.parametrize("text", TEXTS)
def test_copy_deepcopy_and_pickle_round_trip(text):
    obj = _records()[text]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and repr(twin) == repr(obj)


def test_strata_records_live_in_the_matrix_free_module():
    assert StratumId.__module__ == "grassconf._strata"
    for name in ("StratumId", "is_stratum_nonempty", "stratum_dimension", "strata_list",
                 "stratum_closure"):
        assert getattr(grassmann, name) is getattr(_strata, name)
