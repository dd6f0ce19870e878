import pytest

from grassconf import homotopy
from grassconf.errors import EmptyStratumError, OutOfRangeError, OutOfScopeError, WireFormatError
from grassconf.grassmann import StratumId, is_stratum_nonempty, strata_list
from grassconf.homotopy import (
    TRIVIAL,
    Z,
    DerivationStep,
    DerivationTrace,
    FreeAbelian,
    GroupExpr,
    PiQuery,
    Product,
    PureSphereBraid,
    Symmetric,
    Unknown,
    Zero,
    config_pi1,
    config_pi2,
    config_unordered_pi1,
    derive,
    free_abelian,
    grassmann_pi,
    group_from_json,
    product,
    stiefel_pi,
)


def all_strata(h, k, n):
    if h == 1:
        return [StratumId(1, k, k, n)]
    return strata_list(h, k, n)


# --- normal form -------------------------------------------------------------


def test_product_merges_free_abelian_ranks():
    assert product(free_abelian(2), free_abelian(3)) == FreeAbelian(5)


def test_product_absorbs_trivial_factors():
    assert product(TRIVIAL, Z, TRIVIAL) == Z
    assert product(TRIVIAL, TRIVIAL) == TRIVIAL
    assert product() == TRIVIAL


def test_free_abelian_rank_zero_is_trivial():
    assert free_abelian(0) == Zero()


def test_product_flattens_and_sorts():
    a = product(Symmetric(2), product(Z, PureSphereBraid(3)))
    b = product(PureSphereBraid(3), Z, Symmetric(2))
    assert a == b
    assert isinstance(a, Product)
    assert a.factors[0] == Z


def test_product_with_unknown_is_unknown():
    u = Unknown("left open")
    assert product(Z, u) == u


def test_renderings_are_stable():
    assert Zero().render() == "0"
    assert Z.render() == "Z"
    assert free_abelian(3).render() == "Z^3"
    assert PureSphereBraid(4).render() == "PB_4(S^2)"
    assert Symmetric(3).render() == "Sigma_3"
    assert product(Z, Symmetric(2)).render() == "Z x Sigma_2"
    assert Unknown("reason text").render() == "Unknown(reason text)"
    assert PiQuery(2, 3, 6, 2, 6).render() == "pi_2(F_3^6(2,6))"


def test_group_json_round_trip():
    samples = [
        TRIVIAL,
        Z,
        free_abelian(4),
        PureSphereBraid(5),
        Symmetric(2),
        product(free_abelian(2), Symmetric(3)),
        product(PureSphereBraid(4), Z, Symmetric(3)),
        Unknown("anything"),
        PiQuery(2, 3, 6, 2, 9),
        product(Z, PiQuery(1, 3, 4, 2, 4), PiQuery(2, 2, 3, 2, 3)),
    ]
    for g in samples:
        data = g.to_json()
        assert data["variant"] == type(g).__name__
        assert group_from_json(data) == g


def test_group_json_writes_class_name_and_record_fields():
    data = product(Z, Symmetric(3)).to_json()
    assert data == {
        "variant": "Product",
        "factors": [{"variant": "FreeAbelian", "rank": 1}, {"variant": "Symmetric", "degree": 3}],
    }
    assert PiQuery(2, 3, 6, 2, 9).to_json() == {
        "variant": "PiQuery", "degree": 2, "h": 3, "i": 6, "k": 2, "n": 9,
    }


def test_every_group_variant_is_in_the_variant_table():
    assert set(GroupExpr.__subclasses__()) == set(homotopy._VARIANTS)
    assert len(homotopy._VARIANTS) == len(set(homotopy._VARIANTS))


def test_product_orders_factors_by_variant_then_fields():
    g = product(PiQuery(2, 2, 3, 2, 3), Symmetric(3), PiQuery(1, 3, 4, 2, 4), Symmetric(2),
                PureSphereBraid(5), Z)
    assert g.factors == (Z, PureSphereBraid(5), Symmetric(2), Symmetric(3),
                         PiQuery(1, 3, 4, 2, 4), PiQuery(2, 2, 3, 2, 3))
    with pytest.raises(TypeError):
        product(Z, 3)


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "missing the field 'variant'"),
        ([], "a group must be a JSON object"),
        ({"variant": "Banana"}, "unknown variant 'Banana'"),
        ({"variant": "FreeAbelian"}, "missing the field 'rank'"),
        ({"variant": "FreeAbelian", "rank": 2.7}, "the field 'rank'"),
        ({"variant": "FreeAbelian", "rank": True}, "the field 'rank'"),
        ({"variant": "FreeAbelian", "rank": "2"}, "the field 'rank'"),
        ({"variant": "FreeAbelian", "rank": 0}, "rank 0"),
        ({"variant": "Zero", "rank": 1}, "no field 'rank'"),
        ({"variant": "PiQuery", "degree": 2, "h": 3, "i": 6, "k": 2}, "missing the field 'n'"),
        ({"variant": "PiQuery", "degree": 2, "h": 3, "i": 6, "k": 2, "n": None}, "the field 'n'"),
        ({"variant": "Unknown", "reason": 3}, "the field 'reason'"),
        ({"variant": "Product", "factors": []}, "the field 'factors'"),
        ({"variant": "Product", "factors": {}}, "the field 'factors'"),
        ({"variant": "Product", "factors": [{"variant": "Zero"},
                                            {"variant": "FreeAbelian", "rank": 1}]},
         "the field 'factors'"),
        ({"variant": "Product", "factors": [{"variant": "Symmetric", "degree": 2},
                                            {"variant": "FreeAbelian", "rank": 1}]},
         "the field 'factors'"),
        ({"variant": "Product", "factors": [{"variant": "FreeAbelian", "rank": 1},
                                            {"variant": "FreeAbelian", "rank": 1}]},
         "the field 'factors'"),
        ({"variant": "Product", "factors": [{"variant": "FreeAbelian", "rank": 1},
                                            {"variant": "Unknown", "reason": "open"}]},
         "the field 'factors'"),
        ({"variant": "Product", "factors": [{"variant": "FreeAbelian", "rank": 1}, 5]},
         "a group must be a JSON object"),
        # values outside a record's own range
        ({"variant": "Symmetric", "degree": -2}, "need degree >= 1, got -2"),
        ({"variant": "PureSphereBraid", "strands": 0}, "need strands >= 1, got 0"),
        ({"variant": "PiQuery", "degree": 7, "h": -1, "i": 0, "k": 0, "n": 0},
         "need 0 < k < n, got k=0, n=0"),
        ({"variant": "PiQuery", "degree": 2, "h": 0, "i": 1, "k": 1, "n": 2}, "need h >= 1"),
        ({"variant": "PiQuery", "degree": 0, "h": 2, "i": 2, "k": 1, "n": 2},
         "need degree >= 1, got 0"),
    ],
)
def test_group_from_json_rejects_malformed_input(data, message):
    with pytest.raises(WireFormatError, match=message):
        group_from_json(data)


# --- Stiefel table -----------------------------------------------------------


def test_stiefel_unitary_group_values():
    for n in range(2, 13):
        assert stiefel_pi(1, n, n) == Z
        assert stiefel_pi(2, n, n) == TRIVIAL
        assert stiefel_pi(3, n, n) == Z


def test_stiefel_circle():
    assert stiefel_pi(1, 1, 1) == Z
    assert stiefel_pi(2, 1, 1) == TRIVIAL
    assert stiefel_pi(3, 1, 1) == TRIVIAL


def test_stiefel_last_vector_sphere():
    for n in range(2, 13):
        assert stiefel_pi(3, n - 1, n) == Z


def test_stiefel_generic_trivial():
    assert stiefel_pi(2, 2, 5) == TRIVIAL
    for j in (1, 2, 3):
        for n in range(2, 13):
            for k in range(1, n):
                expected = Z if (j == 3 and k == n - 1) else TRIVIAL
                assert stiefel_pi(j, k, n) == expected, (j, k, n)


def test_stiefel_out_of_range():
    with pytest.raises(OutOfRangeError):
        stiefel_pi(4, 2, 5)


# --- Grassmannian table ------------------------------------------------------


def test_grassmannian_table():
    for n in range(2, 13):
        for k in range(1, n):
            assert grassmann_pi(1, k, n) == TRIVIAL
            assert grassmann_pi(2, k, n) == Z
            expected3 = Z if (k, n) == (1, 2) else TRIVIAL
            assert grassmann_pi(3, k, n) == expected3


def test_grassmannian_duality_symmetry():
    for n in range(2, 13):
        for k in range(1, n):
            for j in (1, 2, 3):
                assert grassmann_pi(j, k, n) == grassmann_pi(j, n - k, n)


def test_grassmannian_out_of_range():
    with pytest.raises(OutOfRangeError):
        grassmann_pi(4, 1, 3)


# --- configuration pi_1 ------------------------------------------------------


def test_pi1_examples():
    assert config_pi1(StratumId(3, 6, 2, 7)) == TRIVIAL
    assert config_pi1(StratumId(4, 2, 1, 2)) == PureSphereBraid(4)
    assert config_pi1(StratumId(2, 2, 1, 5)) == TRIVIAL


def test_pi1_trivial_for_k_greater_than_one():
    for h in range(1, 6):
        for k in range(2, 5):
            for n in range(k + 1, 13):
                for s in all_strata(h, k, n):
                    assert config_pi1(s) == TRIVIAL


def test_pi1_line_cases():
    # the open stratum with n = hk = h reduces by pr to an open stratum
    # with n != hk
    assert config_pi1(StratumId(3, 3, 1, 3)) == TRIVIAL
    assert homotopy.derive(StratumId(4, 4, 1, 4), 1)[1].steps[0].rule == "pr-equality"
    # non-open line strata are not covered
    assert isinstance(config_pi1(StratumId(4, 3, 1, 5)), Unknown)
    # single subspace is a Grassmannian, even over the sphere
    assert config_pi1(StratumId(1, 1, 1, 2)) == TRIVIAL


def test_pi1_of_two_points_of_the_sphere_is_trivial():
    # Conf_2(S^2) deformation retracts onto S^2, so PB_2(S^2) normalizes
    # to 0; from three strands on the atom stays
    value, trace = homotopy.derive(StratumId(2, 2, 1, 2), 1)
    assert value == TRIVIAL and [s.rule for s in trace.steps] == ["sphere-braid-base"]
    trace.replay()
    for h in (3, 4, 5):
        assert config_pi1(StratumId(h, 2, 1, 2)) == PureSphereBraid(h)
    assert homotopy.pure_sphere_braid(1) == homotopy.pure_sphere_braid(2) == TRIVIAL
    with pytest.raises(ValueError, match="strands >= 1"):
        homotopy.pure_sphere_braid(0)


def test_pi1_empty_stratum_raises():
    with pytest.raises(EmptyStratumError):
        config_pi1(StratumId(2, 5, 2, 7))


# --- unordered pi_1 ----------------------------------------------------------


def test_unordered_pi1():
    assert config_unordered_pi1(StratumId(3, 6, 2, 6)) == Symmetric(3)
    assert config_unordered_pi1(StratumId(2, 3, 2, 4)) == Symmetric(2)
    with pytest.raises(OutOfScopeError):
        config_unordered_pi1(StratumId(5, 3, 1, 7))


# --- configuration pi_2 ------------------------------------------------------


def test_pi2_direct_sum_examples():
    assert config_pi2(StratumId(3, 6, 2, 6)) == free_abelian(2)
    assert config_pi2(StratumId(3, 6, 2, 9)) == free_abelian(3)
    assert config_pi2(StratumId(2, 4, 2, 4)) == Z
    assert config_pi2(StratumId(4, 8, 2, 8)) == free_abelian(3)


def test_pi2_pair_examples():
    # i < 2k with i < n
    assert config_pi2(StratumId(2, 3, 2, 4)) == free_abelian(3)
    # i < 2k with i = n
    assert config_pi2(StratumId(2, 4, 3, 4)) == free_abelian(2)
    assert config_pi2(StratumId(2, 5, 3, 5)) == free_abelian(2)


def test_pi2_uncovered_cases_are_unknown():
    for s in (StratumId(3, 4, 2, 6), StratumId(3, 5, 2, 5), StratumId(4, 7, 2, 9)):
        value = config_pi2(s)
        assert isinstance(value, Unknown)


def test_pi2_out_of_scope_for_lines():
    with pytest.raises(OutOfScopeError):
        config_pi2(StratumId(3, 3, 1, 5))


def test_pi2_branches_are_exclusive_and_exhaustive():
    for h in range(1, 6):
        for k in range(2, 5):
            for n in range(k + 1, 13):
                for s in all_strata(h, k, n):
                    branch_a = s.i == s.h * s.k
                    branch_b = s.h == 2 and s.i < 2 * s.k
                    assert not (branch_a and branch_b)
                    value = config_pi2(s)
                    if branch_a or branch_b:
                        assert isinstance(value, (FreeAbelian, Zero))
                    else:
                        assert isinstance(value, Unknown)


# --- derivations -------------------------------------------------------------


def test_derive_direct_sum_trace_shape():
    value, trace = derive(StratumId(2, 4, 2, 4), 2)
    assert value == Z
    assert [s.rule for s in trace.steps] == ["pr-equality", "single-subspace-base"]
    assert trace.replay() == value


def test_derive_pair_trace_shape():
    value, trace = derive(StratumId(2, 3, 2, 4), 2)
    assert value == free_abelian(3)
    rules = [s.rule for s in trace.steps]
    assert rules[0] == "gamma-split"
    assert "eta-split" in rules
    assert trace.replay() == value


def test_derive_pi1_trace_matches_argument_structure():
    value, trace = derive(StratumId(3, 4, 2, 6), 1)
    assert value == TRIVIAL
    rules = [s.rule for s in trace.steps]
    assert rules == ["gamma-reduction", "open-stratum-base"]
    value, trace = derive(StratumId(3, 6, 2, 6), 1)
    assert value == TRIVIAL
    assert [s.rule for s in trace.steps] == ["pr-equality", "open-stratum-base"]


def test_derive_agrees_with_tables_on_grid():
    for h in range(1, 6):
        for k in range(1, 5):
            for n in range(k + 1, 13):
                for s in all_strata(h, k, n):
                    assert is_stratum_nonempty(s)
                    v1, t1 = derive(s, 1)
                    assert v1 == config_pi1(s)
                    assert t1.replay() == v1
                    if k > 1:
                        v2, t2 = derive(s, 2)
                        assert v2 == config_pi2(s)
                        assert t2.replay() == v2


def test_every_rule_row_applies_and_the_last_row_holds_everywhere():
    # on every nonempty stratum with h <= 5 and n <= 10 (pi_2 for k >= 2),
    # each row of each table rewrites some step, and each query rewritten
    # on the way, initial or handed on, satisfies its table's last row
    applied = {1: set(), 2: set()}
    for n in range(2, 11):
        for k in range(1, n):
            for h in range(1, 6):
                for s in all_strata(h, k, n):
                    for j in (1, 2) if k > 1 else (1,):
                        for step in derive(s, j)[1].steps:
                            before = step.before
                            factors = before.factors if isinstance(before, Product) else (before,)
                            q = next(f for f in factors if isinstance(f, PiQuery))
                            assert homotopy._RULES[q.degree][-1][2](q.h, q.i, q.k, q.n)
                            applied[q.degree].add(step.rule)
    for degree, rows in homotopy._RULES.items():
        assert applied[degree] == {row[0] for row in rows}


def test_derive_rejects_higher_degrees_and_lines():
    with pytest.raises(OutOfRangeError):
        derive(StratumId(2, 4, 2, 4), 3)
    with pytest.raises(OutOfScopeError):
        derive(StratumId(2, 2, 1, 4), 2)


def test_trace_replay_detects_tampering():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    broken = type(trace)(trace.initial, trace.steps[1:], trace.result)
    with pytest.raises(ValueError):
        broken.replay()


def _with_steps(trace, steps):
    return type(trace)(trace.initial, tuple(steps), steps[-1].after)


def test_trace_replay_rejects_forged_rule_name():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    forged = [
        DerivationStep("made-up-rule", step.statement, step.before, step.after)
        for step in trace.steps
    ]
    with pytest.raises(ValueError, match="made-up-rule"):
        _with_steps(trace, forged).replay()
    # the statement is checked too, not only the name
    first = trace.steps[0]
    forged = [DerivationStep(first.rule, "a made-up argument", first.before, first.after)]
    forged += trace.steps[1:]
    with pytest.raises(ValueError):
        _with_steps(trace, forged).replay()


def test_trace_replay_rejects_forged_replacement():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    # the steps still chain, and the result matches the last step
    last = trace.steps[-1]
    forged = list(trace.steps[:-1])
    forged.append(DerivationStep(last.rule, last.statement, last.before, free_abelian(2)))
    with pytest.raises(ValueError, match="Z\\^2"):
        _with_steps(trace, forged).replay()
    # a trace that stops at a pending query is not a derivation either
    first = trace.steps[0]
    with pytest.raises(ValueError, match="before the answer"):
        _with_steps(trace, [first]).replay()


def test_trace_replay_rejects_a_step_after_the_answer():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    last = trace.steps[-1]
    extra = DerivationStep(last.rule, last.statement, last.after, last.after)
    with pytest.raises(ValueError, match="step 3 follows the answer"):
        _with_steps(trace, [*trace.steps, extra]).replay()


def test_trace_replay_rejects_a_result_other_than_the_last_after():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    forged = DerivationTrace(trace.initial, trace.steps, free_abelian(2))
    with pytest.raises(ValueError, match="recorded result"):
        forged.replay()


def test_trace_replay_rejects_a_query_with_no_steps():
    _, trace = derive(StratumId(2, 4, 2, 4), 2)
    for result in (trace.initial, trace.result):
        with pytest.raises(ValueError, match="before the answer"):
            DerivationTrace(trace.initial, (), result).replay()


def test_trace_replay_rejects_a_query_of_an_empty_stratum():
    # the stratum is checked before any rule runs, so no EmptyStratumError
    # from a fibration escapes; alone or beside a nonempty query
    empty = PiQuery(1, 2, 5, 2, 4)
    for initial in (empty, product(PiQuery(2, 2, 3, 2, 4), empty)):
        with pytest.raises(ValueError, match=r"names the empty stratum F_2\^5\(2,4\)") as caught:
            DerivationTrace(initial, (), Zero()).replay()
        assert type(caught.value) is ValueError


def test_trace_replay_rejects_a_step_that_does_not_follow_on():
    _, trace = derive(StratumId(3, 6, 2, 9), 2)
    first, second = trace.steps[:2]
    elsewhere = product(Z, PiQuery(2, 3, 6, 2, 7))
    moved = DerivationStep(second.rule, second.statement, elsewhere, second.after)
    with pytest.raises(ValueError, match=r"step 2 starts from Z x pi_2\(F_3\^6\(2,7\)\)"):
        _with_steps(trace, [first, moved, *trace.steps[2:]]).replay()


@pytest.mark.parametrize("initial, steps, result", [
    (product(Z, PiQuery(2, 3, 6, 2, 9)), [
        ("gamma-split", "Z x pi_2(F_3^6(2,9))", "Z^2 x pi_2(F_3^6(2,6))"),
        ("pr-equality", "Z^2 x pi_2(F_3^6(2,6))", "Z^2 x pi_2(F_2^4(2,6))"),
        ("gamma-split", "Z^2 x pi_2(F_2^4(2,6))", "Z^3 x pi_2(F_2^4(2,4))"),
        ("pr-equality", "Z^3 x pi_2(F_2^4(2,4))", "Z^3 x pi_2(F_1^2(2,4))"),
        ("single-subspace-base", "Z^3 x pi_2(F_1^2(2,4))", "Z^4"),
    ], free_abelian(4)),
    (product(PiQuery(1, 2, 3, 2, 5), PiQuery(2, 2, 3, 2, 4)), [
        ("gamma-reduction", "pi_1(F_2^3(2,5)) x pi_2(F_2^3(2,4))",
         "pi_1(F_2^3(2,3)) x pi_2(F_2^3(2,4))"),
        ("open-stratum-base", "pi_1(F_2^3(2,3)) x pi_2(F_2^3(2,4))", "pi_2(F_2^3(2,4))"),
        ("gamma-split", "pi_2(F_2^3(2,4))", "Z x pi_2(F_2^3(2,3))"),
        ("eta-split", "Z x pi_2(F_2^3(2,3))", "Z^2 x pi_2(F_2^2(1,2))"),
        ("pr-equality", "Z^2 x pi_2(F_2^2(1,2))", "Z^2 x pi_2(F_1^1(1,2))"),
        ("single-subspace-base", "Z^2 x pi_2(F_1^1(1,2))", "Z^3"),
    ], free_abelian(3)),
    # a rule rewrites every factor equal to the pending query at once
    (product(PiQuery(2, 2, 3, 2, 4), PiQuery(2, 2, 3, 2, 4)), [
        ("gamma-split", "pi_2(F_2^3(2,4)) x pi_2(F_2^3(2,4))",
         "Z^2 x pi_2(F_2^3(2,3)) x pi_2(F_2^3(2,3))"),
        ("eta-split", "Z^2 x pi_2(F_2^3(2,3)) x pi_2(F_2^3(2,3))",
         "Z^4 x pi_2(F_2^2(1,2)) x pi_2(F_2^2(1,2))"),
        ("pr-equality", "Z^4 x pi_2(F_2^2(1,2)) x pi_2(F_2^2(1,2))",
         "Z^4 x pi_2(F_1^1(1,2)) x pi_2(F_1^1(1,2))"),
        ("single-subspace-base", "Z^4 x pi_2(F_1^1(1,2)) x pi_2(F_1^1(1,2))", "Z^6"),
    ], free_abelian(6)),
], ids=["one-query", "two-queries", "equal-queries"])
def test_rewrite_of_products_with_pending_queries(initial, steps, result):
    derived = homotopy._derivation(initial)
    assert [(s.rule, s.before.render(), s.after.render()) for s in derived] == steps
    assert DerivationTrace(initial, tuple(derived), result).replay() == result
