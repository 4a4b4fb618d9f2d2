import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import exponent_calc
from expsumlab.cli_harness import main
from expsumlab.errors import UnsupportedStructureError
from expsumlab.exponent_calc import (
    AffineForm,
    BoundExpr,
    ExponentPair,
    Monomial,
    affine_in,
    balance_pair,
    combined_error_exponent,
    dominance_check,
    minimax_balance,
    optimize_type_one,
    parse_bound_expr,
    parse_monomial,
    range_max,
    reduce_rough_segment,
    segment_bound_large,
    segment_bound_small,
    side_condition_gap,
    type_one_bound,
)
from expsumlab.reports import rows_to_csv
from expsumlab.suites import exponent_suite

VARS = ("x", "D", "E", "H", "K", "L")


def _frac():
    return st.builds(F, st.integers(-20, 20).filter(bool), st.integers(1, 12))


def _monomial():
    return st.dictionaries(st.sampled_from(VARS), _frac(), max_size=4).map(
        lambda d: Monomial.of(**d)
    )


def test_parse_basic_forms():
    m = parse_monomial("x^{17/19}*E^{-17/19}")
    assert m.exponent("x") == F(17, 19)
    assert m.exponent("E") == F(-17, 19)
    assert parse_monomial("x") == Monomial.of(x=1)
    assert parse_monomial("1") == Monomial.one()
    assert parse_monomial("x^2/3") == Monomial.of(x=F(2, 3))
    assert parse_monomial(" x ^ { -1 } * D ") == Monomial.of(x=-1, D=1)


def test_parse_rejections():
    with pytest.raises(ValueError):
        parse_monomial("Q^2")
    with pytest.raises(ValueError):
        parse_monomial("x^")
    with pytest.raises(ValueError):
        parse_monomial("")
    # a zero denominator is unreadable text, not an arithmetic error
    for text in ("x^1/0", "x^{1/0}", "x^{-3 / 0}"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_monomial(text)


def test_parse_bound_expr_splits_on_commas():
    e = parse_bound_expr("E, x^{1/2}*E^{-1}")
    assert len(e.terms) == 2
    assert e.terms[0] == Monomial.of(E=1)


@given(_monomial())
@settings(max_examples=200)
def test_str_parse_round_trip(m):
    assert parse_monomial(str(m)) == m


def test_arithmetic():
    a = Monomial.of(x=F(1, 2), D=1)
    b = Monomial.of(x=F(1, 2), D=-1, E=2)
    assert a * b == Monomial.of(x=1, E=2)
    assert a / b == Monomial.of(D=2, E=-2)
    assert a ** F(2, 3) == Monomial.of(x=F(1, 3), D=F(2, 3))
    assert (a ** 0) == Monomial.one()


def test_substitute_exact():
    m = parse_monomial("x^{17/19}*E^{-17/19}")
    out = m.substitute("E", Monomial.of(x=F(17, 36)))
    assert out == Monomial.of(x=F(17, 36))
    # zero exponent leaves the monomial alone
    assert m.substitute("D", Monomial.of(x=5)) == m


@given(_monomial(),
       st.tuples(_frac(), _frac()))
@settings(max_examples=150)
def test_substitution_order_commutes(m, es):
    r1 = Monomial.of(x=es[0])
    r2 = Monomial.of(x=es[1])
    a = m.substitute("D", r1).substitute("E", r2)
    b = m.substitute("E", r2).substitute("D", r1)
    assert a == b


def test_affine_reduction():
    f = affine_in(Monomial.of(x=F(1, 6), D=F(7, 12)))
    assert f == AffineForm(const=F(1, 6), slope=F(7, 12))
    assert f.at(F(11, 21)) == F(17, 36)
    with pytest.raises(UnsupportedStructureError):
        affine_in(Monomial.of(x=1, D=1, H=1))


def test_dominance_endpoints():
    a = Monomial.of(D=F(679, 760))
    b = BoundExpr.of(Monomial.of(D=F(17, 19)))
    res = dominance_check(a, b, F(11, 21), F(3, 4))
    assert res.holds and res.witness is None
    assert len(res.margins) == 2
    for t, va, vb in res.margins:
        assert va <= vb
    rev = dominance_check(b.terms[0], BoundExpr.of(a), F(11, 21), F(3, 4))
    assert not rev.holds
    assert rev.witness == F(11, 21)


def test_dominance_with_assignments():
    # D H^{-1} with H = D^{2/19} collapses onto the first survivor exactly
    res = dominance_check(
        Monomial.of(D=1, H=-1),
        BoundExpr.of(Monomial.of(D=F(17, 19))),
        F(11, 21), F(3, 4),
        assignments={"H": Monomial.of(D=F(2, 19))},
    )
    assert res.holds


def test_minimax_three_term_headline():
    terms = parse_bound_expr("E, x^{17/19}*E^{-17/19}, x^{212/285}*E^{-329/570}")
    res = minimax_balance(terms, F(8, 17), F(1, 2))
    assert res.e_star == F(17, 36)
    assert res.value == F(17, 36)
    assert res.optimum == Monomial.of(x=F(17, 36))
    assert res.active == (0, 1)
    assert not res.boundary


def test_minimax_simple_cases():
    assert minimax_balance(parse_bound_expr("E, x*E^{-1}"), 0, 1).e_star == F(1, 2)
    assert minimax_balance(parse_bound_expr("E, x^{1/2}*E^{-1}"), 0, 1).e_star == F(1, 4)


def test_minimax_boundary_pinning():
    terms = parse_bound_expr("E, x*E^{-1}")
    res = minimax_balance(terms, F(3, 4), F(9, 10))
    assert res.e_star == F(3, 4)
    assert res.boundary


def test_balance_pair_headline():
    res = balance_pair(Monomial.of(D=1, L=-1),
                       Monomial.of(x=F(1, 2), D=F(-1, 6), L=F(1, 2)))
    assert res.l_star == Monomial.of(x=F(-1, 3), D=F(7, 9))
    assert res.value == Monomial.of(x=F(1, 3), D=F(2, 9))
    assert not res.boundary


def test_balance_pair_degenerate():
    with pytest.raises(UnsupportedStructureError):
        balance_pair(Monomial.of(L=1), Monomial.of(x=1, L=1))
    res = balance_pair(Monomial.of(D=1, L=-1), Monomial.of(D=2))
    assert res.boundary and res.l_star is None
    assert res.value == Monomial.of(D=2)
    same_sign = balance_pair(Monomial.of(L=1), Monomial.of(x=1, L=2))
    assert same_sign.boundary and same_sign.value is None


def test_range_max_endpoint_selection():
    expr = BoundExpr.of(Monomial.of(x=F(1, 6), D=F(7, 12)),
                        Monomial.of(D=-1, x=1),
                        Monomial.of(x=F(1, 3)))
    out = range_max(expr, "D", lo=Monomial.of(E=1), hi=Monomial.of(x=F(11, 21)))
    assert out.terms[0] == Monomial.of(x=F(17, 36))
    assert out.terms[1] == Monomial.of(x=1, E=-1)
    assert out.terms[2] == Monomial.of(x=F(1, 3))


def test_exponent_pair_validation():
    ExponentPair(F(1, 2), F(1, 2))
    ExponentPair(0, 1)
    with pytest.raises(ValueError):
        ExponentPair(F(2, 3), 1)
    with pytest.raises(ValueError):
        ExponentPair(0, F(1, 3))


def test_type_one_optimization():
    res = optimize_type_one(ExponentPair(F(1, 2), F(1, 2)))
    assert set(res.terms) == {
        Monomial.of(x=F(1, 3), D=F(2, 9)),
        Monomial.of(x=F(1, 2), D=F(-1, 6)),
        Monomial.of(x=-1, D=2),
    }


def test_type_one_boundary_at_zero_kappa():
    res = optimize_type_one(ExponentPair(0, 1))
    assert set(res.terms) == {Monomial.of(D=1), Monomial.of(x=-1, D=2)}


def test_type_one_bound_shape():
    e = type_one_bound(ExponentPair(F(1, 2), F(1, 2)))
    assert e.terms[0] == Monomial.of(D=1, L=-1)
    assert e.terms[1] == Monomial.of(x=F(1, 2), D=F(-1, 6), L=F(1, 2))
    assert e.terms[2] == Monomial.of(x=-1, D=2)


def test_rough_segment_reduction_survivors():
    res = reduce_rough_segment()
    assert set(res.expr.terms) == {
        Monomial.of(D=F(17, 19)),
        Monomial.of(x=F(1, 6), D=F(329, 570)),
    }
    assert len(res.certificates) >= 3
    for _, cert in res.certificates:
        assert cert.holds


def test_segment_bounds():
    assert segment_bound_small().terms == (Monomial.of(x=F(1, 6), D=F(7, 12)),)
    large = segment_bound_large()
    assert set(large.terms) == {
        Monomial.of(D=F(17, 19)),
        Monomial.of(x=F(1, 6), D=F(329, 570)),
    }


def test_combined_pipeline():
    res = combined_error_exponent()
    assert res.minimax.e_star == F(17, 36)
    assert res.minimax.value == F(17, 36)
    assert res.minimax.optimum == Monomial.of(x=F(17, 36))
    assert res.minimax.active == (0, 1, 2)
    assert res.small_peak.terms == (Monomial.of(x=F(17, 36)),)
    assert set(res.large_peak.terms) == set(
        parse_bound_expr("x^{17/19}*E^{-17/19}, x^{212/285}*E^{-329/570}").terms
    )


def test_side_condition_gap_strict():
    res = side_condition_gap()
    assert res.holds and res.witness is None
    assert len(res.margins) == 2
    for t, a, b in res.margins:
        assert a < b


def test_side_condition_gap_refuses_a_tie(monkeypatch):
    # with K = D^{3/209} both sides are x^{212/399} at t = 11/21: the
    # dominance holds there, but the gap must be strict
    monkeypatch.setattr(exponent_calc, "K_EXPONENT", F(3, 209))
    lhs = Monomial.of(x=1, D=exponent_calc.H_EXPONENT - 1)
    rhs = Monomial.of(D=1 + F(3, 209))
    assert dominance_check(lhs, BoundExpr.of(rhs), *exponent_calc.T_RANGE).holds
    res = side_condition_gap()
    assert res.margins[0] == (F(11, 21), F(212, 399), F(212, 399))
    assert not res.holds and res.witness == F(11, 21)


# The exact layer prints Fraction arithmetic only, so unlike the numpy
# suites its bytes do not depend on the machine: pin them.
EXPCALC_CSV_SHA256 = "b0a90e217946597eff939dc7b3befdbe06e20bcf7c10dd054ae51af0055c4c3f"


def test_exponent_suite_bytes_pinned():
    csv = rows_to_csv(exponent_suite().rows)
    assert hashlib.sha256(csv.encode()).hexdigest() == EXPCALC_CSV_SHA256


@pytest.mark.parametrize("argv, rc, out", [
    (["balance", "--terms", "E, x^{17/19}*E^{-17/19}, x^{212/285}*E^{-329/570}",
      "--range", "8/17:1/2"], 0, "E = x^{17/36}\n"),
    (["dominate", "--a", "D^{679/760}", "--b", "D^{17/19}", "--range", "11/21:3/4"], 0,
     "dominated = yes\n  t = 11/21: 1067/2280 <= 187/399\n  t = 3/4: 2037/3040 <= 51/76\n"),
    (["dominate", "--a", "D^{17/19}", "--b", "D^{679/760}", "--range", "11/21:3/4"], 1,
     "dominated = no\n  t = 11/21: 187/399 vs 1067/2280\n  t = 3/4: 51/76 vs 2037/3040\n"),
    (["substitute", "--terms", "x^{17/19}*E^{-17/19}", "--assign", "E=x^{17/36}"], 0,
     "x^{17/36}\n"),
    (["balance", "--terms", "D*L^{-1}, x^{1/2}*D^{-1/6}*L^{1/2}", "--var", "L"], 0,
     "L* = x^{-1/3} * D^{7/9}\nvalue = x^{1/3} * D^{2/9}\n"),
], ids=["balance-headline", "dominate", "dominate-swapped", "substitute", "balance-pair"])
def test_expcalc_stdout_pinned(capsys, argv, rc, out):
    assert main(["expcalc", *argv]) == rc
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == ""
