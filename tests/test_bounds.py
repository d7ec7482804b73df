"""Tests for the closed-form bound evaluators."""

import pytest

from gallai_ramsey.bounds import (
    BoundValue,
    gr_S62,
    gr_S82,
    gr_St2_bounds,
    gr_Str_bounds,
    ramsey_Str,
)
from gallai_ramsey.colored_graph import ParameterError
from gallai_ramsey.constructions import (
    build_G62,
    build_G82,
    build_general_lower,
    two_clique_witness,
)

GR_S62 = {2: 11, 3: 26, 4: 52, 5: 128, 6: 257, 7: 638}
GR_S82 = {3: 36, 4: 71, 5: 177, 6: 353, 7: 882, 8: 1763}


def test_gr_s62_table():
    for k, want in GR_S62.items():
        b = gr_S62(k)
        assert b.value == want
        assert b.kind == "exact" and b.valid and b.caveat is None
    assert gr_S62(1).value == 6


def test_gr_s82_table():
    for k, want in GR_S82.items():
        assert gr_S82(k).value == want


def test_gr_s82_caveats():
    assert gr_S82(3).caveat is None
    assert gr_S82(4).caveat is None  # both expressions give 71
    b = gr_S82(6)
    assert b.value == 353 and b.caveat == "alternate-expression-gives-352"
    assert gr_S82(8).caveat == "alternate-expression-gives-1757"
    assert gr_S82(7).caveat is None


def test_ramsey_str_special_cases():
    b = ramsey_Str(7, 2)
    assert b.value == 13 and b.kind == "exact" and b.valid
    assert b.caveat == "general-formula-gives-17"
    assert ramsey_Str(10, 2).value == 19
    b = ramsey_Str(15, 3)
    assert b.value == 29 and b.caveat == "general-formula-gives-35"


def test_ramsey_str_general_case():
    b = ramsey_Str(13, 3)  # below the r=3 special threshold
    assert b.value == 31 and b.valid and b.caveat is None
    assert ramsey_Str(25, 4).value == 57
    assert ramsey_Str(19, 4).value == 45  # boundary t = 6r-5


def test_ramsey_str_outside_domain():
    b = ramsey_Str(6, 2)  # below every stated threshold
    assert b.value == 15 and not b.valid
    assert not ramsey_Str(12, 3).valid
    assert not ramsey_Str(17, 4).valid


def test_ramsey_str_malformed():
    with pytest.raises(ParameterError):
        ramsey_Str(7, 1)
    with pytest.raises(ParameterError):
        ramsey_Str(4, 2)


def test_st2_pairs():
    lo, hi = gr_St2_bounds(3, 7)
    assert (lo.value, hi.value) == (31, 35)
    assert lo.kind == "lower" and hi.kind == "upper"
    lo, hi = gr_St2_bounds(2, 6)
    assert (lo.value, hi.value) == (11, 12)
    lo, hi = gr_St2_bounds(4, 10)
    assert (lo.value, hi.value) == (91, 100)


def test_st2_domain_flags():
    lo, hi = gr_St2_bounds(3, 5)  # fan target, outside the stated domain
    assert not lo.valid and not hi.valid
    with pytest.raises(ParameterError):
        gr_St2_bounds(0, 7)
    with pytest.raises(ParameterError):
        gr_St2_bounds(3, 4)


def test_str_pairs():
    lo, hi = gr_Str_bounds(3, 13, 3)
    assert (lo.value, hi.value) == (61, 97)
    lo, hi = gr_Str_bounds(4, 7, 2)
    assert (lo.value, hi.value) == (61, 106)
    lo, hi = gr_Str_bounds(2, 13, 3)
    assert (lo.value, hi.value) == (25, 34)
    assert hi.caveat == "two-color-exact-gives-31"
    assert lo.caveat is None


def test_str_k2_caveat_only_when_exact_applies():
    _, hi = gr_Str_bounds(2, 7, 2)  # upper 18 vs exact 13
    assert hi.caveat == "two-color-exact-gives-13"
    _, hi = gr_Str_bounds(2, 6, 2)  # exact value invalid at t=6
    assert hi.caveat is None
    _, hi = gr_Str_bounds(4, 7, 2)
    assert hi.caveat is None


def test_str_domain_flags():
    lo, hi = gr_Str_bounds(3, 12, 3)  # t < 6r-5
    assert not lo.valid and not hi.valid
    with pytest.raises(ParameterError):
        gr_Str_bounds(3, 6, 3)
    with pytest.raises(ParameterError):
        gr_Str_bounds(3, 7, 0)


def test_formulas_integral_up_to_k20():
    for k in range(1, 21):
        assert isinstance(gr_S62(k).value, int)
        if k >= 3:
            assert isinstance(gr_S82(k).value, int)
        for t in (6, 7, 8, 9, 13, 30):
            lo, hi = gr_St2_bounds(k, t)
            assert lo.value >= 1 and hi.value >= 1
        for t, r in ((7, 1), (8, 1), (13, 1), (13, 3), (19, 4), (30, 4)):
            lo, hi = gr_Str_bounds(k, t, r)
            assert lo.value >= 1 and hi.value >= 1


def test_lower_le_upper_sweep():
    for k in range(1, 13):
        for t in range(5, 31):
            lo, hi = gr_St2_bounds(k, t)
            assert lo.value <= hi.value
            for r in range(1, 5):
                if t - 1 < 2 * r:
                    continue
                lo, hi = gr_Str_bounds(k, t, r)
                assert lo.value <= hi.value


def test_bounds_match_construction_orders():
    # each bound is one more than the order of the tower built to witness it
    for k in range(2, 9):
        assert gr_S62(k).value == build_G62(k, verify=False).graph.n + 1
        if k >= 3:
            assert gr_S82(k).value == build_G82(k, verify=False).graph.n + 1
    assert ramsey_Str(8, 2).value == build_G82(2, verify=False).graph.n + 1
    for k in range(1, 7):
        for t in (6, 7, 10, 13, 25):
            n = build_general_lower(k, t, 1, verify=False).graph.n
            assert gr_St2_bounds(k, t)[0].value == n + 1
            assert gr_Str_bounds(k, t, 2)[0].value == n + 1
    for t in range(7, 13):  # 2t - 1 is sharp for r = 2 from t = 7 on
        assert ramsey_Str(t, 2).value == two_clique_witness(t, verify=False).graph.n + 1


def test_bound_value_rejects_bad_fields():
    with pytest.raises(ParameterError):
        BoundValue("approx", 5)
    with pytest.raises(ParameterError):
        BoundValue("exact", 0)
