"""Exact closed-form Ramsey and Gallai-Ramsey bound evaluation.

Every formula is computed in integers, never floats: a closed form with
fractions is multiplied through by its denominator, and the division that
follows is exact or, where the form takes a ceiling, rounds up.  Values
carry a validity flag (parameters inside the stated domain of the formula)
and an optional caveat id where two published expressions for the same
quantity disagree; both values are then reported, the alternate embedded
in the caveat string.

Every k-color evaluator refuses k outside the package's color range 1..255
and t above ``MAX_ORDER`` (``check_order(t, k)``, t = 1 for the fixed
patterns) before it evaluates a power of 5 in k, after the pattern's own
domain check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colored_graph import ParameterError, check_order

__all__ = [
    "BoundValue",
    "ramsey_Str",
    "gr_S62",
    "gr_S82",
    "gr_St2_bounds",
    "gr_Str_bounds",
]


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: an exact value or one side of a pair."""

    kind: str
    value: int
    valid: bool = True
    source: str = ""
    caveat: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "lower", "upper"):
            raise ParameterError(f"unknown bound kind {self.kind!r}")
        if not isinstance(self.value, int) or self.value < 1:
            raise ParameterError("bound value must be a positive integer")


def ramsey_Str(t: int, r: int) -> BoundValue:
    """Two-color Ramsey number R(S_t^r, S_t^r).

    The special exact values for r=2 (t >= 7) and r=3 (t >= 15) take
    precedence over the general formula 2t+2r-1; where both apply they
    disagree, so the general value is surfaced in the caveat.  Outside
    every stated domain the general value is returned with valid=False.
    """
    if r < 2 or t - 1 < 2 * r:
        raise ParameterError(f"no S_{t}^{r} domain: need r >= 2 and t >= 2r+1")
    general = 2 * t + 2 * r - 1
    if r == 2 and t >= 7:
        return BoundValue("exact", 2 * t - 1, True, "r2-special-exact",
                          f"general-formula-gives-{general}")
    if r == 3 and t >= 15:
        return BoundValue("exact", 2 * t - 1, True, "r3-special-exact",
                          f"general-formula-gives-{general}")
    return BoundValue("exact", general, t >= 6 * r - 5, "general-exact")


def gr_S62(k: int) -> BoundValue:
    """Exact k-color Gallai-Ramsey number for S_6^2."""
    check_order(1, k)
    if k % 2 == 0:  # 2*5^(k/2) + 5^((k-2)/2)/4 + 3/4
        value = (8 * 5 ** (k // 2) + 5 ** ((k - 2) // 2) + 3) // 4
    else:  # ceil(51/10 * 5^((k-1)/2) + 1/2)
        value = -(-(51 * 5 ** ((k - 1) // 2) + 5) // 10)
    return BoundValue("exact", value, True, "s62-closed-form")


def gr_S82(k: int) -> BoundValue:
    """Exact k-color Gallai-Ramsey number for S_8^2 (k >= 3).

    For even k two published expressions exist; they agree at k=4 and
    differ by (5^((k-4)/2) - 1)/4 from k=6 on.  The construction order
    plus one matches the value returned here; the alternate is reported
    via the caveat.
    """
    if k < 3:
        raise ParameterError("k must be at least 3")
    check_order(1, k)
    if k % 2 == 0:  # 14*5^((k-2)/2) + 5^((k-4)/2)/2 + 1/2, alternate /4 and 3/4
        value = (28 * 5 ** ((k - 2) // 2) + 5 ** ((k - 4) // 2) + 1) // 2
        alt = (56 * 5 ** ((k - 2) // 2) + 5 ** ((k - 4) // 2) + 3) // 4
        caveat = None if alt == value else f"alternate-expression-gives-{alt}"
        return BoundValue("exact", value, True, "s82-closed-form", caveat)
    # 7*5^((k-1)/2) + 5^((k-3)/2)/4 + 3/4
    value = (28 * 5 ** ((k - 1) // 2) + 5 ** ((k - 3) // 2) + 3) // 4
    return BoundValue("exact", value, True, "s82-closed-form")


def gr_St2_bounds(k: int, t: int) -> tuple[BoundValue, BoundValue]:
    """Lower/upper pair for the k-color Gallai-Ramsey number of S_t^2."""
    if t < 5:
        raise ParameterError("S_t^2 needs t >= 5")
    check_order(t, k)
    valid = t >= 6
    if k % 2 == 0:
        e = 5 ** ((k - 2) // 2)
        lo, hi = 2 * (t - 1) * e + 1, 2 * t * e
    else:
        e = 5 ** ((k - 1) // 2)
        lo, hi = (t - 1) * e + 1, t * e
    return (BoundValue("lower", lo, valid, "st2-lower-formula"),
            BoundValue("upper", hi, valid, "st2-upper-formula"))


def gr_Str_bounds(k: int, t: int, r: int) -> tuple[BoundValue, BoundValue]:
    """Lower/upper pair for the k-color Gallai-Ramsey number of S_t^r.

    The lower bound is the same blow-up formula as the r=2 pair.  At
    k=2 the upper formula can exceed the known two-color exact value;
    that value is then attached as a caveat rather than substituted.
    """
    if r < 1 or t - 1 < 2 * r:
        raise ParameterError(f"no S_{t}^{r} pattern: need 1 <= r <= (t-1)/2")
    check_order(t, k)
    valid = t >= 6 * r - 5
    if k % 2 == 0:
        e = 5 ** ((k - 2) // 2)
        lo = 2 * (t - 1) * e + 1
        hi = (2 * t + 8 * (r - 1)) * e - 4 * (r - 1)
    else:
        e = 5 ** ((k - 1) // 2)
        lo = (t - 1) * e + 1
        hi = (t + 4 * (r - 1)) * e - 4 * (r - 1)
    caveat = None
    if k == 2 and r >= 2:
        exact = ramsey_Str(t, r)
        if exact.valid and exact.value != hi:
            caveat = f"two-color-exact-gives-{exact.value}"
    return (BoundValue("lower", lo, valid, "st2-lower-formula"),
            BoundValue("upper", hi, valid, "str-upper-formula", caveat))
