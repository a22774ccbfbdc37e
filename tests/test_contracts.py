"""Contract grammar, exact arithmetic, and compatibility tests.

Every expected number for reservation dominance was frozen from the
brute-force enumeration in oracle.py, not from the formulas under test.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from hiersched.contracts import (
    MAX_PERIOD,
    PPM,
    Contract,
    ContractError,
    ServiceClass,
    format_contract,
    parse_contract,
    satisfies,
    utilization,
)
from oracle import worst_case_supply


# ----------------------------------------------------------------- parsing


def test_parse_reservation():
    c = parse_contract("RESBH[10,100]")
    assert c.service is ServiceClass.RESBH
    assert c.budget == 10
    assert c.period == 100


def test_parse_bare_classes():
    assert parse_contract("BE").service is ServiceClass.BE
    assert parse_contract("NULL").service is ServiceClass.NULL
    assert parse_contract("ALL").service is ServiceClass.ALL


def test_parse_share():
    c = parse_contract("PS[250000]")
    assert c.service is ServiceClass.PS
    assert c.share == 250000


def test_parse_budget_exceeds_period():
    with pytest.raises(ContractError) as err:
        parse_contract("RESBH[200,100]")
    assert "budget 200 exceeds period 100" in str(err.value)
    assert err.value.position == 6  # points at the budget digits


def test_parse_tolerates_spaces():
    assert format_contract(parse_contract("PS[ 5 ]")) == "PS[5]"
    assert parse_contract("RESBS[5, 20]") == Contract.resbs(5, 20)


@pytest.mark.parametrize(
    "text,fragment,position",
    [
        ("", "unknown service class", 0),
        ("FOO[1]", "unknown service class 'FOO'", 0),
        ("resbh[1,2]", "unknown service class", 0),
        ("BE[5]", "BE takes 0 parameter(s), got 1", 2),
        ("RESBH[10]", "RESBH takes 2 parameter(s), got 1", 5),
        ("PS[1,2]", "PS takes 1 parameter(s), got 2", 2),
        ("RESBH", "RESBH takes 2 parameter(s), got 0", 5),
        ("RESBH[10,100", "expected ',' or ']'", 12),
        ("RESBH[,100]", "expected integer", 6),
        ("RESBH[10,-5]", "expected integer", 9),
        ("BE garbage", "trailing garbage", 2),
        ("PS[5]x", "trailing garbage 'x'", 5),
        ("RESBH[0,100]", "budget must be positive", 6),
        ("PS[0]", "share 0 outside", 3),
        ("PS[1000001]", "share 1000001 outside", 3),
        (f"RESBH[1,{MAX_PERIOD + 1}]", "exceeds", 8),
        # digits other than ASCII 0-9: superscript two, Arabic-Indic three,
        # fullwidth five
        ("PS[\u00b2]", "expected integer, found '\u00b2'", 3),
        ("RESBH[\u00b2,10]", "expected integer, found '\u00b2'", 6),
        ("RESBH[\u0663,10]", "expected integer, found '\u0663'", 6),
        ("RESBH[1,1\u0663]", "expected ',' or ']', found '\u0663'", 9),
        ("PS[\uff15]", "expected integer, found '\uff15'", 3),
    ],
)
def test_parse_errors_point_at_offender(text, fragment, position):
    with pytest.raises(ContractError) as err:
        parse_contract(text)
    assert fragment in str(err.value)
    assert err.value.position == position


def test_contract_error_is_value_error():
    assert issubclass(ContractError, ValueError)


# -------------------------------------------------------------- formatting


def test_format_null():
    assert format_contract(Contract.null()) == "NULL"


def test_format_round_trip():
    samples = [
        Contract.resbh(1, 1),
        Contract.resbh(10, 100),
        Contract.resbs(7, 31),
        Contract.ps(1),
        Contract.ps(PPM),
        Contract.be(),
        Contract.null(),
        Contract.all_cpu(),
    ]
    for c in samples:
        assert parse_contract(format_contract(c)) == c
        assert str(c) == format_contract(c)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "build",
    [
        lambda: Contract.resbh(0, 10),
        lambda: Contract.resbh(11, 10),
        lambda: Contract.resbh(1, MAX_PERIOD + 1),
        lambda: Contract.ps(0),
        lambda: Contract.ps(PPM + 1),
        lambda: Contract(ServiceClass.BE, budget=1),
        lambda: Contract(ServiceClass.PS, share=5, period=10),
        lambda: Contract(ServiceClass.RESBH, budget=5),
    ],
)
def test_constructor_rejects_bad_shapes(build):
    with pytest.raises(ContractError):
        build()


def test_contracts_are_immutable():
    c = Contract.resbh(10, 100)
    with pytest.raises(Exception):
        c.budget = 20


# ------------------------------------------------------------- utilization


def test_utilization_values():
    assert utilization(Contract.resbh(10, 100)) == Fraction(1, 10)
    assert utilization(Contract.resbs(30, 40)) == Fraction(3, 4)
    assert utilization(Contract.ps(250000)) == Fraction(1, 4)
    assert utilization(Contract.all_cpu()) == 1
    assert utilization(Contract.be()) == 0
    assert utilization(Contract.null()) == 0


def test_utilization_is_exact():
    u = utilization(Contract.resbh(1, 3))
    assert isinstance(u, Fraction)
    assert u == Fraction(1, 3)


# -------------------------------------------------------------- satisfies


def test_satisfies_reflexive():
    for c in [
        Contract.resbh(10, 100),
        Contract.resbs(3, 7),
        Contract.ps(123456),
        Contract.be(),
        Contract.null(),
        Contract.all_cpu(),
    ]:
        assert satisfies(c, c)


def test_satisfies_frozen_reservation_pairs():
    assert satisfies(Contract.resbh(10, 100), Contract.resbh(20, 200))
    assert not satisfies(Contract.resbh(10, 200), Contract.resbh(10, 100))


def test_share_cannot_back_reservations():
    assert not satisfies(Contract.ps(200000), Contract.resbs(10, 100))
    assert not satisfies(Contract.ps(PPM), Contract.resbh(1, 100))


def test_soft_reservation_cannot_back_hard():
    # ample rate and slack, wrong class
    assert not satisfies(Contract.resbs(20, 100), Contract.resbh(10, 100))
    assert satisfies(Contract.resbh(20, 100), Contract.resbs(10, 100))


def test_null_accepts_anything():
    req = Contract.null()
    for p in [Contract.null(), Contract.be(), Contract.ps(1),
              Contract.resbh(1, 2), Contract.all_cpu()]:
        assert satisfies(p, req)


def test_best_effort_accepts_all_but_null():
    req = Contract.be()
    assert not satisfies(Contract.null(), req)
    for p in [Contract.be(), Contract.ps(1), Contract.resbs(1, 9),
              Contract.all_cpu()]:
        assert satisfies(p, req)


def test_all_only_from_all():
    req = Contract.all_cpu()
    assert satisfies(Contract.all_cpu(), req)
    for p in [Contract.resbh(100, 100), Contract.ps(PPM), Contract.be()]:
        assert not satisfies(p, req)


def test_share_from_share_reservation_or_all():
    req = Contract.ps(300000)
    assert satisfies(Contract.ps(300000), req)
    assert not satisfies(Contract.ps(299999), req)
    assert satisfies(Contract.resbh(3, 10), req)  # u = 0.3 meets the share
    assert not satisfies(Contract.resbh(29, 100), req)
    assert satisfies(Contract.all_cpu(), req)
    assert not satisfies(Contract.be(), req)


def test_equal_rate_and_slack_margin_are_not_enough():
    """Dominance needs the whole supply staircase, not its linear summary.

    Provider [9,18] matches requested [10,20] on utilization (1/2) and has
    smaller slack, yet a 33-tick window can observe only 9 units from it
    while [10,20] always delivers 10 there.
    """
    sp = worst_case_supply(9, 18, 40)
    sr = worst_case_supply(10, 20, 40)
    assert sp[33] == 9
    assert sr[33] == 10
    assert not satisfies(Contract.resbh(9, 18), Contract.resbh(10, 20))


def _sufficient_horizon(xp, yp, xr, yr):
    # any dominance violation shows up at a supply-step boundary of the
    # requested server within the first xr corner points
    sp, sr = yp - xp, yr - xr
    return (2 + xr) * (sp + sr) + xp * xr + yp + yr


def test_dominance_matches_oracle_on_exhaustive_grid():
    grid = [(x, y) for y in range(1, 13) for x in range(1, min(5, y) + 1)]
    hmax = max(
        _sufficient_horizon(xp, yp, xr, yr)
        for xp, yp in grid
        for xr, yr in grid
    )
    curves = {
        (x, y): worst_case_supply(x, y, hmax) for x, y in grid
    }
    checked = 0
    for xp, yp in grid:
        for xr, yr in grid:
            expected = bool(np.all(curves[(xp, yp)] >= curves[(xr, yr)]))
            got = satisfies(Contract.resbh(xp, yp), Contract.resbh(xr, yr))
            assert got == expected, f"[{xp},{yp}] vs [{xr},{yr}]"
            checked += 1
    assert checked == len(grid) ** 2


def test_dominance_transitive_on_random_triples():
    rng = random.Random(20260816)
    for _ in range(300):
        cs = []
        for _ in range(3):
            y = rng.randint(1, 40)
            x = rng.randint(1, y)
            cs.append(Contract.resbh(x, y))
        a, b, c = cs
        if satisfies(a, b) and satisfies(b, c):
            assert satisfies(a, c)


def test_satisfies_true_implies_windowed_dominance():
    # conservative direction: a positive answer must never overpromise
    # within the window an admission decision is judged on
    rng = random.Random(987123)
    conservative = 0
    for _ in range(400):
        yp = rng.randint(1, 30)
        xp = rng.randint(1, yp)
        yr = rng.randint(1, 30)
        xr = rng.randint(1, yr)
        horizon = 4 * (yp + yr)
        sp = worst_case_supply(xp, yp, horizon)
        sr = worst_case_supply(xr, yr, horizon)
        windowed = bool(np.all(sp >= sr))
        answer = satisfies(Contract.resbh(xp, yp), Contract.resbh(xr, yr))
        if answer:
            assert windowed
        elif windowed:
            conservative += 1  # violation lies beyond the window; fine
    assert conservative < 40
