"""Service contracts: the QoS vocabulary spoken between schedulers.

A contract names a service class plus its parameters, written ``TYPE[param]``:
RESBH[budget,period] and RESBS[budget,period] are hard/soft reservations,
PS[share] is a proportional share in ppm of one CPU, BE is best effort, NULL is
zero service and ALL is the whole CPU (root only). All arithmetic on contracts
is exact and no value is ever a float: admission works on each contract's
utilization as an integer pair (`Contract.ratio`), and only the
utilizations the package returns are built as Fractions, where they are
asked for, so no module imports `fractions` when it loads.

Every record of the package is a `collections.namedtuple`: `Contract` here,
`SchedulerSpec`, `DeploymentRequest` and `Workload` in the modules that take
them, and the records the package returns. A record with methods or a
docstring subclasses its namedtuple with empty `__slots__`, as `Contract`
does. Each compares and hashes by value, its fields are read-only, and it
behaves as a tuple: it has a length, iterates, indexes, and equals a plain
tuple of the same values. `Contract`, `SchedulerSpec` and `Workload`
check their values, and `_replace` checks the copy anew.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

PPM = 1_000_000
MAX_PERIOD = 2 ** 31


class ServiceClass(Enum):
    RESBH = "RESBH"
    RESBS = "RESBS"
    PS = "PS"
    BE = "BE"
    NULL = "NULL"
    ALL = "ALL"


RESERVATION_CLASSES = (ServiceClass.RESBH, ServiceClass.RESBS)

# arity of the bracket parameter list per class
_ARITY = {
    ServiceClass.RESBH: 2,
    ServiceClass.RESBS: 2,
    ServiceClass.PS: 1,
    ServiceClass.BE: 0,
    ServiceClass.NULL: 0,
    ServiceClass.ALL: 0,
}


class ContractError(ValueError):
    """Malformed contract text or parameters; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (position {position})")
        self.position = position


class Contract(namedtuple("Contract", "service budget period share")):
    """Immutable service contract value.

    budget/period are set for reservations only, share for PS only; the other
    classes carry no parameters.
    """

    __slots__ = ()

    def __new__(cls, service: ServiceClass, budget: int | None = None,
                period: int | None = None, share: int | None = None):
        fault = _fault(service, budget, period, share)
        if fault is not None:
            raise ContractError(fault[0])
        return super().__new__(cls, service, budget, period, share)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates

    # constructors used throughout the package and tests
    @classmethod
    def resbh(cls, budget: int, period: int) -> "Contract":
        return cls(ServiceClass.RESBH, budget=budget, period=period)

    @classmethod
    def resbs(cls, budget: int, period: int) -> "Contract":
        return cls(ServiceClass.RESBS, budget=budget, period=period)

    @classmethod
    def ps(cls, share: int) -> "Contract":
        return cls(ServiceClass.PS, share=share)

    @classmethod
    def be(cls) -> "Contract":
        return cls(ServiceClass.BE)

    @classmethod
    def null(cls) -> "Contract":
        return cls(ServiceClass.NULL)

    @classmethod
    def all_cpu(cls) -> "Contract":
        return cls(ServiceClass.ALL)

    def is_reservation(self) -> bool:
        return self.service in RESERVATION_CLASSES

    @property
    def ratio(self) -> tuple[int, int]:
        """The utilization as an integer pair (numerator, denominator), not
        reduced: (budget, period), (share, PPM), (1, 1) for ALL and (0, 1)
        for the classes that take no capacity."""
        s = self.service
        if s in RESERVATION_CLASSES:
            return self.budget, self.period
        if s is ServiceClass.PS:
            return self.share, PPM
        return (1, 1) if s is ServiceClass.ALL else (0, 1)

    @property
    def utilization(self) -> "Fraction":
        """CPU fraction the contract stands for, as an exact Fraction in [0, 1]."""
        from fractions import Fraction
        return Fraction(*self.ratio)

    def __str__(self) -> str:
        return format_contract(self)


def _fault(service, budget, period, share):
    """What is wrong with a contract's parameters, or None if nothing is:
    (message, index of the parameter at fault in the class's text form,
    `budget` and `share` 0, `period` 1). Faults that no text form can
    carry, a non-integer or a parameter the class does not take, give 0."""
    if service in RESERVATION_CLASSES:
        if not isinstance(budget, int) or not isinstance(period, int):
            return f"{service.value} needs integer budget and period", 0
        if budget < 1:
            return "budget must be positive", 0
        if period > MAX_PERIOD:
            return f"period {period} exceeds {MAX_PERIOD}", 1
        if budget > period:
            return f"budget {budget} exceeds period {period}", 0
        if share is not None:
            return f"{service.value} takes no share", 0
    elif service is ServiceClass.PS:
        if not isinstance(share, int):
            return "PS needs an integer share", 0
        if not 0 < share <= PPM:
            return f"share {share} outside (0, {PPM}]", 0
        if budget is not None or period is not None:
            return "PS takes no budget/period", 0
    elif budget is not None or period is not None or share is not None:
        return f"{service.value} takes no parameters", 0
    return None


_CLASS_NAMES = {c.value: c for c in ServiceClass}


def parse_contract(text: str) -> Contract:
    """Parse ``TYPE``, ``TYPE[n]`` or ``TYPE[n,m]`` into a Contract.

    Spaces are tolerated around parameters inside the brackets and after
    commas; nothing else. Errors name the offending token and its position.
    """
    if not isinstance(text, str):
        raise ContractError("contract must be a string")
    i = 0
    while i < len(text) and text[i].isalpha():
        i += 1
    token = text[:i]
    if token not in _CLASS_NAMES:
        shown = token if token else (text[:1] or "<empty>")
        raise ContractError(f"unknown service class {shown!r}", 0)
    service = _CLASS_NAMES[token]

    params: list[tuple[int, int]] = []  # (value, position of first digit)
    bracket = i  # where the parameters start, or would
    if i < len(text) and text[i] == "[":
        i += 1
        while True:
            while i < len(text) and text[i] == " ":
                i += 1
            start = i
            while i < len(text) and "0" <= text[i] <= "9":  # ASCII only
                i += 1
            if i == start:
                found = text[i] if i < len(text) else "<end>"
                raise ContractError(f"expected integer, found {found!r}", i)
            try:
                params.append((int(text[start:i]), start))
            except ValueError:  # past the interpreter's digit limit
                raise ContractError(f"integer too long ({i - start} digits)", start) from None
            while i < len(text) and text[i] == " ":
                i += 1
            if i < len(text) and text[i] == ",":
                i += 1
                continue
            if i < len(text) and text[i] == "]":
                i += 1
                break
            found = text[i] if i < len(text) else "<end>"
            raise ContractError(f"expected ',' or ']', found {found!r}", i)
    if len(params) != _ARITY[service]:
        raise ContractError(
            f"{service.value} takes {_ARITY[service]} parameter(s), got {len(params)}",
            bracket,
        )

    if i != len(text):
        raise ContractError(f"trailing garbage {text[i:]!r}", i)

    budget = period = share = None
    if service in RESERVATION_CLASSES:
        budget, period = (value for value, _ in params)
    elif service is ServiceClass.PS:
        share = params[0][0]
    fault = _fault(service, budget, period, share)
    if fault is not None:
        raise ContractError(fault[0], params[fault[1]][1])
    return Contract(service, budget, period, share)


def format_contract(c: Contract) -> str:
    """Canonical text form: no spaces, round-trips through parse_contract."""
    if c.is_reservation():
        return f"{c.service.value}[{c.budget},{c.period}]"
    if c.service is ServiceClass.PS:
        return f"PS[{c.share}]"
    return c.service.value


def utilization(c: Contract) -> "Fraction":
    """CPU fraction the contract stands for, as an exact rational in [0, 1]."""
    return c.utilization


def _reservation_dominates(p: Contract, r: Contract) -> bool:
    """Exact check: worst-case supply of p >= worst-case supply of r, all t.

    Equivalent to: for every work amount w, p delivers w no later than r does.
    With x = budget and s = period - budget, the time to deliver w is
    (2 + floor((w-1)/x))*s + w, so dominance reduces to
    (2+k)*s_p <= (2 + floor(k*x_p/x_r))*s_r for all k >= 0, which is periodic
    in k with period x_r.
    """
    xp, xr = p.budget, r.budget
    sp, sr = p.period - xp, r.period - xr
    if sp > sr or xp * r.period < xr * p.period:  # more slack or less utilization
        return False
    if xp >= xr or sp == 0:
        return True
    g = gcd(xp, xr)
    growth = xp * sr - xr * sp  # >= 0 once the utilization test passed
    if growth == 0:
        # worst corner is where k*xp mod xr peaks at xr - g
        return 2 * xr * (sr - sp) >= (xr - g) * sr
    # once k*growth clears this, every later corner is safe too
    threshold = (xr - g) * sr - 2 * xr * (sr - sp)
    for k in range(xr):
        if k * growth >= threshold:
            return True
        if (2 + (k * xp) // xr) * sr < (2 + k) * sp:
            return False
    return True


def satisfies(provided: Contract, requested: Contract) -> bool:
    """Can `provided` stand in for `requested`? Conservative, exact arithmetic.

    NULL asks for nothing; BE is satisfied by anything live; PS needs rate;
    reservations need worst-case supply dominance from a reservation (soft
    never covers hard); only ALL satisfies ALL.
    """
    p, r = provided.service, requested.service
    if r is ServiceClass.NULL:
        return True
    if r is ServiceClass.BE:
        return p is not ServiceClass.NULL
    if r is ServiceClass.ALL:
        return p is ServiceClass.ALL
    if r is ServiceClass.PS:
        if p is ServiceClass.ALL:
            return True
        if p is ServiceClass.PS:
            return provided.share >= requested.share
        if p in RESERVATION_CLASSES:
            return provided.budget * PPM >= requested.share * provided.period
        return False
    # requested is a reservation
    if p is ServiceClass.ALL:
        return True
    if p not in RESERVATION_CLASSES:
        return False
    if r is ServiceClass.RESBH and p is not ServiceClass.RESBH:
        return False  # soft service cannot back a hard promise
    return _reservation_dominates(provided, requested)
