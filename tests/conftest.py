"""Hypothesis draws from a fixed pool of constants in every test here.

Hypothesis adds the literal constants of each local module it finds in
`sys.modules` (those under `src/`, `bench/` and `tests/`) to what its
strategies may draw. The derandomized property tests would then check other
examples whenever a literal is added anywhere in the package, or when pytest
has collected other modules first, and a floor they assert could fail for
no reason in the code under test. The fixture below empties that local pool;
Hypothesis's own global constants still come up.
"""

import pytest
from hypothesis.internal.conjecture import providers


@pytest.fixture(autouse=True)
def no_local_constants(monkeypatch):
    # setattr raises AttributeError if a Hypothesis release renamed the hook,
    # so a silent return to the shifting pool cannot happen
    empty = providers.Constants()
    monkeypatch.setattr(providers, "_get_local_constants", lambda: empty)
    providers.CONSTANTS_CACHE.cache.clear()  # constants filtered by bounds
    yield
    providers.CONSTANTS_CACHE.cache.clear()
