"""Every test starts and ends with empty last-result caches.

The functions below keep their last result (functools.lru_cache(maxsize=1)),
so without this a test could be served a result that an earlier test built,
perhaps on monkeypatched internals.  A test that patches an internal in its
middle still clears there.  test_last_result_caches.py checks that every
such function in src/ is listed.
"""

import pytest

from nicebasis import almost_abelian, derivations, graphs

LAST_RESULT_CACHES = (almost_abelian.analyze, derivations._space, graphs._quotient)


@pytest.fixture(autouse=True)
def empty_last_result_caches():
    for f in LAST_RESULT_CACHES:
        f.cache_clear()
    yield
    for f in LAST_RESULT_CACHES:
        f.cache_clear()
