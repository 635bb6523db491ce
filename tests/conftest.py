"""Test-suite settings: hypothesis draws the same examples on every run and in
every checkout (derandomized, with no example database and no literals taken
from the package's source), so a commit and its parent run the same cases."""

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers

from l1concave import simulate

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# hypothesis draws about 5% of its values from a pool of literals it scans out
# of the local source modules (and caches under .hypothesis/constants/), so
# editing a literal in the package would change which examples every property
# test runs; keep that pool empty
for _name in ("_get_local_constants", "Constants"):
    if not callable(getattr(providers, _name, None)):
        raise RuntimeError(f"hypothesis.internal.conjecture.providers.{_name} is missing in "
                           "this hypothesis version, so tests/conftest.py cannot empty the "
                           "pool of source literals; update the patch")
_Constants = providers.Constants


def _no_local_constants():
    return _Constants()


providers._get_local_constants = _no_local_constants


@pytest.fixture
def caller_blas_threads():
    """The test process runs two OpenBLAS threads, so a count that the code
    under test leaves at one shows; yields OpenBLAS's thread-count (setter,
    getter). The process's own count is set back afterwards."""
    found = simulate._openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread-count setter and getter in this process")
    setter, getter = found
    own = getter()
    setter(2)
    yield found
    setter(own)
