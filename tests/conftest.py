"""Test-suite configuration: hypothesis tests run the same examples on every run.

The profile derandomizes example generation and keeps no example database, so a
run neither depends on nor writes a ``.hypothesis/`` directory.  Each test's own
``max_examples`` still applies.  The ``mulmods`` fixture counts residue products.
"""

import pytest

from linrec import recurrence

try:
    import hypothesis
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    hypothesis.settings.register_profile("linrec", derandomize=True, database=None)
    hypothesis.settings.load_profile("linrec")


@pytest.fixture
def mulmods(monkeypatch):
    """A list that gains one entry per recurrence._mulmod call (one residue product) made during the test."""
    calls = []
    real = recurrence._mulmod

    def counted(a, b, c):
        calls.append(1)
        return real(a, b, c)

    monkeypatch.setattr(recurrence, "_mulmod", counted)
    return calls
