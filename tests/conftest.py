"""Test-suite configuration: hypothesis tests run the same examples on every run.

The profile derandomizes example generation and keeps no example database, so a
run neither depends on nor writes a ``.hypothesis/`` directory.  Each test's own
``max_examples`` still applies.
"""

try:
    import hypothesis
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    hypothesis.settings.register_profile("linrec", derandomize=True, database=None)
    hypothesis.settings.load_profile("linrec")
