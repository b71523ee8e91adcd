import json
from importlib import resources

import pytest

from linrec import CatalogEntry, UnknownName, sequences
from linrec.lucas import lucas_transform
from linrec.recurrence import seq_range
from linrec.sequences import catalog_get, catalog_names
from witnesses import catalog_selfcheck


class TestSelfCheck:
    def test_clean(self):
        assert catalog_selfcheck() == []

    def test_problems_reported(self, monkeypatch):
        # each of the four checks, on entries broken one way each
        fixed = sequences._load_fixed()
        fib, k_lucas = fixed["fibonacci"], catalog_get("k_lucas(2)")
        broken = {
            "short": CatalogEntry("short", fib.oeis, fib.spec, fib.prefix[:14], fib.hat_of, fib.notes),
            "off": CatalogEntry("off", fib.oeis, fib.spec, fib.prefix[:5] + (9,) + fib.prefix[6:], fib.hat_of, fib.notes),
            "pell_hat": CatalogEntry("pell_hat", k_lucas.oeis, k_lucas.spec, k_lucas.prefix, "fibonacci", k_lucas.notes),
            "fib_hat": CatalogEntry("fib_hat", fib.oeis, fib.spec, fib.prefix, "fibonacci", fib.notes),
        }
        monkeypatch.setattr(sequences, "_load_fixed", lambda: {**fixed, **broken})
        assert catalog_selfcheck() == [
            "short: prefix shorter than 15 terms",
            "off: prefix does not match its recurrence",
            "pell_hat: coefficients differ from base fibonacci",
            "pell_hat: prefix is not the trace sequence of fibonacci",
            "fib_hat: prefix is not the trace sequence of fibonacci",
        ]


class TestFixedEntries:
    def test_fibonacci(self):
        e = catalog_get("fibonacci")
        assert e.oeis == "A000045"
        assert e.prefix[:10] == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_lucas(self):
        e = catalog_get("lucas")
        assert e.oeis == "A000032"
        assert e.prefix[:10] == (2, 1, 3, 4, 7, 11, 18, 29, 47, 76)
        assert e.hat_of == "fibonacci"

    def test_tribonacci_pair(self):
        t = catalog_get("tribonacci")
        assert t.oeis == "A000073"
        assert t.prefix[:15] == (0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927)
        th = catalog_get("tribonacci_hat")
        assert th.oeis == "A001644"
        assert th.prefix[:14] == (3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499, 2757)
        assert th.hat_of == "tribonacci"

    def test_padovan_perrin(self):
        p = catalog_get("padovan")
        assert p.oeis == "A000931"
        assert p.prefix[:11] == (1, 0, 0, 1, 0, 1, 1, 1, 2, 2, 3)
        q = catalog_get("perrin")
        assert q.oeis == "A001608"
        assert q.prefix[:11] == (3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17)
        assert q.hat_of == "padovan"

    def test_narayana_pair(self):
        n = catalog_get("narayana")
        assert n.oeis == "A000930"
        assert n.prefix[:12] == (1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41)
        h = catalog_get("narayana_hat")
        assert h.prefix[:8] == (3, 1, 1, 4, 5, 6, 10, 15)
        assert h.hat_of == "narayana"

    def test_convolved(self):
        e = catalog_get("convolved_fibonacci")
        assert e.oeis == "A001629"
        assert e.spec.coeffs.c == (2, 1, -2, -1)
        assert e.spec.initial == (0, 0, 1, 2)
        # independent route: the sequence is fibonacci convolved with itself
        fib = seq_range(catalog_get("fibonacci").spec, 0, 20)
        for n in range(0, 21):
            conv = sum(fib[j] * fib[n - j] for j in range(n + 1))
            want = e.prefix[n] if n < len(e.prefix) else seq_range(e.spec, n, n)[0]
            assert conv == want

    def test_prefixes_regenerate(self):
        for name in catalog_names():
            if "(" in name:
                continue
            e = catalog_get(name)
            assert tuple(seq_range(e.spec, 0, len(e.prefix) - 1)) == e.prefix
            assert len(e.prefix) >= 15


class TestFamilies:
    def test_k_fibonacci(self):
        pell = catalog_get("k_fibonacci(2)")
        assert pell.prefix[:8] == (0, 1, 2, 5, 12, 29, 70, 169)
        assert catalog_get("k_fibonacci(1)").prefix[:6] == (0, 1, 1, 2, 3, 5)

    def test_k_lucas(self):
        e = catalog_get("k_lucas(2)")
        assert e.spec.initial == (2, 2)
        assert e.hat_of == "k_fibonacci(2)"
        assert e.prefix[:6] == (2, 2, 6, 14, 34, 82)

    def test_d_step(self):
        f4 = catalog_get("d_step_fibonacci(4)")
        assert f4.spec.coeffs.c == (1, 1, 1, 1)
        assert f4.prefix[:9] == (0, 0, 0, 1, 1, 2, 4, 8, 15)
        l4 = catalog_get("d_step_lucas(4)")
        assert l4.spec.initial == (4, 1, 3, 7)
        assert l4.hat_of == "d_step_fibonacci(4)"

    def test_d_step_two_matches_classics(self):
        assert catalog_get("d_step_fibonacci(2)").prefix == catalog_get("fibonacci").prefix
        assert catalog_get("d_step_lucas(2)").prefix == catalog_get("lucas").prefix

    def test_bounds(self):
        with pytest.raises(UnknownName):
            catalog_get("k_fibonacci(0)")
        with pytest.raises(UnknownName):
            catalog_get("k_fibonacci(101)")
        with pytest.raises(UnknownName):
            catalog_get("d_step_fibonacci(1)")
        with pytest.raises(UnknownName):
            catalog_get("d_step_lucas(21)")

    def test_unknown(self):
        with pytest.raises(UnknownName):
            catalog_get("catalan")
        with pytest.raises(UnknownName):
            catalog_get("k_fibonacci(x)")
        with pytest.raises(UnknownName):
            catalog_get("foo(3)")


class TestHatWiring:
    def test_hat_prefixes_are_traces(self):
        for name in catalog_names():
            if "(" in name:
                continue
            e = catalog_get(name)
            if e.hat_of is None:
                continue
            base = catalog_get(e.hat_of)
            assert base.spec.coeffs.c == e.spec.coeffs.c
            hat = lucas_transform(base.spec.coeffs.c, len(e.prefix) - 1).terms
            assert hat == e.prefix


class TestStorage:
    def test_raw_numbers_are_strings(self):
        blob = json.loads(resources.files("linrec").joinpath("catalog.json").read_text())
        entry = next(e for e in blob["entries"] if e["name"] == "fibonacci")
        assert entry["coeffs"] == ["1", "1"]
        assert all(isinstance(v, str) for v in entry["prefix"])
