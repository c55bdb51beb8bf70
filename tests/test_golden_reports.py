"""Canonical reports pinned by hash (instances and fixture in ``_golden``).

The hashes pin more than the exact stages: the enclosing ellipsoid (MVEE)
comes from Khachiyan's iteration in floats, so they also pin those float
steps.  These are correctly rounded IEEE operations that depend on no numpy
or BLAS build, and ``mvee`` runs them as straight-line code that adds left
to right without calling ``sum()`` (whose float sums CPython 3.12 made
compensated), so the reports are the same on every interpreter that
``pyproject.toml`` allows: all 47 hashes hold on CPython 3.10.13, 3.11.7,
3.12.1 and 3.13.0.  Without pytest, ``PYTHONPATH=src python
tests/_golden.py`` checks them and names each mismatch; ``--write``
regenerates the fixture, which only a change that declares a change of
output may do.
"""

import pytest

from _golden import instances, load_golden, report_hash

GOLDEN = load_golden()


@pytest.mark.parametrize("name, spec", instances(), ids=[name for name, _ in instances()])
def test_report_hash(name, spec):
    assert report_hash(spec) == GOLDEN[name]


def test_fixture_names_every_instance():
    assert sorted(GOLDEN) == sorted(name for name, _ in instances())
