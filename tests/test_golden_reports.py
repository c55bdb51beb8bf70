"""Canonical reports pinned by hash (instances and fixture in ``_golden``).

The hashes pin each report's compact canonical text, byte for byte: sorted
keys and no insignificant whitespace (``to_canonical_json``).  Every figure
in a canonical report is computed in exact integer and Fraction arithmetic:
the enclosing ellipsoid is the vertex body's integer moment form, and no
float enters the pipeline (``test_float_free``), so the hashes pin the exact
stages alone and the reports are the same on every interpreter that
``pyproject.toml`` allows.  Without pytest,
``PYTHONPATH=src python tests/_golden.py`` checks them and names each
mismatch; ``--write`` regenerates the fixture and names each hash that
moved, which only a change that declares a change of output may do.
"""

import pytest

from _golden import instances, load_golden, report_hash

GOLDEN = load_golden()


@pytest.mark.parametrize("name, spec", instances(), ids=[name for name, _ in instances()])
def test_report_hash(name, spec):
    assert report_hash(spec) == GOLDEN[name]


def test_fixture_names_every_instance():
    assert sorted(GOLDEN) == sorted(name for name, _ in instances())
