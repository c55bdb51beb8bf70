"""The benchmark corpora's canonical reports, pinned by hash (corpora and
fixture in ``_corpus``).

Without pytest, ``PYTHONPATH=src python tests/_corpus.py`` checks them and
names each mismatching report; ``--write`` regenerates the fixture, which
only a change that declares a change of output, or a benchmark change that
alters the corpora, may do.
"""

import pytest

from _corpus import CORPORA, load_fixture, needs_numpy, report_hashes

FIXTURE = load_fixture()


@pytest.mark.parametrize("name", CORPORA)
def test_corpus_report_hashes(name):
    if needs_numpy(name):
        pytest.importorskip("numpy")
    assert report_hashes(name) == FIXTURE[name]


def test_fixture_names_every_corpus():
    assert sorted(FIXTURE) == sorted(CORPORA)
