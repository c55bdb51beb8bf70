"""Canonical reports of the benchmark's corpora, pinned by hash.

Each workload of ``perfbench/workloads.py`` at seeds 1 and 1000 is built
as ``perfbench/run.py`` builds it: ``workloads.generate``, then, for
``verify-claims``, ``workloads.attach_claims`` with the independent lattice
points and memberships of ``perfbench/checks.py``, then ``parse_instance``
on each document.  ``run_batch`` runs each instance on its own, and the
sha256 of its canonical JSON report must equal the one recorded, in corpus
order, in ``corpus_reports.json``.  The perfbench modules are only
imported; nothing under ``perfbench/`` is written.  ``test_corpus_reports.py``
runs the same check under pytest.  From the root of the repository:

    PYTHONPATH=src python tests/_corpus.py           # check; name each mismatch
    PYTHONPATH=src python tests/_corpus.py --write   # regenerate; name each corpus that moved or is new

``verify-claims`` needs numpy (``checks.py`` does); without it that corpus
is skipped and said so.  The hashes pin the compact canonical text
(``to_canonical_json``), byte for byte.  Only a change that declares a
change of output, or a benchmark change that alters the corpora, may
regenerate the file, and it quotes the count of reports that ``--write``
reports as moved.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

from gapcover import harness

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, through the path above)

FIXTURE = pathlib.Path(__file__).with_name("corpus_reports.json")
SEEDS = (1, 1000)
CORPORA = [f"{workload}/s{seed}" for workload in workloads.WORKLOADS for seed in SEEDS]
HAS_NUMPY = importlib.util.find_spec("numpy") is not None


def needs_numpy(name: str) -> bool:
    return name.startswith("verify-claims/")


def documents(name: str) -> list[dict]:
    """The instance documents of one corpus, in the order the benchmark
    runs them."""
    workload, seed = name.rsplit("/s", 1)
    docs = workloads.generate(harness, workload, int(seed))
    if workload == "verify-claims":
        import checks  # perfbench/checks.py; imports numpy

        docs = [item.doc for item in workloads.attach_claims(docs, checks.lattice_points, checks.gap_members, int(seed))]
    return docs


def report_hashes(name: str) -> list[str]:
    texts = (
        harness.to_canonical_json(harness.batch_report_to_json(harness.run_batch([harness.parse_instance(doc)])))
        for doc in documents(name)
    )
    return [hashlib.sha256(text.encode()).hexdigest() for text in texts]


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def mismatches(want: list, got: list) -> list[int]:
    """The indices at which two hash lists differ, those past the end of
    the shorter one included."""
    return [i for i in range(max(len(want), len(got))) if want[i : i + 1] != got[i : i + 1]]


def main(argv) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/_corpus.py [--write]", file=sys.stderr)
        return 2
    names = [name for name in CORPORA if HAS_NUMPY or not needs_numpy(name)]
    for name in CORPORA:
        if name not in names:
            print(f"SKIPPED {name}: numpy is not installed")
    fixture = load_fixture()
    hashes = {name: report_hashes(name) for name in names}
    bad = {name: mismatches(fixture.get(name, []), got) for name, got in hashes.items()}
    total, moved = sum(map(len, hashes.values())), sum(map(len, bad.values()))
    if argv:
        FIXTURE.write_text(json.dumps({**fixture, **hashes}, indent=1) + "\n")
        for name in names:
            if name not in fixture:
                print(f"NEW {name}")
            elif bad[name]:
                print(f"MOVED {name}: {len(bad[name])} of {len(hashes[name])} reports")
        print(f"wrote {total} hashes of {len(names)} corpora to {FIXTURE.name}: {moved} moved or new")
        return 0
    for name in names:
        for i in bad[name]:
            print(f"MISMATCH {name}[{i}]")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"CPython {version}: {total - moved} of {total} reports of {len(names)} corpora match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
