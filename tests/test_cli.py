import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

import gapcover
import gapcover.cli
from gapcover.cli import main
from gapcover.harness import EXIT_BUDGET, EXIT_CERT_FAILURE, EXIT_OK, EXIT_USAGE


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cover_roundtrip(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}})
    out = tmp_path / "out.json"
    code = main(["cover", "--input", inst, "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["contained"] is True
    assert doc["report"]["cardinality_C"] == 13
    assert doc["gap"]["halfsides"]


def test_cover_stdout(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {"dim": 1, "body": {"type": "box", "halfwidths": ["7/2"]}})
    code = main(["cover", "--input", inst])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(captured.out)
    assert doc["report"]["ratio"] == 1


def test_verify_detects_bad_gap(tmp_path):
    inst = write(
        tmp_path,
        "inst.json",
        {
            "dim": 2,
            "body": {"type": "ball", "radius": 2},
            "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [1, 1]},
        },
    )
    code = main(["verify", "--input", inst, "--output", str(tmp_path / "v.json")])
    assert code == EXIT_CERT_FAILURE


def test_verify_good_gap(tmp_path):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}})
    out = tmp_path / "c.json"
    assert main(["cover", "--input", inst, "--output", str(out)]) == EXIT_OK
    gap = json.loads(out.read_text())["gap"]
    inst2 = write(
        tmp_path,
        "inst2.json",
        {"dim": 2, "body": {"type": "ball", "radius": 2}, "gap": gap},
    )
    assert main(["verify", "--input", inst2, "--output", str(tmp_path / "v.json")]) == EXIT_OK


def test_project(tmp_path):
    inst = write(
        tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]}
    )
    out = tmp_path / "p.json"
    code = main(["project", "--input", inst, "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["projection"]["chain_ok"] is True


def test_project_phi_flag(tmp_path):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}})
    code = main(["project", "--input", inst, "--phi", "2,-1", "--output", str(tmp_path / "p.json")])
    assert code == EXIT_OK


def test_project_failing_verdict_exits_one(tmp_path, monkeypatch):
    real = gapcover.cli.verify_projection

    def not_monotone(report, phi, cap):
        # called with the certificate's report, which proved P's differences independent
        assert report.contained and report.gap_points is None
        return dataclasses.replace(real(report, phi, cap), fiber_monotone=False)

    monkeypatch.setattr(gapcover.cli, "verify_projection", not_monotone)
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]})
    out = tmp_path / "p.json"
    assert main(["project", "--input", inst, "--output", str(out)]) == EXIT_CERT_FAILURE
    doc = json.loads(out.read_text())
    assert doc["report"]["contained"] is True and doc["projection"]["fiber_monotone"] is False


@pytest.mark.parametrize(
    "halfsides, code, witness", [([1, 1], EXIT_CERT_FAILURE, [-2, 0]), ([2, 2], EXIT_OK, None)], ids=["false", "true"]
)
def test_project_verifies_claimed_gap(tmp_path, halfsides, code, witness):
    # a claimed progression is verified, as batch does, not replaced by cover's
    gap = {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": halfsides}
    doc = {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1], "gap": gap}
    inst, out = write(tmp_path, "inst.json", doc), tmp_path / "p.json"
    assert main(["project", "--input", inst, "--output", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["gap"] == gap
    assert report["report"]["witness"] == witness
    assert "stages" not in report["report"]
    batch = write(tmp_path, "batch.json", [doc])
    assert main(["batch", "--input", batch, "--output", str(tmp_path / "b.json")]) == code


def test_project_missing_phi(tmp_path):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": {"type": "ball", "radius": 2}})
    assert main(["project", "--input", inst]) == EXIT_USAGE


def test_random_then_cover(tmp_path):
    out = tmp_path / "inst.json"
    code = main(
        ["random", "--kind", "lattice-ball", "--dim", "2", "--seed", "7", "--output", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "lattice-ball"
    assert doc["seed"] == 7
    assert main(["cover", "--input", str(out), "--output", str(tmp_path / "c.json")]) == EXIT_OK


def test_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["random", "--kind", "random-vertices", "--dim", "3", "--seed", "5"]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_batch_with_csv(tmp_path):
    batch = [
        {"dim": 1, "body": {"type": "box", "halfwidths": ["7/2"]}},
        {"dim": 2, "body": {"type": "ball", "radius": 2}},
    ]
    inst = write(tmp_path, "batch.json", batch)
    out, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    code = main(["batch", "--input", inst, "--output", str(out), "--csv", str(csv_path)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["instances"]) == 2
    assert doc["aggregate"]["max_ratio"] is not None
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("dim,kind,seed,card_C,card_P,ratio_num,ratio_den")


def test_batch_budget_exit(tmp_path):
    batch = [{"dim": 2, "body": {"type": "ball", "radius": 60}, "budget": 10}]
    inst = write(tmp_path, "batch.json", batch)
    assert main(["batch", "--input", inst, "--output", str(tmp_path / "o.json")]) == EXIT_BUDGET
    assert (
        main(["batch", "--input", inst, "--allow-skip", "--output", str(tmp_path / "o2.json")])
        == EXIT_OK
    )


@pytest.mark.parametrize(
    "flags, entries, code",
    [(["--fail-fast"], 1, EXIT_BUDGET), (["--fail-fast", "--allow-skip"], 3, EXIT_OK)],
    ids=["fail-fast", "fail-fast-allow-skip"],
)
def test_batch_fail_fast_stops_on_a_skip_unless_allowed(tmp_path, flags, entries, code):
    batch = [
        {"dim": 2, "body": {"type": "ball", "radius": 100}, "budget": 10},
        {"dim": 2, "body": {"type": "ball", "radius": 2}},
        {"dim": 2, "body": {"type": "ball", "radius": 3}},
    ]
    inst = write(tmp_path, "batch.json", batch)
    out = tmp_path / "out.json"
    assert main(["batch", "--input", inst, "--output", str(out)] + flags) == code
    assert len(json.loads(out.read_text())["instances"]) == entries


def test_batch_high_dimension(tmp_path, capsys):
    # bodies of one lattice point in dimensions past one compiled sweep
    batch = [
        {"dim": 22, "body": {"type": "box", "halfwidths": [0] * 22}},
        {"dim": 23, "body": {"type": "vertices", "points": [[0] * 23]}},
        {"dim": 25, "body": {"type": "ball", "radius": "1/2"}},
    ]
    inst = write(tmp_path, "batch.json", batch)
    out = tmp_path / "out.json"
    assert main(["batch", "--input", inst, "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["failures"] == [] and [i["cover"]["cardinality_C"] for i in doc["instances"]] == [1, 1, 1]
    assert main(["cover", "--input", write(tmp_path, "one.json", batch[1])]) == EXIT_OK


def test_parse_error_exit(tmp_path):
    inst = write(tmp_path, "bad.json", {"dim": 2, "body": {"type": "ellipsoid", "form": [[1, 0], [0]]}})
    assert main(["cover", "--input", inst]) == EXIT_USAGE


def test_negative_box_halfwidth_is_a_parse_error(tmp_path, capsys):
    # a malformed box is refused as input, not reported as a failed certificate
    doc = {"dim": 2, "body": {"type": "box", "halfwidths": [-1, 2]}}
    inst = write(tmp_path, "bad.json", doc)
    batch = write(tmp_path, "batch.json", [doc])
    assert main(["cover", "--input", inst]) == EXIT_USAGE
    assert main(["batch", "--input", batch, "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("parse error: ") == 2 and "body.halfwidths[0]" in err
    assert "certification error" not in err


@pytest.mark.parametrize("command", ["cover", "verify", "project", "batch"])
def test_negative_gap_halfside_is_a_parse_error(tmp_path, capsys, command):
    # refused as input, not reported as a failed certificate; in a batch the
    # path names the document, after a valid one
    ball = {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]}
    doc = {**ball, "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [-1, 2]}}
    inst = write(tmp_path, "bad.json", [ball, doc] if command == "batch" else doc)
    assert main([command, "--input", inst]) == EXIT_USAGE
    captured = capsys.readouterr()
    path = "[1].gap.halfsides[0]" if command == "batch" else "gap.halfsides[0]"
    assert captured.err == f"parse error: {path}: halfsides must be nonnegative\n"
    assert captured.out == ""


def test_usage_error():
    assert main(["cover"]) == EXIT_USAGE


def test_import_leaves_numpy_out():
    # numpy is a test dependency only; the program must not import it
    src = str(pathlib.Path(gapcover.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gapcover.cli; "
        "print('numpy' in sys.modules)"
    )
    cmd = [sys.executable, "-I", "-c", probe, src]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


VERTEX_BODY = {"type": "vertices", "points": [[2, 1], [1, 2]]}
BALL = {"type": "ball", "radius": 2}


@pytest.mark.parametrize("body", [VERTEX_BODY, BALL], ids=["vertices", "ellipsoid"])
@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--eps", "eps", "2"),
        ("--eps", "eps", "5"),
        ("--eps", "eps", "0"),
        ("--budget", "budget", 0),
        ("--budget", "budget", -5),
        ("--phi", "phi", "1,2,3"),
        ("--phi", "phi", "1,x"),
    ],
)
def test_overrides_validated_as_document_keys(tmp_path, capsys, body, flag, key, value):
    # an out-of-range flag is refused like the same key in the document;
    # eps (a tolerance the enclosing ellipsoid does not have) at any value, as either
    commands = {
        "eps": ("cover", "verify", "project", "batch"),
        "budget": ("cover", "project", "batch"),
        "phi": ("project",),
    }[key]
    message = {"eps": "eps: unknown key", "budget": "budget: must be positive", "phi": "phi: expected"}[key]
    for command in commands:
        wrap = (lambda doc: [doc]) if command == "batch" else (lambda doc: doc)
        plain = write(tmp_path, "plain.json", wrap({"dim": 2, "body": body}))
        keyed = write(tmp_path, "keyed.json", wrap({"dim": 2, "body": body, key: value}))
        extra = ["--phi", "1,1"] if command == "project" and key != "phi" else []
        assert main([command, "--input", keyed, *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err, err
        assert main([command, "--input", plain, flag, str(value), *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: --eps {value}" if key == "eps" else message) in err, err


def test_overrides_echoed_and_applied(tmp_path):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": VERTEX_BODY})
    out = tmp_path / "c.json"
    assert main(["project", "--input", inst, "--phi", "2,-1", "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["instance"]["phi"] == doc["projection"]["functional"] == [2, -1]
    echoed = write(tmp_path, "echoed.json", doc["instance"])
    assert main(["project", "--input", echoed, "--output", str(tmp_path / "e.json")]) == EXIT_OK
    assert (tmp_path / "e.json").read_text() == out.read_text()
    big = write(tmp_path, "big.json", {"dim": 2, "body": {"type": "ball", "radius": 60}})
    assert main(["cover", "--input", big, "--budget", "10"]) == EXIT_BUDGET
    batch = write(tmp_path, "batch.json", [{"dim": 2, "body": BALL, "budget": 10**6}])
    assert main(["batch", "--input", batch, "--budget", "10", "--output", str(out)]) == EXIT_BUDGET
    assert json.loads(out.read_text())["instances"][0]["instance"]["budget"] == 10


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("random-ellipsoid", ["--scale", "0"]),
        ("random-ellipsoid", ["--scale", "-2"]),
        ("lattice-ball", ["--radius", "0"]),
        ("lattice-ball", ["--radius", "-1"]),
        ("lattice-ball", ["--dim", "0"]),
        ("random-vertices", ["--coord-bound", "0"]),
        ("random-vertices", ["--coord-bound", "-2"]),
        ("lattice-ball", ["--entry-bound", "-1"]),
        ("random-vertices", ["--num-points", "-3"]),
    ],
)
def test_random_bad_parameters_exit_usage(capsys, kind, flags):
    dim = [] if "--dim" in flags else ["--dim", "2"]
    args = ["random", "--kind", kind, "--seed", "1"] + dim + flags
    assert main(args) == EXIT_USAGE
    assert "generation error" in capsys.readouterr().err


def test_outputs_are_canonical_json(tmp_path):
    # every document the program writes, the *_approx floats of --timings
    # included, is the compact json.dumps(doc, sort_keys=True,
    # separators=(",", ":")) plus a newline
    ball = {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]}
    inst = write(tmp_path, "inst.json", ball)
    names = ("cover", "verify", "project", "random", "batch")
    out = {name: tmp_path / f"{name}.json" for name in names}
    assert main(["cover", "--input", inst, "--timings", "--output", str(out["cover"])]) == EXIT_OK
    gap = json.loads(out["cover"].read_text())["gap"]
    claim = write(tmp_path, "claim.json", {**ball, "gap": gap})
    assert main(["verify", "--input", claim, "--timings", "--output", str(out["verify"])]) == EXIT_OK
    assert main(["project", "--input", inst, "--output", str(out["project"])]) == EXIT_OK
    random_args = ["random", "--kind", "random-vertices", "--dim", "3", "--seed", "5"]
    assert main(random_args + ["--output", str(out["random"])]) == EXIT_OK
    drawn = json.loads(out["random"].read_text())
    batch = write(tmp_path, "batch.json", [ball, {**ball, "gap": gap}, drawn])
    assert main(["batch", "--input", batch, "--timings", "--output", str(out["batch"])]) == EXIT_OK
    for name, path in out.items():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n", name
    assert "runtime_ms_approx" in out["batch"].read_text()
