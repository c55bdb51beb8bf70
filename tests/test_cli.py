import json
import pathlib
import subprocess
import sys

import pytest

import gapcover
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


def test_parse_error_exit(tmp_path):
    inst = write(tmp_path, "bad.json", {"dim": 2, "body": {"type": "ellipsoid", "form": [[1, 0], [0]]}})
    assert main(["cover", "--input", inst]) == EXIT_USAGE


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
    ],
)
def test_overrides_validated_as_document_keys(tmp_path, capsys, body, flag, key, value):
    # an out-of-range flag is refused like the same key in the document
    plain = write(tmp_path, "plain.json", {"dim": 2, "body": body})
    keyed = write(tmp_path, "keyed.json", {"dim": 2, "body": body, key: value})
    for command in ("cover", "project", "batch"):
        extra = ["--phi", "1,1"] if command == "project" else []
        assert main([command, "--input", keyed] + extra) == EXIT_USAGE
        assert main([command, "--input", plain, flag, str(value)] + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"parse error: {key}: must" in err and "certification error" not in err


def test_overrides_echoed_and_applied(tmp_path):
    inst = write(tmp_path, "inst.json", {"dim": 2, "body": VERTEX_BODY})
    out = tmp_path / "c.json"
    assert main(["cover", "--input", inst, "--eps", "1/50", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["instance"]["eps"] == "1/50"
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
    ],
)
def test_random_bad_parameters_exit_usage(capsys, kind, flags):
    dim = [] if "--dim" in flags else ["--dim", "2"]
    args = ["random", "--kind", kind, "--seed", "1"] + dim + flags
    assert main(args) == EXIT_USAGE
    assert "generation error" in capsys.readouterr().err


def test_outputs_are_canonical_json(tmp_path):
    # every document the program writes, the *_approx floats of --timings
    # included, is json.dumps(doc, sort_keys=True, indent=2) plus a newline
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
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name
    assert "runtime_ms_approx" in out["batch"].read_text()
