import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapcover.cover
import gapcover.harness
from gapcover.cover import cover
from gapcover.enumeration import Gap
from gapcover.errors import GenerationError, ParseError
from gapcover.exactalg import Mat, _span_rank
from gapcover.harness import (
    EXIT_BUDGET,
    EXIT_CERT_FAILURE,
    EXIT_OK,
    CSV_COLUMNS,
    InstanceSpec,
    SplitMix64,
    batch_report_to_json,
    batch_to_csv,
    cover_report_to_json,
    gen_random,
    parse_instance,
    rat_to_json,
    run_batch,
    to_canonical_json,
)


# JSON trees for the canonical writer: strings and keys with non-ASCII,
# control, quote and backslash characters; ints past 300 digits; the floats
# the stdlib spells specially; nested and empty dicts, lists and tuples
_CHARS = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé\u2028\ud800😀a') | st.characters()
_TEXT = st.text(_CHARS, max_size=6)
_HUGE = st.integers(10**300, 10**320)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | _HUGE
    | _HUGE.map(lambda n: -n)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
    | _TEXT
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=30,
)
_NAN = object()  # stands for every NaN, which equals nothing, itself included
_CIRCULAR = {"a": [1]}
_CIRCULAR["a"].append(_CIRCULAR)


def _plain(x):
    """x with tuples as lists and each NaN as ``_NAN``, for comparing a
    document with its parsed text."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return _NAN if x != x else x


class TestSplitMix64:
    def test_reference_values(self):
        # first outputs for seed 1234567, cross-checked against the published
        # SplitMix64 reference implementation
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_randint_range_and_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        xs = [a.randint(-5, 5) for _ in range(200)]
        ys = [b.randint(-5, 5) for _ in range(200)]
        assert xs == ys
        assert all(-5 <= x <= 5 for x in xs)
        assert len(set(xs)) == 11

    def test_randint_empty_range_raises(self):
        rng = SplitMix64(0)
        assert rng.randint(3, 3) == 3
        with pytest.raises(ValueError, match="empty range"):
            rng.randint(2, -2)


class TestParseInstance:
    def test_ball(self):
        spec = parse_instance('{"dim":2,"body":{"type":"ball","radius":"2"}}')
        assert spec.dim == 2
        assert spec.body.kind == "ellipsoid"
        assert spec.body.ellipsoid_rep.form == Mat([[Fraction(1, 4), 0], [0, Fraction(1, 4)]])

    def test_vertices(self):
        spec = parse_instance({"dim": 2, "body": {"type": "vertices", "points": [[2, 1], [1, 2]]}})
        assert spec.body.kind == "vertices"
        assert spec.body.points == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))

    def test_malformed_form_path(self):
        with pytest.raises(ParseError) as err:
            parse_instance({"dim": 2, "body": {"type": "ellipsoid", "form": [[1, 0], [0]]}})
        assert err.value.path == "body.form[1]"

    def test_box_and_eps_and_phi(self):
        # eps is not a key: the enclosing ellipsoid has no tolerance
        doc = {"dim": 2, "body": {"type": "box", "halfwidths": ["7/2", 1]}, "phi": [1, -2]}
        spec = parse_instance(doc)
        assert spec.body.halfwidths == (Fraction(7, 2), Fraction(1))
        assert spec.phi == (1, -2)
        with pytest.raises(ParseError, match=r"^eps: unknown key$"):
            parse_instance({**doc, "eps": "1/100"})

    @pytest.mark.parametrize("halfwidths, index", [([-1, 2], 0), ([1, "-1/2"], 1), ([-2, -3], 0)])
    def test_negative_box_halfwidth_path(self, halfwidths, index):
        with pytest.raises(ParseError) as err:
            parse_instance({"dim": 2, "body": {"type": "box", "halfwidths": halfwidths}})
        assert err.value.path == f"body.halfwidths[{index}]"
        assert err.value.message == "box halfwidths must be nonnegative"

    def test_gap_extension(self):
        spec = parse_instance(
            {
                "dim": 1,
                "body": {"type": "box", "halfwidths": [3]},
                "gap": {"base": [0], "diffs": [[1]], "halfsides": [3]},
            }
        )
        assert spec.gap == Gap(1, (0,), ((1,),), (3,))

    def test_rejects_unknown_keys_and_bad_dim(self):
        with pytest.raises(ParseError):
            parse_instance({"dim": 2, "body": {"type": "ball", "radius": 1}, "bogus": 1})
        with pytest.raises(ParseError):
            parse_instance({"dim": 0, "body": {"type": "ball", "radius": 1}})
        with pytest.raises(ParseError):
            parse_instance({"body": {"type": "ball", "radius": 1}})

    def test_rejects_non_symmetric_form(self):
        with pytest.raises(ParseError) as err:
            parse_instance({"dim": 2, "body": {"type": "ellipsoid", "form": [[1, 1], [0, 1]]}})
        assert "form" in err.value.path

    def test_roundtrip(self):
        spec = parse_instance({"dim": 2, "body": {"type": "vertices", "points": [["5/2", 1], [1, 2]]}})
        again = parse_instance(spec.to_json_dict())
        assert again.body.points == spec.body.points


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random("lattice-ball", 2, 7, entry_bound=3, radius=4)
        b = gen_random("lattice-ball", 2, 7, entry_bound=3, radius=4)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.body.kind == "ellipsoid"

    def test_vertices_span(self):
        spec = gen_random("random-vertices", 3, 1, num_points=6, coord_bound=5)
        pts = [[int(c) for c in p] for p in spec.body.points]
        assert _span_rank(pts, 3) == 3

    def test_ellipsoid_1d(self):
        spec = gen_random("random-ellipsoid", 1, 99)
        assert spec.dim == 1
        assert spec.body.kind == "ellipsoid"

    def test_box_guard_rejection_is_named(self):
        # d = 7, seed 0: the first draw spans, but its box holds 9^7 points
        with pytest.raises(GenerationError, match=r"box_guard = 200000 .* the last 4782969$"):
            gen_random("random-vertices", 7, 0, max_tries=1)

    def test_no_spanning_draw(self):
        with pytest.raises(GenerationError, match="no spanning draw after 3 tries"):
            gen_random("random-vertices", 3, 0, num_points=1, max_tries=3)

    def test_unknown_kind(self):
        with pytest.raises(GenerationError):
            gen_random("nope", 2, 1)

    def test_seeds_differ(self):
        a = gen_random("lattice-ball", 2, 1)
        b = gen_random("lattice-ball", 2, 2)
        assert a.to_json_dict() != b.to_json_dict()

    def test_default_radius_is_four(self):
        default = gen_random("lattice-ball", 2, 7)
        assert default.to_json_dict() == gen_random("lattice-ball", 2, 7, radius=4).to_json_dict()

    @pytest.mark.parametrize(
        "kind, kw",
        [
            ("lattice-ball", {"radius": 0}),
            ("lattice-ball", {"radius": -1}),
            ("lattice-ball", {"radius": "-1/2"}),
            ("random-ellipsoid", {"scale": 0}),
            ("random-ellipsoid", {"scale": -2}),
        ],
    )
    def test_nonpositive_radius_or_scale(self, kind, kw):
        with pytest.raises(GenerationError, match="must be positive"):
            gen_random(kind, 2, 1, **kw)

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("random-vertices", "coord_bound", -2),
            ("random-vertices", "coord_bound", 0),
            ("lattice-ball", "entry_bound", -1),
            ("random-ellipsoid", "entry_bound", 0),
            ("random-vertices", "num_points", -3),
        ],
    )
    def test_bad_bound_or_count_is_named(self, kind, name, value):
        # a negative coord_bound used to draw outside [-bound, bound]
        with pytest.raises(GenerationError, match=f"^{name} must be"):
            gen_random(kind, 2, 0, **{name: value})


class TestRunBatch:
    def trivial_specs(self):
        return [
            parse_instance({"dim": 1, "body": {"type": "box", "halfwidths": ["7/2"]}}),
            parse_instance({"dim": 1, "body": {"type": "ball", "radius": 3}}),
            parse_instance({"dim": 1, "body": {"type": "vertices", "points": [[2]]}}),
        ]

    def test_trivial_batch_all_ratio_one(self):
        batch = run_batch(self.trivial_specs())
        assert batch.exit_code() == EXIT_OK
        assert batch.max_ratio == 1
        for entry in batch.entries:
            assert entry["contained"]
            assert entry["cover"]["ratio"] == 1

    def test_falsified_gap_exits_one(self):
        spec = parse_instance(
            {
                "dim": 2,
                "body": {"type": "ball", "radius": 2},
                "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [1, 1]},
            }
        )
        batch = run_batch([spec])
        assert batch.exit_code() == EXIT_CERT_FAILURE
        assert batch.failures
        assert batch.entries[0]["verify"]["witness"] is not None

    def test_budget_exit(self):
        spec = parse_instance(
            {"dim": 2, "body": {"type": "ball", "radius": 50}, "budget": 100}
        )
        batch = run_batch([spec])
        assert batch.exit_code(allow_skip=False) == EXIT_BUDGET
        assert batch.exit_code(allow_skip=True) == EXIT_OK
        assert batch.entries[0]["error"]["type"] == "budget"

    def test_fail_fast_stops(self):
        bad = parse_instance(
            {
                "dim": 2,
                "body": {"type": "ball", "radius": 2},
                "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [1, 1]},
            }
        )
        batch = run_batch([bad] + self.trivial_specs(), fail_fast=True)
        assert len(batch.entries) == 1

    def test_projection_included(self):
        spec = parse_instance(
            {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]}
        )
        batch = run_batch([spec])
        assert batch.exit_code() == EXIT_OK
        assert batch.entries[0]["projection"]["chain_ok"]

    def test_failing_projection_verdict_fails_the_instance(self, monkeypatch):
        real = gapcover.harness.verify_projection

        def not_monotone(report, phi, cap):
            # called with the certificate's report, which proved P's differences independent
            assert report.contained and report.independent
            return dataclasses.replace(real(report, phi, cap), fiber_monotone=False)

        monkeypatch.setattr(gapcover.harness, "verify_projection", not_monotone)
        spec = parse_instance({"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]})
        batch = run_batch([spec])
        entry = batch.entries[0]
        assert batch.exit_code() == EXIT_CERT_FAILURE
        assert batch.failures == [{"index": 0, "witness": None}]
        assert entry["cover"]["contained"] is True and entry["contained"] is False
        assert entry["projection"]["fiber_monotone"] is False and entry["projection"]["chain_ok"] is True

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2, "body": {"type": "ball", "radius": 2}},
            {"dim": 2, "body": {"type": "ball", "radius": 2}, "phi": [1, 1]},
            {"dim": 2, "body": {"type": "vertices", "points": [[2, 2]]}, "phi": [1, 2]},
            {
                "dim": 2,
                "body": {"type": "ball", "radius": 2},
                "phi": [1, 1],
                "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [2, 2]},
            },
        ],
        ids=["cover", "cover-phi", "segment-phi", "verify-phi"],
    )
    def test_lattice_points_listed_once(self, doc, monkeypatch):
        # cover, certification and projection share one listing of C
        calls = []
        listed = gapcover.cover.enum_body

        def counting(*args, **kwargs):
            calls.append(args)
            return listed(*args, **kwargs)

        monkeypatch.setattr("gapcover.cover.enum_body", counting)
        batch = run_batch([parse_instance(doc)])
        assert batch.exit_code() == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("include_timings", [False, True])
    def test_verify_entry_is_cover_without_stages(self, include_timings):
        specs = [gen_random(kind, 2, 0) for kind in ("lattice-ball", "random-vertices")]
        for spec, entry in zip(specs, run_batch(specs, include_timings=include_timings).entries):
            stageless = {k: v for k, v in entry["cover"].items() if k not in ("stages", "stage_chain")}
            assert entry["verify"] == stageless
            assert ("timings_ms_approx" in entry["verify"]) == include_timings
            if not include_timings:
                _, report = cover(spec.body, spec.budget)
                assert entry["verify"] == cover_report_to_json(dataclasses.replace(report, stages=None))

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2, "body": {"type": "ball", "radius": 2}},
            {
                "dim": 2,
                "body": {"type": "ball", "radius": 2},
                "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [2, 2]},
            },
        ],
        ids=["cover", "verify"],
    )
    def test_certificate_serialized_once(self, doc, monkeypatch):
        calls = []
        to_json = gapcover.harness.cover_report_to_json

        def counting(*args, **kwargs):
            calls.append(args)
            return to_json(*args, **kwargs)

        monkeypatch.setattr(gapcover.harness, "cover_report_to_json", counting)
        batch = run_batch([parse_instance(doc)], include_timings=True)
        assert batch.exit_code() == EXIT_OK
        assert len(calls) == 1

    def test_csv_columns(self):
        batch = run_batch(self.trivial_specs(), include_timings=True)
        text = batch_to_csv(batch)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4

    def test_aggregate_is_max(self):
        batch = run_batch(self.trivial_specs())
        ratios = [Fraction(str(e["cover"]["ratio"])) for e in batch.entries]
        assert batch.max_ratio == max(ratios)

    def test_parallelotope_factor_uses_pinned_constant(self):
        # max |Q|^2 / ((4k)^(2k) #C^2): <= 1 exactly when every
        # parallelotope entry of stage_chain holds
        kinds = ("lattice-ball", "random-vertices")
        batch = run_batch([gen_random(kind, 2, seed) for kind in kinds for seed in (0, 1)])
        factors = []
        for entry in batch.entries:
            rep = entry["cover"]
            k = rep["stages"]["subspace_dim"]
            vol_q_sq = Fraction(str(rep["stages"]["volume_parallelotope_sq"]))
            factors.append(vol_q_sq / ((4 * k) ** (2 * k) * rep["cardinality_C"] ** 2))
            assert rep["stage_chain"]["parallelotope"] == (factors[-1] <= 1)
        assert batch.max_factors["parallelotope"] == max(factors)
        agg = batch_report_to_json(batch)["aggregate"]
        assert Fraction(str(agg["max_parallelotope_factor_sq"])) == max(factors)
        assert set(agg) == {"max_ratio", "max_parallelotope_factor_sq", "max_box_factor_sq", "max_count_factor_sq"}


class TestSerialization:
    def test_rationals_exact(self):
        assert rat_to_json(Fraction(3)) == 3
        assert rat_to_json(Fraction(7, 2)) == "7/2"
        assert rat_to_json(-5) == -5
        assert rat_to_json(Fraction(-7, 3)) == "-7/3"
        assert rat_to_json(Fraction(6, 3)) == 2 and type(rat_to_json(Fraction(6, 3))) is int
        num, den = 3**419, 2**664  # coprime, 200 digits each
        assert len(str(num)) == len(str(den)) == 200
        assert rat_to_json(Fraction(num, den)) == f"{num}/{den}"
        assert rat_to_json(Fraction(-num, den)) == f"-{num}/{den}"

    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {"g": []}}})
    @given(_JSON_TREES)
    @settings(max_examples=200, deadline=None)
    def test_canonical_json_matches_stdlib(self, doc):
        text = to_canonical_json(doc)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        parsed = json.loads(text)
        assert _plain(parsed) == _plain(doc)
        assert to_canonical_json(parsed) == text

    def test_canonical_json_writes_other_keys_as_strings(self):
        # keys are not checked: json.dumps sorts the keys of a dict by value
        # and writes int, float, bool and None keys as strings
        doc = {"a": {10: [], 2: 3}, "b": {1.5: None}, "c": {True: 0}, "d": {None: 1}}
        assert to_canonical_json(doc) == '{"a":{"2":3,"10":[]},"b":{"1.5":null},"c":{"true":0},"d":{"null":1}}\n'

    @pytest.mark.parametrize(
        "doc, error",
        [({"ratio": Fraction(1, 2)}, TypeError), ([1, (2, Fraction(3))], TypeError), (_CIRCULAR, RecursionError)],
        ids=["fraction", "nested-fraction", "circular"],
    )
    def test_canonical_json_rejects_non_json(self, doc, error):
        with pytest.raises(error):
            to_canonical_json(doc)

    def test_report_schema(self):
        # the stages and projection records come from the dataclass fields;
        # these literal key lists catch a key added, dropped or renamed
        docs = [
            {"dim": 2, "body": {"type": "vertices", "points": [[2, 1], [1, 2]]}, "phi": [1, -1]},
            {"dim": 2, "body": {"type": "box", "halfwidths": ["5/2", 1]}},
            {"dim": 2, "body": {"type": "ball", "radius": 2}},
        ]
        entries = run_batch([parse_instance(doc) for doc in docs]).entries
        certificate = {"bound_value", "cardinality_C", "cardinality_P", "contained", "dim", "ratio", "witness"}
        stages = {
            "box_halfwidths_sq",
            "mvee_used",
            "reduction_ratio_sq",
            "subspace_dim",
            "volume_box_sq",
            "volume_parallelotope_sq",
        }
        for entry in entries:
            assert entry["mode"] == "cover"
            assert set(entry["verify"]) == certificate
            assert set(entry["cover"]) == certificate | {"stages", "stage_chain"}
            assert set(entry["cover"]["stages"]) == stages
        assert set(entries[0]["projection"]) == {
            "cardinality_P",
            "chain_ok",
            "corollary_ok",
            "degraded",
            "doubling_ok",
            "fiber_monotone",
            "functional",
            "image_count_C",
            "image_count_P",
            "max_fiber_C",
            "max_fiber_P",
            "sumset_cardinality",
        }
        assert entries[0]["projection"]["functional"] == [1, -1]
        # the moment form encloses vertex and box bodies; an ellipsoid is its own
        assert [e["cover"]["stages"]["mvee_used"] for e in entries] == [True, True, False]

    def test_report_json_numbers_exact_or_tagged(self):
        body = parse_instance({"dim": 2, "body": {"type": "ball", "radius": 2}}).body
        _, report = cover(body)
        doc = cover_report_to_json(report, include_timings=True)

        def walk(node, path=""):
            if isinstance(node, float):
                assert "approx" in path, f"untagged float at {path}"
            elif isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{path}.{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, f"{path}[{i}]")

        walk(doc)
        assert "timings_ms_approx" in doc
        # the certification's work: every run of the disk tested, no point
        assert doc["timings_ms_approx"]["runs_tested"] == len(report.lattice_points.runs) == 3
        assert doc["timings_ms_approx"]["points_tested"] == 0
        assert "runs_tested" not in to_canonical_json(cover_report_to_json(report))

    @pytest.mark.parametrize(
        "gap, witness, runs_tested, points_tested",
        [
            # base 0: the swept runs (0,) + [0, 2], (1,) + [-1, 1], (2,) + [0, 0]
            # are scanned last first, and the third (index 2) fails; from t = 2
            # down, (0, 2) is the first point outside, and minus it the witness
            ({"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [2, 1]}, [0, -2], 3, 1),
            # base (0, -1): the three mirrored runs hold, and the swept run
            # (0,) + [0, 2], index 3, fails at t = 2, its third point
            ({"base": [0, -1], "diffs": [[1, 0], [0, 1]], "halfsides": [2, 2]}, [0, 2], 4, 3),
        ],
        ids=["false-claim", "shifted-base"],
    )
    def test_work_counters_of_failing_claims(self, gap, witness, runs_tested, points_tested):
        # runs_tested = index of the failing run + 1, points_tested = the
        # failing point's position in t order within that run
        spec = parse_instance({"dim": 2, "body": {"type": "ball", "radius": 2}, "gap": gap})
        verify = run_batch([spec], include_timings=True).entries[0]["verify"]
        assert verify["witness"] == witness
        assert verify["timings_ms_approx"]["runs_tested"] == runs_tested
        assert verify["timings_ms_approx"]["points_tested"] == points_tested

    def test_canonical_json_stable(self):
        batch1 = run_batch([parse_instance({"dim": 1, "body": {"type": "box", "halfwidths": [2]}})])
        batch2 = run_batch([parse_instance({"dim": 1, "body": {"type": "box", "halfwidths": [2]}})])
        assert to_canonical_json(batch_report_to_json(batch1)) == to_canonical_json(
            batch_report_to_json(batch2)
        )
