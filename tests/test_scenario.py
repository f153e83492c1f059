import itertools
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from garagesim import scenario as scenario_module

from garagesim import visibility
from garagesim.errors import ConstructionError, OptionError, SchemaError
from garagesim.scene import (
    Box3,
    LightLevel,
    NodeKind,
    SceneNode,
    apply_light_level,
    remove_node,
    vehicle_box,
)
from garagesim.scenario import (
    DEFAULT_WEIGHTS,
    DifficultyScore,
    Scenario,
    ScenarioLabel,
    _scene_from_nodes,
    _sweep_stats,
    build_case1,
    build_case2,
    build_case3,
    emit_report,
    report_document,
    rescore_report_document,
    run_scenario,
    score,
    target_sweep,
)
from garagesim.visibility import (
    CameraConfig,
    EgoPose,
    OcclusionSweep,
    VisibilitySample,
    pose_at,
    sweep,
    visible_fraction,
)

from oracles import box_face_points, clears_from, column_shadow_fraction

CFG = CameraConfig()


def fractions(report, target="veh-target"):
    return [s.visible_fraction for s in report.sweeps[target].samples]


class TestCase1:
    def test_start_hidden_end_clear(self):
        report = run_scenario(build_case1())
        fr = fractions(report)
        assert fr[0] < 0.3
        assert fr[-1] > 0.9

    def test_clearing_sample_exists(self):
        report = run_scenario(build_case1())
        fr = fractions(report)
        clear_from = next(k for k in range(len(fr)) if all(f >= 0.9 for f in fr[k:]))
        assert clear_from < len(fr) - 1
        assert report.stats["veh-target"]["clears_to_high_visibility"]

    def test_prune_column_monotone(self):
        scn = build_case1()
        with_col = run_scenario(scn)
        pruned = Scenario(
            scene=remove_node(scn.scene, scn.params["column_id"]),
            ego_path=scn.ego_path,
            target_ids=scn.target_ids,
            label=scn.label,
            params=scn.params,
        )
        without = run_scenario(pruned)
        for a, b in zip(fractions(with_col), fractions(without)):
            assert b >= a - 1e-12

    def test_target_distance_monotone_at_start(self):
        starts = []
        for td in (14.0, 18.0, 22.0):
            report = run_scenario(build_case1(target_distance=td))
            starts.append(fractions(report)[0])
        assert all(b <= a + 1e-12 for a, b in zip(starts, starts[1:]))

    def test_column_overlap_rejected(self):
        # column pushed onto the target vehicle
        with pytest.raises(ConstructionError):
            build_case1(column_setback=16.4, lane_width=6.0, target_distance=18.0)

    def test_bad_dimensions(self):
        with pytest.raises(ConstructionError):
            build_case1(column_setback=-1.0)

    @pytest.mark.parametrize("field, message", [
        ("target_ids", "scenario needs at least one target"),
        ("ego_path", "scenario needs an ego pose or path"),
    ])
    def test_scenario_needs_a_target_and_an_ego_pose(self, field, message):
        with pytest.raises(ConstructionError) as err:
            replace(build_case1(), **{field: ()})
        assert str(err.value) == message

    @pytest.mark.parametrize("dims", [
        {"column_setback": 1e300}, {"lane_width": 2.0**129}, {"target_distance": -1e39},
        {"column_setback": math.inf},
    ])
    def test_dimensions_past_the_bound_are_option_errors(self, dims):
        with pytest.raises(OptionError, match="below 2"):
            build_case1(**dims)

    def test_column_placed_past_the_bound(self):
        # dimensions within the bound, but the target all but abeam of the
        # start pose: the column's sight line runs out past 2**129
        with pytest.raises(ConstructionError, match="past 2"):
            build_case1(column_setback=6e38, lane_width=6.0, target_distance=1.0)

    def test_occluder_is_the_column(self):
        report = run_scenario(build_case1())
        first = report.sweeps["veh-target"].samples[0]
        assert first.occluders and first.occluders[0][0] == "col-corner"


class TestCase2:
    def test_roles_swapped(self):
        scn = build_case2()
        assert scn.target_path is not None
        report = run_scenario(scn)
        sw = report.sweeps["veh-target"]
        assert sw.swept == "target"
        # the parked ego never moves
        assert len({s.ego.position for s in sw.samples}) == 1

    def test_target_must_be_a_vehicle(self):
        scn = build_case2()
        with pytest.raises(ValueError, match="not a vehicle"):
            target_sweep(scn.scene, scn.ego_path[0], scn.target_path, CFG, "col-side")

    def test_one_index_per_sweep(self, monkeypatch):
        from garagesim import visibility

        built = []
        init = visibility.SceneIndex.__init__

        def counting_init(self, scene):
            built.append(scene)
            init(self, scene)

        monkeypatch.setattr(visibility.SceneIndex, "__init__", counting_init)
        scn = build_case2()
        sw = target_sweep(scn.scene, scn.ego_path[0], scn.target_path, CFG, "veh-target",
                          ignore_ids=scn.ignore_ids)
        assert len(sw.samples) == 25
        assert len(built) == 1
        case1 = build_case1()
        sweep(case1.scene, case1.ego_path, CFG, "veh-target")
        assert len(built) == 2

    def test_index_built_once_per_scene(self, monkeypatch):
        from dataclasses import replace

        from garagesim import visibility
        from garagesim.visibility import visible_fraction

        built = []
        init = visibility.SceneIndex.__init__

        def counting_init(self, scene):
            built.append(scene)
            init(self, scene)

        monkeypatch.setattr(visibility.SceneIndex, "__init__", counting_init)
        case1 = build_case1()
        first = sweep(case1.scene, case1.ego_path, CFG, "veh-target")
        assert built == [case1.scene]
        again = sweep(case1.scene, case1.ego_path, CFG, "veh-target")
        visible_fraction(case1.scene, case1.ego_path[0], CFG, "veh-target")
        assert built == [case1.scene] and again == first
        trimmed = replace(case1.scene, nodes=case1.scene.nodes[1:])
        sweep(trimmed, case1.ego_path, CFG, "veh-target")
        dim = apply_light_level(case1.scene, LightLevel.DIM)
        sweep(dim, case1.ego_path, CFG, "veh-target")
        assert [id(s) for s in built] == [id(case1.scene), id(trimmed), id(dim)]

    def test_engine_matches_independent_shadow_oracle(self):
        scn = build_case2()
        report = run_scenario(scn)
        sw = report.sweeps["veh-target"]
        col = scn.scene.node("col-side").box.aabb
        rect = (col[0], col[1], col[3], col[4])
        apex = (0.0, 0.0, 0.05 + CFG.mount_height)
        tan_h = math.tan(math.radians(30.0))
        tan_v = tan_h / CFG.aspect

        engine = [s.visible_fraction for s in sw.samples]
        oracle = []
        for k in range(len(sw.samples)):
            y = -6.0 + k * 0.5
            pts = box_face_points((8.0, y, 0.05 + 0.75), (0.9, 2.1, 0.75),
                                  math.pi / 2 + math.pi / 2, apex, n=16)
            frac, _ = column_shadow_fraction(apex, tan_h, tan_v, 0.0, pts, [rect])
            oracle.append(frac)
        for e, o in zip(engine, oracle):
            assert e == pytest.approx(o, abs=0.12)
        argmin_e = min(range(len(engine)), key=engine.__getitem__)
        argmin_o = min(range(len(oracle)), key=oracle.__getitem__)
        assert abs(argmin_e - argmin_o) <= 1

    def test_dip_at_column_bearing(self):
        scn = build_case2()
        with_col = run_scenario(scn)
        no_col = run_scenario(
            Scenario(
                scene=remove_node(scn.scene, "col-side"),
                ego_path=scn.ego_path,
                target_ids=scn.target_ids,
                label=scn.label,
                params=scn.params,
                target_path=scn.target_path,
                ignore_ids=scn.ignore_ids,
            )
        )
        base = fractions(no_col)
        got = fractions(with_col)
        # without the column every in-frustum sample is fully visible
        sw = no_col.sweeps["veh-target"]
        for s in sw.samples:
            if s.in_frustum:
                assert s.visible_fraction == 1.0
        # the column carves a dip somewhere inside the clear window
        window = [k for k, f in enumerate(base) if f >= 0.999]
        dips = [k for k in window if got[k] < 1.0 - 1e-9]
        assert dips, "column never shadowed the target"
        worst = min(window, key=lambda k: got[k])
        sample = with_col.sweeps["veh-target"].samples[worst]
        assert sample.occluders and sample.occluders[0][0] == "col-side"

    def test_farther_column_blocks_less(self):
        mins = []
        for off in (2.5, 3.5, 4.5):
            report = run_scenario(build_case2(column_offset=off))
            sw = report.sweeps["veh-target"]
            mins.append(min(s.visible_fraction for s in sw.samples if s.in_frustum))
        assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))

    def test_bad_geometry(self):
        with pytest.raises(ConstructionError):
            build_case2(column_offset=9.0, lane_distance=8.0)
        with pytest.raises(ConstructionError):
            build_case2(column_offset=-2.0)
        with pytest.raises(OptionError, match="below 2"):
            build_case2(lane_distance=1e300)

    def test_moved_target_keeps_its_own_box(self):
        # an untagged large target: each sample sees the large box at the
        # pose, as a scene with the box parked there shows it
        scn = build_case2()
        start = scn.target_path[0].position
        large = SceneNode("veh-target", NodeKind.VEHICLE, vehicle_box(start, "large", 0))
        others = [n for n in scn.scene.nodes if n.id != "veh-target"]
        sw = target_sweep(_scene_from_nodes([*others, large]), scn.ego_path[0],
                          scn.target_path, CFG, "veh-target", ignore_ids=scn.ignore_ids)
        assert len(sw.samples) == 25
        for k, sample in enumerate(sw.samples):
            # the lane runs south, so the target faces south: two quarter-turns
            moved = vehicle_box(pose_at(scn.target_path, k * sw.step).position, "large", 2)
            parked = _scene_from_nodes([*others, SceneNode("veh-target", NodeKind.VEHICLE, moved)])
            assert sample == visible_fraction(parked, scn.ego_path[0], CFG, "veh-target",
                                              ignore_ids=scn.ignore_ids), k


class TestCase3:
    def test_solo_controls_fully_visible(self):
        for slot in ("close", "medium", "far"):
            report = run_scenario(build_case3([(slot, "small")]))
            sw = report.sweeps[f"veh-{slot}"]
            in_frustum = [s for s in sw.samples if s.in_frustum]
            assert in_frustum, slot
            assert all(s.visible_fraction == 1.0 for s in in_frustum)

    def test_compound_pointwise_not_above_solo(self):
        solo = run_scenario(build_case3([("far", "small")]))
        both = run_scenario(build_case3([("close", "large"), ("far", "small")]))
        for a, b in zip(fractions(solo, "veh-far"), fractions(both, "veh-far")):
            assert b <= a + 1e-12

    def test_larger_occluder_hides_more(self):
        mins = {}
        for occ, tgt in itertools.permutations(("small", "medium", "large"), 2):
            report = run_scenario(build_case3([("close", occ), ("far", tgt)]))
            sw = report.sweeps["veh-far"]
            mins[(occ, tgt)] = min(
                s.visible_fraction for s in sw.samples if s.in_frustum
            )
        rank = {"small": 0, "medium": 1, "large": 2}
        strict = 0
        for tgt in ("small", "medium", "large"):
            lo, hi = sorted((o for o in rank if o != tgt), key=rank.__getitem__)
            assert mins[(hi, tgt)] <= mins[(lo, tgt)] + 1e-12
            if mins[(hi, tgt)] < mins[(lo, tgt)] - 1e-12:
                strict += 1
        assert strict >= 1

    def test_compound_pairs_reported(self):
        report = run_scenario(build_case3([("close", "large"), ("far", "small")]))
        contrib = report.stats["veh-far"]["occluder_contributions"]
        assert "veh-close" in contrib

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ConstructionError, match="twice"):
            build_case3([("close", "small"), ("close", "large")])

    def test_empty_layout_rejected(self):
        with pytest.raises(ConstructionError):
            build_case3([])

    def test_unknown_slot_and_size(self):
        with pytest.raises(ConstructionError):
            build_case3([("middle", "small")])
        with pytest.raises(ConstructionError):
            build_case3([("close", "tiny")])


class TestScore:
    @staticmethod
    def constant_sweep(value: float, n: int = 10) -> OcclusionSweep:
        ego = EgoPose((0.0, 0.0), 0.0)
        samples = tuple(
            VisibilitySample(ego, "veh-x", value, True, ()) for _ in range(n)
        )
        return OcclusionSweep(samples=samples, step=0.5, path=(ego,))

    def test_all_visible_bright_is_zero(self):
        sc = score([self.constant_sweep(1.0)], LightLevel.BRIGHT)
        assert sc.total == 0.0

    def test_all_blocked_dim_is_hundred(self):
        sc = score([self.constant_sweep(0.0)], LightLevel.DIM)
        assert sc.total == pytest.approx(100.0)

    def test_dim_beats_bright(self):
        sw = [self.constant_sweep(0.7)]
        assert score(sw, LightLevel.DIM).total > score(sw, LightLevel.BRIGHT).total

    def test_light_order(self):
        sw = [self.constant_sweep(0.5)]
        totals = [score(sw, lv).total for lv in
                  (LightLevel.BRIGHT, LightLevel.CLEAR, LightLevel.MODERATE, LightLevel.DIM)]
        assert totals == sorted(totals)

    def test_weights_vector(self):
        sw = [self.constant_sweep(0.25)]
        sc = score(sw, LightLevel.BRIGHT, weights=(1.0, 0.0, 0.0))
        assert sc.total == pytest.approx(75.0)
        assert sc.occlusion_term == pytest.approx(0.75)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            score([self.constant_sweep(1.0)], LightLevel.BRIGHT, weights=(0.5, 0.5, 0.5))
        for weights, threshold in (
            ((2.0, -1.0, 0.0), 0.2),
            ((1.5, -0.5, 0.0), 0.2),
            ((math.nan, 0.5, 0.5), 0.2),
            ((math.inf, 0.0, 0.0), 0.2),
            ((0.5, 0.5), 0.2),
            (DEFAULT_WEIGHTS, math.nan),
            (DEFAULT_WEIGHTS, -0.1),
            (DEFAULT_WEIGHTS, 1.5),
        ):
            with pytest.raises(ValueError):
                score([self.constant_sweep(1.0)], LightLevel.BRIGHT, weights, threshold)

    def test_empty_sweeps_error(self):
        with pytest.raises(ValueError):
            score([], LightLevel.BRIGHT)

    def test_blackout_run(self):
        ego = EgoPose((0.0, 0.0), 0.0)
        vals = [1.0, 0.1, 0.15, 0.1, 1.0, 0.1, 1.0, 1.0, 1.0, 1.0]
        sw = OcclusionSweep(
            samples=tuple(VisibilitySample(ego, "t", v, True, ()) for v in vals),
            step=0.5, path=(ego,),
        )
        sc = score([sw], LightLevel.BRIGHT)
        assert sc.blackout_term == pytest.approx(3 / 10)

    def test_adding_occluder_never_lowers_score(self):
        rng = random.Random(99)
        scn = build_case1()
        base = run_scenario(scn).score.total
        for k in range(10):
            x = rng.uniform(0.5, 9.0)
            y = rng.uniform(-2.0, 2.0)
            node = SceneNode(f"extra-{k}", NodeKind.COLUMN,
                             Box3((x, y, 1.5), (0.3, 0.3, 1.5)), {})
            bigger = Scenario(
                scene=_scene_from_nodes(list(scn.scene.nodes) + [node]),
                ego_path=scn.ego_path,
                target_ids=scn.target_ids,
                label=scn.label,
                params=scn.params,
            )
            assert run_scenario(bigger).score.total >= base - 1e-9


class TestRunOptions:
    @pytest.mark.parametrize("build", [build_case1, build_case2])
    @pytest.mark.parametrize("option", [
        {"step": 0.0}, {"step": math.nan}, {"step": math.inf}, {"step": -0.5},
        {"step": 1e-300}, {"samples_per_edge": 0}, {"samples_per_edge": -1},
    ], ids=lambda option: "{}={}".format(*next(iter(option.items()))))
    def test_bad_option_raises_before_any_sample(self, monkeypatch, build, option):
        def no_sample(*args):
            raise AssertionError("a sample was taken")

        monkeypatch.setattr(visibility, "_sample_from_points", no_sample)
        scn = build()
        with pytest.raises(OptionError):
            run_scenario(scn, **option)
        # the swept path: case 2's ego path is one pose, where any step
        # takes one sample
        path = scn.target_path or scn.ego_path
        with pytest.raises(ValueError):  # an OptionError is a ValueError too
            sweep(scn.scene, path, CFG, scn.target_ids[0], **option)


class TestRunAndReport:
    def test_repeat_run_identical(self):
        a = run_scenario(build_case1())
        b = run_scenario(build_case1())
        assert emit_report(a) == emit_report(b)

    def test_relight_changes_score_only(self):
        scn = build_case1()
        bright = run_scenario(scn)
        dim = run_scenario(replace(scn, scene=apply_light_level(scn.scene, LightLevel.DIM)))
        assert fractions(bright) == fractions(dim)
        assert dim.score.total > bright.score.total
        assert dim.light_level is LightLevel.DIM

    def test_report_document_shape(self):
        report = run_scenario(build_case3([("close", "small"), ("far", "large")]))
        doc = report_document(report)
        assert doc["schema"] == "report/1"
        assert set(doc["sweeps"]) == {"veh-close", "veh-far"}
        assert doc["score"]["weights"] == [0.4, 0.4, 0.2]
        stats = doc["stats"]["veh-far"]
        assert stats["samples"] == len(report.sweeps["veh-far"].samples)

    def test_rescore_matches_original(self):
        report = run_scenario(build_case1())
        doc = json.loads(emit_report(report))
        sc = rescore_report_document(doc, DEFAULT_WEIGHTS)
        assert sc.total == pytest.approx(report.score.total)
        heavier = rescore_report_document(doc, (1.0, 0.0, 0.0))
        assert heavier.occlusion_term == pytest.approx(report.score.occlusion_term)

    def test_rescore_validates(self):
        with pytest.raises(SchemaError):
            rescore_report_document({"schema": "nope"}, DEFAULT_WEIGHTS)
        report = run_scenario(build_case1())
        doc = json.loads(emit_report(report))
        with pytest.raises(ValueError):
            rescore_report_document(doc, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            rescore_report_document(doc, (2.0, -1.0, 0.0))
        with pytest.raises(ValueError):
            rescore_report_document(doc, DEFAULT_WEIGHTS, math.nan)
        for sweeps in ([], 5, {"veh-target": 5}):
            with pytest.raises(SchemaError, match="malformed report"):
                rescore_report_document(dict(doc, sweeps=sweeps), DEFAULT_WEIGHTS)

    def test_clears_from_is_one_scan(self):
        rng = random.Random(29)
        cases = [[1.0] * 5, [0.0] * 5, [1.0] * 6 + [0.5], [0.95, 0.2, 0.9, 0.91],
                 [0.9, math.nan, 0.95], [math.nan], [0.89999], [0.9]]
        for _ in range(300):
            n = rng.randrange(1, 30)
            cases.append([rng.choice([0.0, 0.5, 0.89, 0.9, 0.95, 1.0, rng.random()])
                          for _ in range(n)])
        for fracs in cases:
            step = rng.choice([0.5, 0.3, 0.7])
            sw = OcclusionSweep(
                samples=tuple(VisibilitySample(EgoPose((0.0, 0.0), 0.0), "t", f, True, ())
                              for f in fracs),
                step=step, path=(EgoPose((0.0, 0.0), 0.0),))
            stats, want = _sweep_stats(sw), clears_from(fracs, step)
            assert stats["clears_from_s"] == want, fracs
            assert stats["clears_to_high_visibility"] is (want is not None)

    def test_stats_recomputable_from_sweeps(self):
        report = run_scenario(build_case1())
        sw = report.sweeps["veh-target"]
        st = report.stats["veh-target"]
        fr = [s.visible_fraction for s in sw.samples]
        assert st["min_visible_fraction"] == min(fr)
        assert st["mean_visible_fraction"] == pytest.approx(sum(fr) / len(fr))


# --- report/1 text: the fixed-layout writer against json ---------------------------


def _json_report(report) -> str:
    return json.dumps(report_document(report), indent=2, sort_keys=True) + "\n"


_BASE_REPORT = run_scenario(build_case1(), step=2.0)

# finite floats, those json and float.__repr__ spell alike, with the edges
_PLAIN = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1e308]))
# what the layout leaves to json: ints, NaN and the infinities, bools
_ODD = st.one_of(st.integers(-2, 10**20), st.sampled_from([math.nan, math.inf, -math.inf,
                                                          True, False]))
_IDS = st.one_of(st.text(st.sampled_from('ab-"\\/\u00e9\u6f22\U0001f697\n\t\x00\x7f'),
                         max_size=6),
                 st.sampled_from(["veh-target", 'q"uote', "back\\slash", "\u00fcn\u00ef"]))


@st.composite
def _reports(draw):
    """A report of drawn sweeps: all plain finite floats, or odd values
    mixed in at random."""
    number = st.one_of(_PLAIN, _PLAIN, _ODD) if draw(st.booleans()) else _PLAIN
    pose = st.builds(EgoPose, st.tuples(number, number), number)
    sample = st.builds(
        VisibilitySample, ego=pose, target_id=_IDS, visible_fraction=number,
        in_frustum=st.booleans(),
        occluders=st.one_of(st.just(()), st.lists(st.tuples(_IDS, number), max_size=3).map(tuple),
                            st.lists(st.tuples(_IDS, number), min_size=20, max_size=40).map(tuple)))
    one = st.builds(OcclusionSweep, samples=st.lists(sample, max_size=6).map(tuple), step=number,
                    path=st.lists(pose, max_size=3).map(tuple),
                    swept=st.sampled_from(["ego", "target"]))
    return replace(_BASE_REPORT, sweeps=draw(st.dictionaries(_IDS, one, max_size=3)))


@given(_reports())
@example(_BASE_REPORT)
@example(run_scenario(build_case1(), step=1))  # an int step makes every s_m an int
@example(run_scenario(build_case2(), step=0.7))  # swept "target"
@example(replace(_BASE_REPORT, sweeps={}))
def test_emit_report_is_json_dumps_of_the_document(report):
    assert emit_report(report) == _json_report(report)


def _one_sample(**fields) -> dict:
    sample = VisibilitySample(ego=EgoPose((0.5, -0.0), 0.25), target_id="t",
                              visible_fraction=0.5, in_frustum=False, occluders=())
    return {"t": OcclusionSweep(samples=(replace(sample, **fields),), step=0.5,
                                path=(EgoPose((0.0, 0.0), 0.0),))}


@pytest.mark.parametrize("sweeps", [
    _one_sample(ego=EgoPose((0, 0), 0)),  # a one-pose path of int positions
    _one_sample(visible_fraction=math.nan),  # json writes NaN, float.__repr__ nan
    _one_sample(occluders=(("col", math.inf),)),
    _one_sample(visible_fraction=np.float64(0.25)),  # a float subclass: json writes its repr
    _one_sample(visible_fraction=True),
    _one_sample(target_id=type("Id", (str,), {})("t")),
    _one_sample(target_id=7),
    {7: _one_sample()["t"]},
], ids=["int-positions", "nan", "inf-occluder", "float64", "bool-fraction", "str-subclass",
        "int-id", "int-key"])
def test_odd_values_give_json_bytes(sweeps):
    report = replace(_BASE_REPORT, sweeps=sweeps)
    assert emit_report(report) == _json_report(report)


@pytest.mark.parametrize("sweeps", [
    _one_sample(in_frustum=np.bool_(True)),
    {("tuple", "id"): _one_sample()["t"]},
    {"a": _one_sample()["t"], 7: _one_sample()["t"]},
])
def test_values_json_cannot_write_raise_as_json_raises(sweeps):
    report = replace(_BASE_REPORT, sweeps=sweeps)
    with pytest.raises(TypeError) as want:
        _json_report(report)
    with pytest.raises(TypeError) as got:
        emit_report(report)
    assert str(got.value) == str(want.value)


def test_plain_reports_write_their_sweeps_from_the_templates(monkeypatch):
    # a report of plain floats, strs and bools never builds a sweep document
    reports = [run_scenario(build_case1()), run_scenario(build_case2()),
               run_scenario(build_case3([("close", "large"), ("far", "small")]))]
    want = [_json_report(report) for report in reports]

    def no_document(sw):
        raise AssertionError("the sweep went through json")

    monkeypatch.setattr(scenario_module, "sweep_document", no_document)
    assert [emit_report(report) for report in reports] == want
