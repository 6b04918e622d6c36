import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wattscope import (
    CalibrationModel,
    DegenerateInput,
    JobPower,
    MalformedLine,
    NodeMismatch,
    apply_calibration,
    fit_nodes,
    fit_scale,
    parse_models,
    serialize_models,
)
from wattscope.traces import _interp
from test_attribution import make_slice
from helpers import grid_fit_oracle, power_sample


class TestFitScale:
    def test_identity(self):
        m = fit_scale([100.0, 150.0, 200.0], [100.0, 150.0, 200.0], node_id="n1")
        assert m.k == 1.0
        assert m.mape_pct == 0.0
        assert m.energy_err_pct == 0.0
        assert m.n_points == 3

    def test_exact_scale_recovery(self):
        s = [50.0, 80.0, 120.0, 90.0]
        m = fit_scale(s, [2.5 * x for x in s])
        assert math.isclose(m.k, 2.5, rel_tol=1e-12)
        assert m.mape_pct < 1e-9

    def test_hand_computed_fit_and_mape(self):
        # k = (1*2 + 1*2 + 1*2 + 1*0) / 4 = 1.5; the zero-watt sample
        # stays in the fit but drops out of the percentage error
        m = fit_scale([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 0.0])
        assert m.k == 1.5
        assert m.mape_pct == 25.0
        assert m.energy_err_pct == 0.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            fit_scale([100.0], [100.0])
        with pytest.raises(DegenerateInput):
            fit_scale([0.0, 0.0], [100.0, 100.0])
        with pytest.raises(DegenerateInput):
            fit_scale([100.0, 100.0], [0.0, 0.0])  # fitted scale would be zero
        with pytest.raises(DegenerateInput):
            fit_scale([1e154, 1e154], [1e154, 1e154])  # sum of s * e overflows
        with pytest.raises(DegenerateInput):
            fit_scale([1e-170, 1e-170], [1.0, 1.0])  # every s * s underflows to 0
        with pytest.raises(DegenerateInput):
            fit_scale([1.0, 1.0], [5e-324, 1.0])  # the relative error at a 5e-324 W reading overflows

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_scale([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_scale([-1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_scale([1.0, 2.0], [1.0, -2.0])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1000.0), min_size=2, max_size=20),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_exact_proportionality_recovered(self, s, c):
        m = fit_scale(s, [c * x for x in s])
        assert math.isclose(m.k, c, rel_tol=1e-12)
        assert m.mape_pct < 1e-9

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)), min_size=2, max_size=40), st.randoms())
    def test_fit_does_not_depend_on_sample_order(self, pairs, rng):
        # the sums are exactly rounded, so any order gives the same bits
        try:
            want = fit_scale(*zip(*pairs))
        except DegenerateInput:
            return
        rng.shuffle(pairs)
        assert fit_scale(*zip(*pairs)) == want

    def test_noisy_recovery_matches_grid_search(self):
        rng = random.Random(61)
        k_true = 1.6
        s = [rng.uniform(50.0, 400.0) for _ in range(500)]
        e = [k_true * x * (1.0 + rng.uniform(-0.05, 0.05)) for x in s]
        m = fit_scale(s, e)
        assert abs(m.k - k_true) / k_true < 0.02
        best_c, best_mape = grid_fit_oracle(s, e)
        assert abs(m.k - best_c) <= 1e-4  # grid resolution
        assert abs(m.mape_pct - best_mape) < 0.02

    def test_constant_baseline_shows_up_in_error_not_in_k(self):
        rng = random.Random(67)
        s = [rng.uniform(50.0, 200.0) for _ in range(400)]
        e = [1.5 * x + 40.0 for x in s]
        m = fit_scale(s, e)
        best_c, best_mape = grid_fit_oracle(s, e)
        assert abs(m.k - best_c) <= 1e-4
        assert abs(m.mape_pct - best_mape) < 0.02
        assert m.mape_pct > 1.0  # the unmodeled 40 W is visible


class TestApplyCalibration:
    def test_identity_scale(self):
        model = CalibrationModel("n1", 1.0, 0.0, 10)
        s = make_slice(jobs={7: JobPower(100.0, 50.0)}, un_cpu=10.0, un_gpu=5.0)
        (out,) = apply_calibration(model, [s])
        assert out.per_job[7].ext_w == 150.0
        assert out.unattributed_ext_w == 15.0
        # software columns are left untouched
        assert out.per_job[7].cpu_w == 100.0
        assert out.per_job[7].gpu_w == 50.0

    def test_scaling(self):
        model = CalibrationModel("n1", 2.0, 0.0, 10)
        s = make_slice(jobs={7: JobPower(100.0, 50.0), 8: JobPower(25.0, 0.0)})
        (out,) = apply_calibration(model, [s])
        assert out.per_job[7].ext_w == 300.0
        assert out.per_job[8].ext_w == 50.0

    def test_node_mismatch(self):
        model = CalibrationModel("n1", 1.0, 0.0, 10)
        with pytest.raises(NodeMismatch):
            apply_calibration(model, [make_slice(node="n2")])

    def test_total_is_conserved(self):
        model = CalibrationModel("n1", 1.7, 0.0, 10)
        slices = [
            make_slice(t0=i, t1=i + 1.0, jobs={7: JobPower(float(i), 2.0 * i)}, un_cpu=3.0)
            for i in range(10)
        ]
        for out in apply_calibration(model, slices):
            soft = sum(p.cpu_w + p.gpu_w for p in out.per_job.values())
            soft += out.unattributed_cpu_w + out.unattributed_gpu_w
            ext = sum(p.ext_w for p in out.per_job.values()) + out.unattributed_ext_w
            assert math.isclose(ext, model.k * soft, rel_tol=1e-12)


@st.composite
def series_on_a_grid(draw):
    """Series on the canonical ms grid, and a grid within the span they all cover.

    The grid holds meter instants and every sample instant in that span, so
    it hits samples exactly, the first and last included.
    """
    series = []
    for _ in range(draw(st.integers(1, 4))):
        ms = sorted(draw(st.sets(st.integers(0, 20_000), min_size=1, max_size=40)))
        watts = draw(st.lists(st.floats(0.0, 1e4), min_size=len(ms), max_size=len(ms)))
        series.append((array("d", [t / 1000.0 for t in ms]), array("d", watts)))
    lo, hi = max(ts[0] for ts, _ in series), min(ts[-1] for ts, _ in series)
    meter = {t / 1000.0 for t in draw(st.lists(st.integers(0, 20_000), max_size=60))}
    samples = {t for ts, _ in series for t in ts}
    return series, array("d", sorted(t for t in meter | samples if lo <= t <= hi))


class TestInterp:
    @given(series_on_a_grid())
    def test_matches_np_interp_bit_for_bit(self, drawn):
        series, grid = drawn
        total, np_total = [0.0] * len(grid), np.zeros(len(grid))
        for ts, w in series:
            got = _interp(grid, ts, w)
            want = np.interp(np.frombuffer(grid), np.frombuffer(ts), np.frombuffer(w))
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]
            total = [a + b for a, b in zip(total, got)]
            np_total += want
        assert [x.hex() for x in total] == [x.hex() for x in np_total.tolist()]


class TestFitNodes:
    @staticmethod
    def constant_node(node, k, soft_w=100.0, n=100):
        soft = [power_sample(node, "cpu0", float(t), soft_w) for t in range(n)]
        ext = [power_sample(node, "ext", t + 0.5, k * soft_w) for t in range(n - 1)]
        return soft, ext

    def test_per_node_models(self):
        soft_a, ext_a = self.constant_node("a", 2.5)
        soft_b, ext_b = self.constant_node("b", 1.2)
        models = fit_nodes(soft_a + soft_b, ext_a + ext_b)
        assert [m.node_id for m in models] == ["a", "b"]
        assert math.isclose(models[0].k, 2.5, rel_tol=1e-12)
        assert math.isclose(models[1].k, 1.2, rel_tol=1e-12)

    def test_sources_sum_before_fitting(self):
        soft = [power_sample("a", "cpu0", float(t), 100.0) for t in range(50)]
        soft += [power_sample("a", "gpu0", float(t), 50.0) for t in range(50)]
        ext = [power_sample("a", "ext", t + 0.25, 300.0) for t in range(49)]
        (m,) = fit_nodes(soft, ext)
        assert math.isclose(m.k, 2.0, rel_tol=1e-12)

    def test_resamples_software_onto_external_timestamps(self):
        soft = [power_sample("a", "cpu0", 0.0, 0.0), power_sample("a", "cpu0", 10.0, 100.0)]
        ext = [power_sample("a", "ext", t, 2.0 * 10.0 * t) for t in (2.5, 5.0, 7.5)]
        (m,) = fit_nodes(soft, ext)
        assert math.isclose(m.k, 2.0, rel_tol=1e-12)
        assert m.n_points == 3

    def test_external_points_outside_software_span_are_dropped(self):
        soft = [power_sample("a", "cpu0", float(t), 100.0) for t in range(10, 21)]
        ext = [power_sample("a", "ext", float(t), 150.0) for t in range(0, 31)]
        (m,) = fit_nodes(soft, ext)
        assert m.n_points == 11

    def test_unusable_nodes_are_skipped(self):
        soft_a, ext_a = self.constant_node("a", 2.0)
        ext_orphan = [power_sample("b", "ext", float(t), 100.0) for t in range(10)]
        models = fit_nodes(soft_a + [], ext_a + ext_orphan)
        assert [m.node_id for m in models] == ["a"]

    def test_no_usable_node_raises(self):
        ext = [power_sample("b", "ext", float(t), 100.0) for t in range(10)]
        with pytest.raises(DegenerateInput):
            fit_nodes([], ext)
        soft = [power_sample("a", "cpu0", 0.0, 100.0), power_sample("a", "cpu0", 1.0, 100.0)]
        with pytest.raises(DegenerateInput):
            fit_nodes(soft, [power_sample("a", "ext", 0.5, 100.0)])  # one overlapping point

    def test_no_fit_names_each_node_and_its_reason(self):
        ext = [power_sample(node, "ext", float(t), 1e154) for node in ("a", "b", "c") for t in range(10)]
        soft = [power_sample("b", "cpu0", 0.0, 100.0), power_sample("b", "cpu0", 0.5, 100.0)]  # one meter instant
        soft += [power_sample("c", "cpu0", float(t), 1e154) for t in range(10)]
        with pytest.raises(DegenerateInput) as info:
            fit_nodes(soft, ext)
        assert str(info.value) == (
            "no node could be fitted: a: no cpu or gpu readings; "
            "b: fewer than 2 meter readings within the span every software series covers; "
            "c: power readings too large or too small to fit"
        )
        with pytest.raises(DegenerateInput, match="^no node could be fitted: no external readings$"):
            fit_nodes(soft, [])

    def test_a_fitted_node_hides_the_skip_reasons(self):
        soft_a, ext_a = self.constant_node("a", 2.0)
        ext_b = [power_sample("b", "ext", float(t), 1e154) for t in range(10)]
        assert fit_nodes(soft_a, ext_a + ext_b) == fit_nodes(soft_a, ext_a)


class TestModelSerialization:
    def test_round_trip(self):
        models = [
            CalibrationModel("a", 1.5, 3.25, 100, energy_err_pct=1.125),
            CalibrationModel("b", 2.0, 0.0, 50),
        ]
        text = serialize_models(models)
        assert parse_models(text.splitlines()) == models
        assert serialize_models(parse_models(text.splitlines())) == text

    def test_unknown_keys_ignored(self):
        (m,) = parse_models(['{"node":"a","k":1.5,"mape_pct":3.0,"n":10,"comment":"??"}'])
        assert m == CalibrationModel("a", 1.5, 3.0, 10)

    def test_rejections(self):
        bad = [
            '{"node":"a","k":0.0,"mape_pct":3.0,"n":10}',
            '{"node":"a","k":-1.0,"mape_pct":3.0,"n":10}',
            '{"node":"a","k":1.5,"mape_pct":-3.0,"n":10}',
            '{"node":"a","k":1.5,"mape_pct":3.0,"n":1}',
            '{"node":"a","k":1.5,"mape_pct":3.0,"n":10.5}',
            '{"node":"a","k":1.5,"mape_pct":3.0,"n":true}',
            '{"node":"a","k":1.5,"mape_pct":3.0}',
        ]
        for line in bad:
            with pytest.raises(MalformedLine):
                parse_models([line])
        for n in ("1", "10.5", "true", "null"):
            with pytest.raises(MalformedLine, match="^line 1: missing or invalid 'n'$"):
                parse_models(['{"node":"a","k":1.5,"mape_pct":3.0,"n":%s}' % n])

    def test_nonzero_intercept_is_rejected_at_its_line(self):
        # a scale-only reading of an affine model would silently drop its baseline
        ok = '{"node":"a","k":1.5,"mape_pct":3.0,"n":10}'
        with pytest.raises(MalformedLine, match="^line 2: nonzero 'intercept_w': models are scale-only$"):
            parse_models([ok, '{"node":"b","k":1.5,"mape_pct":3.0,"n":10,"intercept_w":40}'])
        for zero in ("0", "0.0", "-0.0"):
            (m,) = parse_models(['{"node":"a","k":1.5,"mape_pct":3.0,"n":10,"intercept_w":%s}' % zero])
            assert m == CalibrationModel("a", 1.5, 3.0, 10)

    def test_energy_error_is_keyword_only(self):
        # a stale call that passes an intercept fifth must not set the energy error
        with pytest.raises(TypeError):
            CalibrationModel("a", 1.5, 3.0, 10, 1.125)

    def test_copy_and_pickle_keep_the_energy_error(self):
        import copy
        import pickle

        m = CalibrationModel("a", 1.5, 3.0, 10, energy_err_pct=1.125)
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(clone) is CalibrationModel and clone == m
