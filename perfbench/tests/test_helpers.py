"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import spans as sp  # noqa: E402
from stats import (array_digest, backlog_growing, ladder_max_rate,  # noqa
                   percentile, rung_passes, self_times, table_digest, tail,
                   tail_quantile)


# -- tail percentile --------------------------------------------------------

def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(100) == 0.90
    assert tail_quantile(199) == 0.90
    assert tail_quantile(200) == 0.95
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(20) == 0.50
    assert tail_quantile(19) is None


@pytest.mark.parametrize("n", [20, 57, 100, 200, 999, 10_000])
def test_tail_leaves_at_least_ten_larger_samples(n):
    values = list(range(n))
    value = tail(values)
    assert sum(v > value for v in values) >= 10


def test_fixed_tail_refuses_too_few_samples():
    assert tail(range(100), q=0.90) == 89
    with pytest.raises(ValueError):
        tail(range(99), q=0.90)


def test_tail_of_a_handful_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == 3.0


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert percentile([1, 2, 3, 4], 0.75) == 3
    assert percentile([1, 2, 3, 4], 1.0) == 4


# -- span self time -----------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [(0.0, 10.0, None),       # parent
             (1.0, 3.0, 0),           # overlapping children: union 1..5
             (2.0, 5.0, 0),
             (2.5, 2.7, 1),           # grandchild: only its parent pays
             (9.0, 12.0, 0)]          # clipped to the parent's end
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.2)
    assert own[3] == pytest.approx(0.2)


def test_tracer_records_parents_request_ids_and_self_time():
    tracer = sp.Tracer(enabled=True)

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "inner", "inner")  # idempotent
    tracer.set_request_id("req-7")
    assert Layer().outer() == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert all(s[4] == "req-7" for s in tracer.spans)
    assert sp.self_time(tracer.spans, "outer") <= sp.busy(tracer.spans,
                                                          "outer")
    tracer.enabled = False
    Layer().outer()
    assert len(tracer.spans) == 2


def test_busy_counts_nested_same_name_spans_once_and_extend_rebases():
    batch = [["fit", 0.0, 4.0, None, "A"],
             ["fit", 1.0, 2.0, 0, "B"],
             ["step", 1.5, 1.6, 1, None]]
    spans = []
    sp.extend(spans, batch)
    sp.extend(spans, batch)
    assert spans[4][3] == 3 and spans[5][3] == 4
    assert sp.busy(spans, "fit") == pytest.approx(8.0)
    # B runs inside A's fit, so its time belongs to A's
    assert sp.busy(spans, "fit", lambda t: t == "B") == 0.0
    assert sp.busy(spans, "fit", lambda t: t == "A") == pytest.approx(8.0)
    assert sp.busy(spans, "step", under="fit") == pytest.approx(0.2)
    assert sp.count(spans, "fit") == 4


# -- rate ladder and backlog --------------------------------------------------

def test_backlog_growing_detects_a_falling_behind_sender():
    assert backlog_growing([0.001 * i for i in range(100)], slack_s=0.05)
    assert not backlog_growing([0.002, 0.001] * 50, slack_s=0.05)
    assert not backlog_growing([5.0] * 100, slack_s=0.05)  # late but steady


def test_rung_passes_needs_every_class_within_its_limit():
    fast = [0.01] * 100
    limits = {"small": 0.1, "large": 0.1}
    assert rung_passes({"small": fast, "large": fast}, [0.0] * 200,
                       limits, slack_s=0.05)
    assert not rung_passes({"small": fast, "large": [0.5] * 100},
                           [0.0] * 200, limits, slack_s=0.05)
    assert rung_passes({"small": fast, "large": [0.5] * 100},
                       [0.0] * 200, {"small": 0.1, "large": 1.0},
                       slack_s=0.05)
    assert not rung_passes({"small": fast + [None]}, [0.0] * 101,
                           limits, slack_s=0.05)
    assert not rung_passes({"small": fast},
                           [0.01 * i for i in range(100)],
                           limits, slack_s=0.05)


def test_ladder_stops_at_the_first_failed_rung():
    rungs = [{"rate": 10, "passed": True}, {"rate": 20, "passed": True},
             {"rate": 40, "passed": False}, {"rate": 80, "passed": True}]
    assert ladder_max_rate(rungs)["rate"] == 20
    assert ladder_max_rate([{"rate": 10, "passed": False}]) is None


# -- digests ------------------------------------------------------------------

def test_array_digest_sees_one_ulp_and_dtype():
    a = np.linspace(0, 1, 50, dtype=np.float32)
    b = a.copy()
    b[7] = np.nextafter(b[7], np.float32(2))
    assert array_digest([a]) == array_digest([a.copy()])
    assert array_digest([a]) != array_digest([b])
    assert array_digest([a]) != array_digest([a.astype(np.float64)])


def test_table_digest_ignores_row_order_but_not_digits():
    rows = [{"detector": "LOF", "auc": 0.5}, {"detector": "KNN", "auc": 0.7}]
    assert table_digest(rows) == table_digest(rows[::-1])
    changed = [dict(rows[0]), rows[1]]
    changed[0]["auc"] = np.nextafter(0.5, 1.0)
    assert table_digest(rows) != table_digest(changed)


def test_expected_digests_cover_every_detector():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from repro.detectors.registry import ALL_DETECTOR_NAMES

    expected = json.loads((HERE.parent / "expected.json").read_text())
    assert set(expected["detector_bank"]) == set(ALL_DETECTOR_NAMES)
    assert expected["boost_fit_canonical"]
    assert expected["sweep_grid_serial"]

