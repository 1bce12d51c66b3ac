"""Unit tests of the benchmark's helpers (no testbed is built).

Run with ``python3 -m pytest perfbench/tests -q`` from the root of a checkout.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "benchmarks")]

from stats import (  # noqa: E402 - the benchmark directory is not a package
    MIN_BEYOND,
    PERCENTILE_LADDER,
    Span,
    Tally,
    group_times,
    layer_table,
    nested_time,
    percentile,
    samples_beyond,
    self_times,
    summarize,
    supported_percentile,
)


# -- percentile selection ----------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [(0, None), (10, None), (1000, 99.0), (10_000, 99.9)])
def test_supported_percentile_fixed_points(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_is_the_highest_with_ten_beyond():
    for n in range(0, 2_500, 7):
        p = supported_percentile(n)
        higher = [q for q in PERCENTILE_LADDER if p is None or q > p]
        assert all(samples_beyond(n, q) < MIN_BEYOND for q in higher), n
        if p is not None:
            assert samples_beyond(n, p) >= MIN_BEYOND, n
            cut = percentile(list(range(n)), p)
            assert sum(v > cut for v in range(n)) >= MIN_BEYOND, n


def test_summarize_reports_median_tail_and_count():
    values = [float(i) for i in range(1, 1001)]
    summary = summarize(values)
    assert summary["n"] == 1000
    assert summary["p50"] == 500.5
    assert summary["tail_p"] == 99.0
    assert summary["tail"] == pytest.approx(percentile(values, 99.0))
    assert sum(v > summary["tail"] for v in values) >= MIN_BEYOND


def test_summarize_small_sample_has_no_tail():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_p": None, "tail": None}


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- self time from a synthetic span tree ------------------------------------------------
def _tree():
    # request [0, 10]
    #   search [1, 9]
    #     score [2, 4]
    #       qcost [2.5, 3.5]
    #     sort [5, 6]
    #     score [7, 8]
    #   preview [9, 9.5]
    return [
        Span(0, "request", -1, 0, 0.0, 10.0),
        Span(1, "search", 0, 0, 1.0, 9.0),
        Span(2, "score", 1, 0, 2.0, 4.0),
        Span(3, "qcost", 2, 0, 2.5, 3.5),
        Span(4, "sort", 1, 0, 5.0, 6.0),
        Span(5, "score", 1, 0, 7.0, 8.0),
        Span(6, "preview", 0, 0, 9.0, 9.5),
    ]


def test_self_time_subtracts_children():
    own = self_times(_tree())
    assert own == pytest.approx({0: 1.5, 1: 4.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 0.5})


def test_self_times_account_for_the_root():
    spans = _tree()
    assert sum(self_times(spans).values()) == pytest.approx(spans[0].duration)


def test_layer_table_accounts_for_each_request_kind():
    spans = _tree() + [Span(7, "request", -1, 1, 20.0, 24.0), Span(8, "sort", 7, 1, 21.0, 22.0)]
    rows = layer_table(spans, rounds=2)
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
    assert sum(row["self_s_per_round"] for row in rows) == pytest.approx((10.0 + 4.0) / 2)
    by_layer = {row["layer"]: row for row in rows}
    assert by_layer["unattributed"]["self_s_per_round"] == pytest.approx((1.5 + 3.0) / 2)
    assert by_layer["sort"]["calls_per_round"] == 1.0
    assert by_layer["score"]["self_s_per_round"] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "root", -1, 0, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 5.0),
        Span(2, "b", 0, 0, 4.0, 6.0),
        Span(3, "c", 0, 0, 8.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_group_times_do_not_double_count_nested_members():
    # qperf_batch calling impact_matrix: both are recorded as "qperf".
    spans = [
        Span(0, "request", -1, 0, 0.0, 10.0),
        Span(1, "qperf", 0, 0, 1.0, 5.0),
        Span(2, "qperf", 1, 0, 2.0, 4.0),
    ]
    inclusive, own = group_times(spans)
    assert inclusive["qperf"] == pytest.approx(4.0)
    assert own["qperf"] == pytest.approx(4.0)
    assert own["request"] == pytest.approx(6.0)


def test_nested_time_counts_outermost_inner_spans_under_outer():
    spans = [
        Span(0, "request", -1, 0, 0.0, 10.0),
        Span(1, "train", 0, 0, 1.0, 6.0),
        Span(2, "score", 1, 0, 2.0, 3.0),
        Span(3, "score", 2, 0, 2.2, 2.8),  # nested inside another score
        Span(4, "score", 0, 0, 7.0, 9.0),  # outside train
    ]
    assert nested_time(spans, "train", ["score"]) == pytest.approx(1.0)


# -- fail_frac accounting: failed / attempted of the result line ----------------------------
def test_tally_counts_every_operation_once():
    tally = Tally()
    assert (tally.attempted, tally.failed) == (0, 0)
    tally.ok()
    assert tally.check(True, "unused") is True
    assert tally.check(False, "front differs") is False
    tally.fail("raised")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.reasons == ["front differs", "raised"]


def test_a_raising_operation_is_one_failure_and_the_run_goes_on(tmp_path):
    from workloads import Workload

    class Flaky(Workload):
        def round(self, index):
            with self.timed("recommend"):
                if index == 1:
                    raise RuntimeError("search raised")
            self.tally.check(index != 2, "wrong front")
            if index == 3:
                raise ValueError("a check raised")

    tally = Tally()
    workload = Flaky(seed=1, tally=tally, workdir=tmp_path)
    for index in (1, 2, 3, 4):
        workload.run_round(index)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert len(workload.samples["recommend"]) == 3  # a raised operation has no time
    assert [reason.split(":")[0] for reason in tally.reasons] == [
        "recommend",
        "wrong front",
        "round 3",
    ]
