"""Tests of the benchmark's own parts: generator, self-time arithmetic, checker."""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ffcount.cli import _build_parser, main  # noqa: E402


def test_generator_repeats_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 11)
        assert first == workloads.generate(name, 11)
        assert [c.argv for c in first] != [c.argv for c in workloads.generate(name, 12)]
        assert len({c.cid for c in first}) == len(first)


def test_generated_argv_parse():
    parser = _build_parser()
    for name in workloads.WORKLOADS:
        for c in workloads.generate(name, 3):
            parser.parse_args(list(c.argv))


def test_self_times_of_a_span_tree():
    spans = [
        {"id": 0, "name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 5.0, "end": 9.0, "parent": 0},
        {"id": 3, "name": "b", "start": 6.0, "end": 8.0, "parent": 2},
    ]
    got = layers.self_times(spans)
    assert got == {"cli.main": 3.0, "b": 5.0, "c": 2.0}


def test_layer_metrics_reads_spans_and_counters():
    records = [
        {"cmd": "x", "id": 0, "name": "apinterval.ap_series", "start": 0.0, "end": 2.0,
         "parent": None},
        {"cmd": "x", "id": 1, "name": "characters.unit_group", "start": 0.5, "end": 1.0,
         "parent": 0},
        {"cmd": "x", "counters": {"apinterval.ap_series.classes_built": 8,
                                  "apinterval.GroupSeries.count.calls": 2}},
    ]
    m = layers.layer_metrics(records, report_bytes=100)
    assert m["apinterval.ap_series.self_s"] == 1.5
    assert m["characters.unit_group.calls"] == 1
    assert m["apinterval.useful_ratio"] == 0.25
    assert m["cli.report_bytes"] == 100
    assert m["algebra.enumerate_irreducibles.calls"] == 0


def _report(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_checker_accepts_right_and_catches_wrong_counts():
    count = workloads.Command("t-00", ("count", "--q", "2", "--n", "1:6"))
    ap = workloads.Command("t-01", ("ap", "--q", "3", "--d", "1,1", "--g", "1",
                                    "--n", "4", "--k", "2"))
    good = check.Checker()
    good.check(count, _report(count.argv))
    good.check(ap, _report(ap.argv))
    assert good.problems == [] and not good.disagreeing

    rep = json.loads(_report(count.argv))
    rep["rows"][5]["count"] = str(int(rep["rows"][5]["count"]) + 1)
    bad = check.Checker()
    bad.check(count, json.dumps(rep))
    assert [cid for cid, _ in bad.problems] == ["t-00"] * len(bad.problems) != []

    rep = json.loads(_report(ap.argv))
    rep["exact"] = rep["char_path"] = str(int(rep["exact"]) + 1)
    bad = check.Checker()
    bad.check(ap, json.dumps(rep))
    assert [cid for cid, _ in bad.problems] == ["t-01"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
