"""Self-tests of the benchmark's own parts: timer, oracle, tracer, checks.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py``, so the program's test suite does not
collect it.)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refclock  # noqa: E402
from common import instrument_parser  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from oracle import OracleDocument, check_document, program_answer, translate  # noqa: E402
from tracing import NULL, SpanSummary, Tracer, self_times  # noqa: E402

from repro.xmlmodel import parse_xml  # noqa: E402


# ----------------------------------------------------------------------
# Reference-speed timer
# ----------------------------------------------------------------------
def test_factor_scales_a_known_duration():
    # The loop ran twice as slow as the reference around the chunk, so a
    # 50 ms sleep is worth 25 reference milliseconds.
    meter = refclock.Meter(calibrate=lambda: 0.002, reference=0.001)
    _, chunk = meter.run(lambda: time.sleep(0.05))
    assert chunk.factor == pytest.approx(0.5)
    assert chunk.wall_s == pytest.approx(0.05, abs=0.02)
    assert chunk.ref_wall_s == pytest.approx(0.025, abs=0.01)


def test_factor_uses_the_runs_before_and_after_each_chunk():
    durations = iter([0.001, 0.003, 0.001])
    meter = refclock.Meter(calibrate=lambda: next(durations), reference=0.002)
    _, first = meter.run(lambda: ([], [0.010, 0.020]))
    _, second = meter.run(lambda: None)
    assert first.factor == pytest.approx(0.002 / 0.002)
    assert second.factor == pytest.approx(0.002 / 0.002)
    assert first.latencies_s == [0.010, 0.020]


def test_sequential_ops_are_sliced_between_calibrations():
    calls = []

    def calibrate():
        calls.append(1)
        return 0.004

    meter = refclock.Meter(calibrate=calibrate, reference=0.001, slice_s=0.02)
    outputs = meter.run_ops([lambda: time.sleep(0.012)] * 4 + [lambda: 1 / 0])
    assert isinstance(outputs[-1], ZeroDivisionError)
    # Two slices of two sleeps, then the failing op alone: three chunks,
    # four calibration runs (the one after a chunk serves the next).
    assert [len(c.latencies_s) for c in meter.chunks] == [2, 2, 1]
    assert len(calls) == 4
    assert all(c.factor == pytest.approx(0.25) for c in meter.chunks)
    assert sum(c.ref_wall_s for c in meter.chunks[:2]) == pytest.approx(0.012, abs=0.005)


def test_calibration_loop_measures_itself_in_reference_units():
    # A workload made of the calibration loop itself has a known duration
    # in reference units: its repeat count times the reference loop time.
    # Host noise moves single runs, so the bound is loose.
    meter = refclock.Meter()
    meter.run_ops([refclock._calibration_loop] * 200)
    total = sum(chunk.ref_wall_s for chunk in meter.chunks)
    expected = 200 * refclock.REFERENCE_SECONDS
    assert 0.6 * expected < total < 1.6 * expected


def test_percentiles_and_tail_support():
    ordered = [float(v) for v in range(1, 101)]
    assert refclock.percentile(ordered, 50.0) == pytest.approx(50.5)
    assert refclock.percentile(ordered, 99.0) == pytest.approx(99.01)
    assert not refclock.tail_supported(999, 99.0)
    assert refclock.tail_supported(1000, 99.0)


# ----------------------------------------------------------------------
# ElementTree oracle
# ----------------------------------------------------------------------
LIBRARY = (
    '<!DOCTYPE lib [<!ENTITY eacute "é">]>'
    '<lib><book id="b1"><title>Caf&eacute;</title><author>Ann</author></book>'
    '<book id="b2"><title>Tea</title><author>Bo</author><author>Cy</author></book>'
    "<shelf><book><title>Deep</title></book></shelf></lib>"
)


def test_oracle_answers_hand_checked_queries():
    oracle = OracleDocument(LIBRARY)
    assert oracle.select("//book/title") == [
        ("title", "Café"), ("title", "Tea"), ("title", "Deep"),
    ]
    assert oracle.select("/lib/book[@id='b2']/author") == [("author", "Bo"), ("author", "Cy")]
    assert oracle.select("//book[author='Ann']/title") == [("title", "Café")]
    assert oracle.select("/lib/book[2]/title") == [("title", "Tea")]
    assert oracle.attribute_values("//book", "id") == [("id", "b1"), ("id", "b2")]
    assert oracle.element_counts()["book"] == 3
    assert oracle.attribute_counts() == {"id": 2}


def test_oracle_matches_the_document_element_and_orders_nested_matches():
    oracle = OracleDocument("<a><a><t>1</t></a><t>2</t></a>")
    # ElementTree alone would list the outer <a>'s <t> first.
    assert oracle.select("//a/t") == [("t", "1"), ("t", "2")]
    assert oracle.select("//a") == [("a", "12"), ("a", "1")]
    assert translate("//x") == ".//x"
    with pytest.raises(ValueError):
        translate("x/y")


def test_oracle_agrees_with_the_program_and_catches_a_difference():
    document = parse_xml(LIBRARY)
    oracle = OracleDocument(LIBRARY)
    assert check_document(document, oracle)
    assert not check_document(parse_xml(LIBRARY.replace("Tea", "Coffee")), oracle)
    assert not check_document(parse_xml(LIBRARY.replace(' id="b2"', "")), oracle)
    import repro

    nodes = repro.XPathSession().run("//book/title", document).nodes
    assert program_answer(nodes) == oracle.select("//book/title")


# ----------------------------------------------------------------------
# Tracer and summariser
# ----------------------------------------------------------------------
def test_self_time_of_a_synthetic_span_tree():
    # request 0: parse [0, 10] with lex [1, 4] and build [5, 9] under it;
    # build has its own child [6, 7].
    spans = [
        ["xmlmodel.parse", 0.0, 10.0, None, 0],
        ["xmlmodel.lex", 1.0, 4.0, 0, 0],
        ["build", 5.0, 9.0, 0, 0],
        ["freeze", 6.0, 7.0, 2, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    summary = SpanSummary(spans, scale=0.5)
    assert summary.median_self_ms("xmlmodel.parse") == pytest.approx(1500.0)
    assert summary.median_ms("xmlmodel.lex") == pytest.approx(1500.0)


def test_per_layer_metrics_from_synthetic_records():
    spans = [
        ["xmlmodel.parse", 0.0, 2.0, None, 0],
        ["xmlmodel.lex", 0.0, 1.0, 0, 0],
        ["engines.topdown.eval", 3.0, 3.004, None, 1],
    ]
    counters = {"xmlmodel.parse_bytes": 2e6,
                "plan.hits": 3, "plan.misses": 1}
    samples = {"server.eval": [0.001, 0.003, 0.002]}
    metrics = per_layer_metrics(spans, samples, counters, scale=1.0)
    assert metrics["xmlmodel.lex_mb_s"] == pytest.approx(2.0)
    assert metrics["xmlmodel.parse_mb_s"] == pytest.approx(1.0)
    assert metrics["xmlmodel.build_self_ms"] == pytest.approx(1000.0)
    assert metrics["engines.topdown.eval_ms"] == pytest.approx(4.0)
    assert metrics["engines.topdown.requests"] == 1.0
    assert metrics["plan.cache_hit_ratio"] == pytest.approx(0.75)
    assert metrics["server.eval_ms"] == pytest.approx(2.0)
    assert metrics["mutation.edit_ms"] == 0.0


def test_tracer_nests_spans_and_restores_patches():
    tracer = Tracer()
    tracer.set_request(7)
    instrument_parser(tracer)
    with tracer.span("xmlmodel.parse"):
        parse_xml("<a><b/></a>")
    tracer.unpatch_all()
    names = [record[0] for record in tracer.spans]
    assert names == ["xmlmodel.parse", "xmlmodel.lex"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7
    from repro.xmlmodel import XMLLexer
    from repro.xmlmodel import parser as xml_parser

    assert xml_parser.XMLLexer is XMLLexer
    with NULL.span("anything") as record:
        assert record[0] is None


# ----------------------------------------------------------------------
# A wrong answer is a failed operation
# ----------------------------------------------------------------------
def _tamper_first(outputs, predicate, change):
    for position, output in enumerate(outputs):
        if predicate(output):
            outputs[position] = change(output)
            return
    raise AssertionError("nothing to tamper with")


def test_injected_wrong_answers_are_reported(tmp_path):
    from wl_edit import EditWorkload
    from wl_ingest import IngestWorkload
    from wl_query import QueryWorkload

    query = QueryWorkload(1, str(tmp_path))
    query.setup()
    outputs = query.run_round(1, refclock.Meter())
    assert query.verify(1, outputs) == (0, 0)
    _tamper_first(outputs, lambda o: isinstance(o, list) and o, lambda o: o[1:])
    assert query.verify(1, outputs) == (1, 1)

    ingest = IngestWorkload(1, str(tmp_path))
    ingest.setup()
    outputs = ingest.run_round(1, refclock.Meter())
    _tamper_first(outputs, lambda o: isinstance(o, list) and o, lambda o: o[:-1])
    assert ingest.verify(1, outputs) == (1, 1)

    edit = EditWorkload(1, str(tmp_path))
    edit.setup()
    outputs = edit.run_round(1, refclock.Meter())
    real_run = edit.session.run

    class Truncated:
        def __init__(self, result):
            self.nodes = result.nodes[:-1]

    edit.session.run = lambda *a, **k: Truncated(real_run(*a, **k))
    failed, wrong = edit.verify(1, outputs)
    assert failed == wrong == len(outputs)


def test_injected_wrong_served_value_is_reported(tmp_path):
    import json

    from wl_serve import ServeWorkload

    serve = ServeWorkload(1, str(tmp_path))
    try:
        serve.setup()
        outputs = serve.run_round(1, refclock.Meter())
        assert serve.verify(1, outputs) == (0, 0)

        def change(output):
            status, body = output
            answer = json.loads(body)
            answer["value"] = answer["value"][:-1]
            return status, json.dumps(answer).encode("utf-8")

        _tamper_first(
            outputs,
            lambda o: isinstance(o, tuple) and isinstance(json.loads(o[1]).get("value"), list)
            and json.loads(o[1])["value"],
            change,
        )
        assert serve.verify(1, outputs) == (1, 1)
    finally:
        serve.close()
