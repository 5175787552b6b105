"""A small fixed pass over every layer, for the traced run's figures.

A workload exercises only some layers; the per-layer metrics of the others
would read 0 on every run.  After its traced rounds, every traced run also
makes this census: one small document through the parser, index, column
view, streaming evaluator, store writer, reader and materialiser; one
query per engine; a few edits with a snapshot; and a few requests to a
``repro serve`` on the census store.  Its spans go to a tracer of their
own, and only fill the metrics that the workload's own spans left at 0.
"""

from __future__ import annotations

import http.client
import json
import os
import time

from common import instrument_parser, instrument_session, rng_for
from wl_serve import Server, record_response

from repro import XPathSession
from repro.session import ENGINE_CLASSES
from repro.store import DocumentStore, build_store
from repro.workloads.documents import doc_dblp_source, doc_flat
from repro.workloads.edits import apply_script, random_edit_script
from repro.xmlmodel import parse_xml

ARTICLES = 20
EDITS = 6
ENGINE_QUERY = "//a/b"  # Core XPath: inside every engine's fragment
SERVED = (("/query", {"query": "//article/title", "doc": 0}),
          ("/query", {"query": "/dblp/article[2]/author", "doc": 0}),
          ("/batch", {"query": "//article/author", "select": True}))


def run_census(tracer, seed: int, workdir: str, root: str) -> None:
    rng = rng_for(seed, "census")
    source = doc_dblp_source(ARTICLES, seed=rng.randrange(1 << 30))
    size = len(source.encode("utf-8"))
    session = XPathSession()
    instrument_parser(tracer)
    instrument_session(tracer, session, tuple(ENGINE_CLASSES))
    try:
        tracer.count("xmlmodel.parse_bytes", size)
        with tracer.span("xmlmodel.parse"):
            document = parse_xml(source)
        with tracer.span("xmlmodel.index"):
            document.index
        with tracer.span("xmlmodel.columns"):
            document.index.arrays()

        tracer.count("streaming.bytes", size)
        with tracer.span("streaming.scan"):
            list(session.stream("//article/@key", source, require=True))

        path = os.path.join(workdir, "census.reproxs")
        with tracer.span("store.write"):
            build_store(path, [document])
        tracer.count("store.bytes", os.path.getsize(path))
        tracer.count("store.nodes", len(document.dom))
        with tracer.span("store.open"):
            store = DocumentStore.open(path)
        with tracer.span("store.materialize"):
            store.document_at(0).materialize()
        store.close()

        shape = doc_flat(12)
        for engine in ENGINE_CLASSES:
            tracer.count("session.requests")
            with tracer.span("session.run"):
                result = session.run(ENGINE_QUERY, shape, engine=engine)
            if result.plan.classification.compilable and result.engine_name != "compiled":
                tracer.count("plan.compilable_on_tree_engine")
            with tracer.span("session.materialize"):
                result.nodes

        script = random_edit_script(parse_xml(source), EDITS, seed=rng.randrange(1 << 30))
        edited = parse_xml(source)
        stats = edited.mutation_stats
        before = (stats.repairs, stats.rebuilds, stats.cow_copies)
        with tracer.span("mutation.snapshot"):
            pinned = edited.snapshot()
        for op in script:
            with tracer.span("mutation.edit"):
                apply_script(edited, [op])
            with tracer.span("mutation.requery"):
                session.run("//article/title", edited, engine="compiled").nodes
        del pinned
        tracer.count("mutation.repairs", stats.repairs - before[0])
        tracer.count("mutation.rebuilds", stats.rebuilds - before[1])
        tracer.count("mutation.cow_copies", stats.cow_copies - before[2])
    finally:
        tracer.unpatch_all()

    server = Server(root, path)
    try:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            for endpoint, payload in SERVED:
                body = json.dumps(payload).encode("utf-8")
                started = time.perf_counter()
                connection.request("POST", endpoint, body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                answer = response.read()
                latency = time.perf_counter() - started
                if response.status == 200:
                    meta = json.loads(answer)["meta"]
                    record_response(tracer, session, endpoint, payload, meta, len(answer), latency)
        finally:
            connection.close()
    finally:
        server.stop()
