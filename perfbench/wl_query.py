"""``query``: warm library traffic through one ``XPathSession``.

The one workload where the plan layer, the session and the engines do the
work and nothing is parsed.  A round of 100 requests is

* 60 DBLP lookups on the session's default engine — what a library user
  gets — with literals drawn from a pool of 550-600 distinct queries, more
  than the 256-entry plan cache holds, so compiles and evictions continue;
  58 go to five documents of 30-90 articles, 2 to one of 400 articles;
* 15 structural DBLP queries on the default engine;
* 25 of the paper's query families (``workload_queries``) on the paper's
  document shapes, each naming one engine whose fragment contains the
  query; over three rounds every (family, shape) pair runs once and all
  nine engines are timed.

Checks, outside the timing: DBLP answers equal ElementTree's answers by
name and string value in document order; a paper-family answer equals the
answer of the same query on a different engine, computed during set-up
(all of the paper's algorithms must agree).
"""

from __future__ import annotations

import math
import os

from common import (
    Workload,
    failure_counts,
    instrument_session,
    peak_rss_mb,
    rng_for,
    tagged,
)
from oracle import OracleDocument, program_answer
from tracing import NULL

from repro import XPathSession
from repro.session import ENGINE_CLASSES
from repro.store import build_store
from repro.workloads.documents import (
    doc_deep,
    doc_dblp_source,
    doc_example_4_1,
    doc_figure8,
    doc_flat,
    doc_flat_text,
)
from repro.workloads.queries import workload_queries
from repro.xmlmodel import parse_xml
from repro.xpath.values import NodeSet

#: Article counts of the DBLP documents (about 15 nodes per article).
DBLP_SIZES = (30, 45, 60, 75, 90)
#: One larger document takes 2% of the requests: the slowest kind, so the
#: 99th percentile sits in the middle of its spread rather than on the
#: boundary between two kinds.
LARGE_ARTICLES = 400
LOOKUPS, LARGE, STRUCTURAL, PAPER = 58, 2, 15, 25

STRUCTURAL_QUERIES = (
    "//article/title",
    "/dblp/article/journal",
    "//article[@mdate]/year",
    "//article[journal]/author",
    "/dblp/article[3]/title",
)

FULL_ENGINES = ("naive", "datapool", "topdown", "mincontext", "optmincontext")
ENGINE_NAMES = tuple(ENGINE_CLASSES)


def paper_documents():
    """The paper's document shapes, small enough for the naive engine."""
    return {
        "flat": doc_flat(12),
        "flat_text": doc_flat_text(12),
        "deep": doc_deep(16),
        "figure8": doc_figure8(),
        "example_4_1": doc_example_4_1(),
    }


def eligible_engines(classification) -> list:
    """Engines whose fragment contains the query.

    ``bottomup`` is listed only for XPatterns queries: on the position and
    ``last()`` families its context-value tables take seconds even on these
    small documents, which would swamp every other request.
    """
    engines = list(FULL_ENGINES)
    if classification.in_xpatterns:
        engines.append("bottomup")
        engines.append("xpatterns")
    if classification.in_core_xpath:
        engines.append("corexpath")
    if classification.compilable:
        engines.append("compiled")
    return engines


def literal_pool(sources, rng) -> list:
    """Distinct DBLP lookups whose literals come from the corpus."""
    pool = {}
    for source in sources:
        oracle = OracleDocument(source)
        for _, value in oracle.select("//article/author"):
            pool[f"//article[author='{value}']/title"] = None
        for _, value in oracle.select("//article/title"):
            pool[f"//article[title='{value}']/author"] = None
        for _, key in oracle.attribute_values("//article", "key"):
            pool[f"//article[@key='{key}']/title"] = None
    queries = list(pool)
    rng.shuffle(queries)
    return queries


def same_value(output, expected) -> bool:
    """A request's output (materialised nodes or a scalar) against a
    reference engine's value on the same document."""
    if isinstance(expected, NodeSet):
        return isinstance(output, list) and [n.order for n in output] == [
            n.order for n in expected.in_document_order()
        ]
    if isinstance(output, float) and isinstance(expected, float):
        return output == expected or (math.isnan(output) and math.isnan(expected))
    return type(output) is type(expected) and output == expected


class QueryWorkload(Workload):
    name = "query"

    def setup(self, tracer=NULL) -> None:
        rng = rng_for(self.seed, "query")
        self.sources = [
            doc_dblp_source(size, seed=rng.randrange(1 << 30))
            for size in DBLP_SIZES + (LARGE_ARTICLES,)
        ]
        self.docs = []
        for source in self.sources:
            tracer.count("xmlmodel.parse_bytes", len(source.encode("utf-8")))
            with tracer.span("xmlmodel.parse"):
                document = parse_xml(source)
            with tracer.span("xmlmodel.index"):
                document.index
            with tracer.span("xmlmodel.columns"):
                document.index.arrays()
            self.docs.append(document)
        self.oracles = [OracleDocument(source) for source in self.sources]
        self.pool = literal_pool(self.sources[:-1], rng)
        self.session = XPathSession()

        # Paper families: (query, document, engine, reference value).
        shapes = paper_documents()
        self.paper = []
        turn = 0
        for _, query in workload_queries():
            engines = eligible_engines(self.session.compile(query).classification)
            for shape, document in shapes.items():
                engine = engines[turn % len(engines)]
                turn += 1
                reference = "optmincontext" if engine == "topdown" else "topdown"
                expected = self.session.run(query, document, engine=reference).value
                self.paper.append((query, shape, document, engine, expected))
        rng.shuffle(self.paper)
        self._expected = {}
        self.rng = rng

    def instrument(self, tracer) -> None:
        instrument_session(tracer, self.session, ENGINE_NAMES)

    def _request(self, query, document, engine, tracer):
        tracer.count("session.requests")
        with tracer.span("session.run"):
            result = self.session.run(query, document, engine=engine)
        if tracer.enabled and result.plan.classification.compilable and result.engine_name != "compiled":
            tracer.count("plan.compilable_on_tree_engine")
        if not result.is_node_set:
            return result.value
        with tracer.span("session.materialize"):
            return result.nodes

    def run_round(self, index, meter, tracer=NULL):
        rng = self.rng
        requests = []  # (kind, query, doc position or paper entry)
        small = len(DBLP_SIZES)
        for _ in range(LOOKUPS):
            requests.append(("dblp", rng.choice(self.pool), rng.randrange(small)))
        for _ in range(LARGE):
            requests.append(("dblp", rng.choice(self.pool), small))
        for _ in range(STRUCTURAL):
            requests.append(("dblp", rng.choice(STRUCTURAL_QUERIES), rng.randrange(small)))
        start = (index * PAPER) % len(self.paper)
        for k in range(PAPER):
            requests.append(("paper", None, self.paper[(start + k) % len(self.paper)]))
        rng.shuffle(requests)
        self._requests = requests

        ops = []
        for kind, query, target in requests:
            if kind == "dblp":
                ops.append(lambda q=query, d=self.docs[target]: self._request(q, d, None, tracer))
            else:
                q, _, document, engine, _ = target
                ops.append(lambda q=q, d=document, e=engine: self._request(q, d, e, tracer))
        evictions = self.session.cache.stats.evictions
        outcome = meter.run_ops(tagged(ops, index, tracer))
        tracer.count("plan.cache_evictions", self.session.cache.stats.evictions - evictions)
        return outcome

    def expected_dblp(self, query: str, position: int):
        key = (query, position)
        if key not in self._expected:
            self._expected[key] = self.oracles[position].select(query)
        return self._expected[key]

    def verify(self, index, outputs):
        results = []
        for (kind, query, target), output in zip(self._requests, outputs):
            if isinstance(output, BaseException):
                results.append(output)
            elif kind == "dblp":
                results.append(program_answer(output) == self.expected_dblp(query, target))
            else:
                results.append(same_value(output, target[4]))
        return failure_counts(results)

    def finish(self):
        # The corpus written once to a store, outside the timing, so this
        # workload reports the same storage figure as the others.
        path = os.path.join(self.workdir, "query-corpus.reproxs")
        build_store(path, self.docs)
        stored = os.path.getsize(path)
        source_bytes = sum(len(source.encode("utf-8")) for source in self.sources)
        return {"peak_rss_mb": peak_rss_mb(), "store_bytes_per_source_byte": stored / source_bytes}
