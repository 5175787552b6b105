"""``ingest``: XML text in, a verified store out, nothing cached.

The one workload where the XML substrate (lexer, tree builder, index,
column view) and the store writer do nearly all the work and the engines
do none.  Each operation takes one source document and either

* parses it, builds its index and column view, writes it into a new store
  file, opens that store and runs its full checksum audit; or
* (a fixed share of each size class, chosen by the seed) answers one
  streamable query over the text with the streaming evaluator, which runs
  the same lexer but builds no tree.

Checks, outside the timing: every stored document is materialised back
from its store and compared with ElementTree's parse of the same text (per
label element and attribute counts, and the document element's string
value); every streamed answer is compared with ElementTree's answer.
"""

from __future__ import annotations

import os

from common import Workload, failure_counts, peak_rss_mb, rng_for, tagged
from oracle import OracleDocument, check_document
from tracing import NULL

from repro import XPathSession
from repro.store import DocumentStore, build_store
from repro.workloads.documents import (
    doc_deep_source,
    doc_dblp_source,
    doc_flat_text_source,
)
from repro.xmlmodel import parse_xml

#: One round of 50 documents: (shape, size, count, streamed count).  DBLP
#: sizes are article counts (about 15 nodes each).  The 14-article class
#: holds the median; the single 80-article document (2% of operations)
#: holds the 99th percentile at the middle of its own spread, so neither
#: percentile sits on the boundary between two kinds of operation.
ROUND = (
    ("dblp", 4, 8, 2),
    ("dblp", 8, 8, 2),
    ("dblp", 14, 18, 4),
    ("dblp", 28, 9, 2),
    ("dblp", 80, 1, 0),
    ("deep", 120, 3, 1),
    ("flat", 200, 3, 1),
)

#: Streamable queries per shape, and how the oracle answers them:
#: ("attribute", element path, attribute name) or ("element", path).
STREAM_QUERIES = {
    "dblp": ("//article/@key", ("attribute", "//article", "key")),
    "deep": ("//b", ("element", "//b")),
    "flat": ("/a/b", ("element", "/a/b")),
}


class IngestWorkload(Workload):
    name = "ingest"

    def setup(self, tracer=NULL) -> None:
        rng = rng_for(self.seed, "ingest")
        self.session = XPathSession()
        self.docs = []  # (shape, source, utf-8 bytes, streamed)
        for shape, size, count, streamed in ROUND:
            chosen = set(rng.sample(range(count), streamed))
            for k in range(count):
                if shape == "dblp":
                    source = doc_dblp_source(size, seed=rng.randrange(1 << 30))
                elif shape == "deep":
                    source = doc_deep_source(size + rng.randrange(20))
                else:
                    source = doc_flat_text_source(size + rng.randrange(40), text="c%d" % k)
                self.docs.append((shape, source, len(source.encode("utf-8")), k in chosen))
        rng.shuffle(self.docs)
        self.oracles = [OracleDocument(source) for _, source, _, _ in self.docs]
        self.stores = []

    def _ingest(self, position: int, source: str, size: int, tracer):
        tracer.count("xmlmodel.parse_bytes", size)
        with tracer.span("xmlmodel.parse"):
            document = parse_xml(source)
        with tracer.span("xmlmodel.index"):
            document.index
        with tracer.span("xmlmodel.columns"):
            document.index.arrays()
        path = os.path.join(self.workdir, f"ingest-{position}.reproxs")
        with tracer.span("store.write"):
            build_store(path, [document])
        with tracer.span("store.open"):
            store = DocumentStore.open(path)
        with tracer.span("store.verify"):
            store.verify()
        self.stores.append(store)
        tracer.count("store.bytes", os.path.getsize(path))
        tracer.count("store.nodes", len(document.dom))
        return store

    def _stream(self, shape: str, source: str, size: int, tracer):
        tracer.count("streaming.bytes", size)
        with tracer.span("streaming.scan"):
            run = self.session.stream(STREAM_QUERIES[shape][0], source, require=True)
        return [(match.name, match.value) for match in run]

    def run_round(self, index, meter, tracer=NULL):
        self._close_stores()
        ops = []
        for position, (shape, source, size, streamed) in enumerate(self.docs):
            if streamed:
                ops.append(lambda s=shape, t=source, n=size: self._stream(s, t, n, tracer))
            else:
                ops.append(lambda p=position, t=source, n=size: self._ingest(p, t, n, tracer))
        return meter.run_ops(tagged(ops, index, tracer))

    def verify(self, index, outputs):
        results = []
        for (shape, _, _, streamed), oracle, output in zip(self.docs, self.oracles, outputs):
            if isinstance(output, BaseException):
                results.append(output)
            elif streamed:
                results.append(output == _streamed_expectation(shape, oracle))
            else:
                results.append(_stored_matches(output, oracle))
        self._close_stores()
        return failure_counts(results)

    def finish(self):
        stored = written = 0
        for position, (_, source, size, streamed) in enumerate(self.docs):
            if not streamed:
                written += size
                stored += os.path.getsize(
                    os.path.join(self.workdir, f"ingest-{position}.reproxs")
                )
        return {"peak_rss_mb": peak_rss_mb(), "store_bytes_per_source_byte": stored / written}

    def _close_stores(self) -> None:
        for store in self.stores:
            store.close()
        self.stores = []

    def close(self) -> None:
        self._close_stores()


def _streamed_expectation(shape: str, oracle: OracleDocument):
    how = STREAM_QUERIES[shape][1]
    if how[0] == "attribute":
        return oracle.attribute_values(how[1], how[2])
    # Streamed element matches carry no string value (a single forward
    # pass does not keep the subtree), so elements compare by name.
    return [(name, None) for name, _ in oracle.select(how[1])]


def _stored_matches(store, oracle: OracleDocument) -> bool:
    return check_document(store.document_at(0).materialize(), oracle)
