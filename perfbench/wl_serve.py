"""``serve``: ``repro serve`` over a store, driven by one closed-loop client.

The one workload that crosses HTTP, JSON encoding, the mmap store reader,
lazy materialisation and the ``/batch`` path through the server's process
pool.  Set-up parses the DBLP corpus, writes it to a store and launches
``repro serve`` on it as a subprocess (``--max-concurrency`` = CPUs of the
host).  One client sends requests over one keep-alive connection, each
when the previous answer has arrived.  A closed loop is used because a
fixed-rate open loop cannot be normalised against host drift; one
connection because the benchmark runs client and server on one CPU (see
``run.py``), where a second connection adds only queueing.

A round of 100 requests is 98 ``/query`` requests — DBLP lookups and
structural queries over a working set of 100 distinct queries, which fits
the tenant's 256-entry plan cache — and 2 ``/batch`` requests, one query
over every stored document, at seeded positions.  Batches are the slowest
requests, so the 99th percentile sits in the middle of their spread.  The
per-request engine work matches ``query``.

Checks, outside the timing: every response is 200; every served value
equals the in-process answer of the same query on the same document; the
in-process answers equal ElementTree's.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading

from common import Workload, failure_counts, rng_for, tagged
from oracle import OracleDocument, program_answer
from tracing import NULL
from wl_query import DBLP_SIZES, STRUCTURAL_QUERIES, literal_pool

from repro import XPathSession
from repro.server.service import encode_value
from repro.store import DocumentStore, build_store
from repro.workloads.documents import doc_dblp_source
from repro.xmlmodel import parse_xml

#: The server's evaluation threads and batch workers (its
#: ``--max-concurrency``): one per CPU of the host.
CONCURRENCY = os.cpu_count() or 1
WORKING_SET = 100
QUERIES, BATCHES = 98, 2
BATCH_QUERY = "//article/author"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
LISTENING = re.compile(r"listening on http://([^:/]+):(\d+)")


def record_response(tracer, session, path, payload, meta, size, latency) -> None:
    """Per-request figures from a response's ``meta`` and the client clock
    (recorded after the round, so the client loop stays lean)."""
    total = meta["total_ms"] / 1000.0
    tracer.sample("server.response_bytes", size)
    tracer.sample("server.transport", latency - total)
    if path == "/batch":
        tracer.sample("server.batch", total)
        return
    tracer.sample("server.service", total)
    tracer.sample("server.eval", meta["elapsed_ms"] / 1000.0)
    tracer.sample(f"engines.{meta['engine']}.eval", meta["elapsed_ms"] / 1000.0)
    tracer.count("plan.hits" if meta["cache_hit"] else "plan.misses")
    tracer.count("session.requests")
    plan = session.compile(payload["query"])
    if plan.classification.compilable and meta["engine"] != "compiled":
        tracer.count("plan.compilable_on_tree_engine")


class Server:
    """A ``repro serve`` subprocess in its own process group."""

    def __init__(self, root: str, store_path: str):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src"))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", store_path,
                "--port", "0",
                "--max-concurrency", str(CONCURRENCY),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self):
        found = {}

        def read():
            for line in self.process.stdout:
                match = LISTENING.search(line)
                if match:
                    found["address"] = (match.group(1), int(match.group(2)))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        if "address" not in found:
            self.stop()
            raise RuntimeError("repro serve did not start listening")
        return found["address"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (the server drains), then make sure the whole group —
        the server and its batch workers — is gone."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()


class ServeWorkload(Workload):
    name = "serve"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server = None
        self.connection = None

    def setup(self, tracer=NULL) -> None:
        rng = rng_for(self.seed, "serve")
        self.sources = [
            doc_dblp_source(size, seed=rng.randrange(1 << 30)) for size in DBLP_SIZES
        ]
        self.docs = []
        for source in self.sources:
            tracer.count("xmlmodel.parse_bytes", len(source.encode("utf-8")))
            with tracer.span("xmlmodel.parse"):
                self.docs.append(parse_xml(source))
        self.store_path = os.path.join(self.workdir, "serve.reproxs")
        with tracer.span("store.write"):
            build_store(self.store_path, self.docs)
        tracer.count("store.bytes", os.path.getsize(self.store_path))
        tracer.count("store.nodes", sum(len(document.dom) for document in self.docs))
        if tracer.enabled:
            # The server opens and materialises in its own process; the
            # same calls are timed here for the per-layer figures.
            with tracer.span("store.open"):
                store = DocumentStore.open(self.store_path)
            for handle in store.documents:
                with tracer.span("store.materialize"):
                    handle.materialize()
            store.close()

        self.oracles = [OracleDocument(source) for source in self.sources]
        pool = literal_pool(self.sources, rng)[: WORKING_SET - len(STRUCTURAL_QUERIES)]
        self.working_set = pool + list(STRUCTURAL_QUERIES)
        self.session = XPathSession()
        self._expected = {}
        self.rng = rng

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.server = Server(root, self.store_path)
        self.connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=60
        )
        # Warm every document's lazy materialisation and the batch pool.
        for position in range(len(self.docs)):
            self._send("/query", {"query": "/dblp", "doc": position})
        self._send("/batch", {"query": "/dblp", "select": True})

    def _send(self, path: str, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def run_round(self, index, meter, tracer=NULL):
        rng = self.rng
        requests = [
            ("/query", {"query": rng.choice(self.working_set), "doc": rng.randrange(len(self.docs))})
            for _ in range(QUERIES)
        ]
        requests += [
            ("/batch", {"query": BATCH_QUERY, "select": True}) for _ in range(BATCHES)
        ]
        rng.shuffle(requests)
        self._requests = requests
        self._round_tracer = tracer
        first = len(meter.chunks)
        ops = [lambda p=path, q=payload: self._send(p, q) for path, payload in requests]
        outputs = meter.run_ops(tagged(ops, index, tracer))
        self._latencies = [value for chunk in meter.chunks[first:] for value in chunk.latencies_s]
        return outputs

    def expected(self, query: str, position: int):
        """In-process answer (encoded as the server encodes it), checked
        once against ElementTree."""
        key = (query, position)
        if key not in self._expected:
            result = self.session.run(query, self.docs[position])
            agrees = program_answer(result.nodes) == self.oracles[position].select(query)
            self._expected[key] = (encode_value(result.value), agrees)
        return self._expected[key]

    def verify(self, index, outputs):
        results = []
        for (path, payload), output, latency in zip(self._requests, outputs, self._latencies):
            if isinstance(output, BaseException):
                results.append(output)
                continue
            status, body = output
            if status != 200:
                results.append(False)
                continue
            answer = json.loads(body)
            if self._round_tracer.enabled:
                record_response(
                    self._round_tracer, self.session, path, payload, answer["meta"], len(body), latency
                )
            query = payload["query"]
            if path == "/query":
                value, agrees = self.expected(query, payload["doc"])
                results.append(agrees and answer["value"] == value)
            else:
                per_doc = [self.expected(query, position) for position in range(len(self.docs))]
                results.append(
                    len(answer["results"]) == len(per_doc)
                    and all(
                        item["ok"] and agrees and item["value"] == value
                        for item, (value, agrees) in zip(answer["results"], per_doc)
                    )
                )
        return failure_counts(results)

    def finish(self):
        source_bytes = sum(len(source.encode("utf-8")) for source in self.sources)
        return {
            "peak_rss_mb": self.server.peak_rss_mb(),
            "store_bytes_per_source_byte": os.path.getsize(self.store_path) / source_bytes,
        }

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.stop()
            self.server = None
