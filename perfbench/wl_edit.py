"""``edit``: writes beside reads on mutable documents.

Four seeded edit scripts (``random_edit_script``, each generated during
set-up on a copy of its own 100-article DBLP document) are replayed in
turn with ``apply_script``, one edit per operation.  Each operation applies
its edit, brings the index and its column view up to the new generation (a
local repair, or the amortised epoch rebuild when enough repair work has
piled up), and re-queries the document with the compiled engine, which
reads those columns.  Before every 50th edit a ``snapshot()`` is pinned,
so that edit pays a copy-on-write; these 2% of operations are the slowest
kind, so the 99th percentile sits in the middle of their spread.

A round is 100 edits of one script.  After each round, outside the timing,
the edited document's answers to six ElementTree-expressible queries must
equal ElementTree's answers on its serialisation and the program's own
answers on a fresh ``parse_xml`` of that serialisation; if not, every edit
of the round counts as failed.  When a script is used up, its next round
starts again from a fresh parse of its source.
"""

from __future__ import annotations

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
from repro.store import build_store
from repro.workloads.documents import doc_dblp_source
from repro.workloads.edits import apply_script, random_edit_script
from repro.xmlmodel import parse_xml, serialize

ARTICLES = 100
#: Independent (document, script) replays, visited in turn: a document's
#: size drifts with its script, and several scripts average that out.
REPLAYS = 4
SCRIPT_EDITS = 200
ROUND_EDITS = 100
SNAPSHOT_EVERY = 50

#: Re-queries after each edit (all in the compiled engine's fragment) and
#: the checks at the end of each round (all inside ElementTree's subset).
REQUERIES = ("//article/title", "//a", "//*[@id]", "//b/c", "//article[author]/year", "//c[@x]")
CHECKS = REQUERIES


class Replay:
    """One source document, its edit script, and the live edited copy."""

    def __init__(self, source: str, script: list, tracer=NULL):
        self.source = source
        self.script = script
        self.restart(tracer)

    def restart(self, tracer=NULL) -> None:
        tracer.count("xmlmodel.parse_bytes", len(self.source.encode("utf-8")))
        with tracer.span("xmlmodel.parse"):
            self.document = parse_xml(self.source)
        self.position = 0
        self.pinned = None


class EditWorkload(Workload):
    name = "edit"

    def setup(self, tracer=NULL) -> None:
        rng = rng_for(self.seed, "edit")
        self.replays = []
        for _ in range(REPLAYS):
            source = doc_dblp_source(ARTICLES, seed=rng.randrange(1 << 30))
            script = random_edit_script(parse_xml(source), SCRIPT_EDITS, seed=rng.randrange(1 << 30))
            self.replays.append(Replay(source, script, tracer))
        self.session = XPathSession()
        self.replay = self.replays[0]

    def instrument(self, tracer) -> None:
        instrument_session(tracer, self.session, ("compiled",))

    def _edit(self, op, query: str, snapshot: bool, tracer):
        replay = self.replay
        document = replay.document
        if snapshot:
            with tracer.span("mutation.snapshot"):
                replay.pinned = document.snapshot()
        with tracer.span("mutation.edit"):
            apply_script(document, [op])
        with tracer.span("xmlmodel.index"):
            document.index
        with tracer.span("xmlmodel.columns"):
            document.index.arrays()
        tracer.count("session.requests")
        with tracer.span("mutation.requery"):
            with tracer.span("session.run"):
                result = self.session.run(query, document, engine="compiled")
            with tracer.span("session.materialize"):
                return result.nodes

    def run_round(self, index, meter, tracer=NULL):
        replay = self.replay = self.replays[index % REPLAYS]
        ops = []
        for k in range(ROUND_EDITS):
            step = replay.position + k
            ops.append(
                lambda op=replay.script[step], q=REQUERIES[step % len(REQUERIES)],
                snap=step % SNAPSHOT_EVERY == 0: self._edit(op, q, snap, tracer)
            )
        stats = replay.document.mutation_stats
        before = (stats.repairs, stats.rebuilds, stats.cow_copies)
        outcome = meter.run_ops(tagged(ops, index, tracer))
        tracer.count("mutation.repairs", stats.repairs - before[0])
        tracer.count("mutation.rebuilds", stats.rebuilds - before[1])
        tracer.count("mutation.cow_copies", stats.cow_copies - before[2])
        replay.position += ROUND_EDITS
        return outcome

    def check(self, document) -> bool:
        """The edited document agrees with ElementTree on its serialisation
        and with a fresh parse of that serialisation."""
        text = serialize(document)
        oracle = OracleDocument(text)
        reparsed = parse_xml(text)
        for query in CHECKS:
            expected = oracle.select(query)
            for target, engine in ((document, "compiled"), (document, None), (reparsed, None)):
                if program_answer(self.session.run(query, target, engine=engine).nodes) != expected:
                    return False
        return True

    def verify(self, index, outputs):
        replay = self.replay
        ok = self.check(replay.document)
        results = [output if isinstance(output, BaseException) else ok for output in outputs]
        if replay.position + ROUND_EDITS > len(replay.script):
            replay.restart()
        return failure_counts(results)

    def finish(self):
        # Each document persisted after every round of one replay of its
        # script, outside the timing: a figure fixed by the seed alone.
        path = os.path.join(self.workdir, "edited.reproxs")
        stored = written = 0
        for replay in self.replays:
            document = parse_xml(replay.source)
            for start in range(0, len(replay.script) + 1, ROUND_EDITS):
                apply_script(document, replay.script[max(0, start - ROUND_EDITS) : start])
                build_store(path, [document])
                stored += os.path.getsize(path)
                written += len(serialize(document).encode("utf-8"))
        return {"peak_rss_mb": peak_rss_mb(), "store_bytes_per_source_byte": stored / written}
