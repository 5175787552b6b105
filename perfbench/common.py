"""Shared pieces of the four workloads: the base class, seeding, memory."""

from __future__ import annotations

import random
import resource
from typing import Dict, List, Tuple

from tracing import NULL

from repro.xmlmodel import XMLLexer
from repro.xmlmodel import parser as xml_parser

#: Operations a measured run must time so that p99 has ten samples beyond it.
MIN_OPS = 1000


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose).

    String seeds hash with SHA-512 inside :mod:`random`, so the stream does
    not depend on ``PYTHONHASHSEED``.
    """
    return random.Random(f"{seed}:{purpose}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One benchmark workload.

    The runner calls :meth:`setup` several times (each one timed, every
    state but the last released with :meth:`close`), then :meth:`run_round`
    repeatedly — it times its operations through the ``meter`` it is given
    — then :meth:`verify` on each round's outputs outside the timing, and
    :meth:`finish` once at the end.  ``tracer`` is the run's tracer during
    traced rounds and :data:`tracing.NULL` otherwise.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tracer=NULL) -> None:
        raise NotImplementedError

    def run_round(self, index: int, meter, tracer=NULL) -> List[object]:
        raise NotImplementedError

    def verify(self, index: int, outputs: List[object]) -> Tuple[int, int]:
        """Return ``(failed, wrong)``: failed operations, and how many of
        them returned a wrong answer (the rest raised)."""
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Wrap the program objects this workload holds, for a traced round."""

    def finish(self) -> Dict[str, float]:
        """End-to-end figures taken once after the timed rounds."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def tagged(ops, index: int, tracer) -> list:
    """Tag the spans of each operation with a request id ``"round.op"``
    (traced rounds only)."""
    if not tracer.enabled:
        return ops

    def tag(op, request):
        def run():
            tracer.set_request(request)
            return op()

        return run

    return [tag(op, f"{index}.{k}") for k, op in enumerate(ops)]


def failure_counts(results: List[object]) -> Tuple[int, int]:
    """``results`` holds ``True`` (right), ``False`` (wrong answer) or an
    exception per operation."""
    wrong = sum(1 for result in results if result is False)
    raised = sum(1 for result in results if isinstance(result, BaseException))
    return wrong + raised, wrong


def instrument_session(tracer, session, engines) -> None:
    """Trace a session's plan-cache lookups (a hit, or a miss that
    compiles) and its pooled engines' ``evaluate`` calls."""
    fetch = session.cache.fetch

    def traced_fetch(*args, **kwargs):
        with tracer.span("plan.fetch") as span:
            plan, hit = fetch(*args, **kwargs)
            span[0] = "plan.hit" if hit else "plan.compile"
        tracer.count("plan.hits" if hit else "plan.misses")
        return plan, hit

    tracer.patch(session.cache, "fetch", traced_fetch)
    for engine in engines:
        tracer.wrap(session.engine(engine), "evaluate", f"engines.{engine}.eval")


def instrument_parser(tracer) -> None:
    """Make ``parse_xml`` lex the whole text inside an ``xmlmodel.lex`` span
    before the tree builder sees a token, so that lexing and building get
    separate self times."""

    class EagerLexer(XMLLexer):
        def tokens(self):
            with tracer.span("xmlmodel.lex"):
                tokens = list(super().tokens())
            return iter(tokens)

    tracer.patch(xml_parser, "XMLLexer", EagerLexer)
