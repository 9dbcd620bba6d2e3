"""Loop reduction on walks: one-step reducts, normalization.

The reduction relation has three rules:

* ``xi1`` collapses a nontrivial loop to the trivial walk at its endpoint.
* ``xi2`` reduces under a preserved leading edge: when the whole walk is
  not a loop and the leading edge has distinct endpoints, any reduct of the
  rest lifts to a reduct of the whole.
* ``xi3`` deletes a leading loop standing before a nontrivial tail, again
  provided the whole walk is not a loop.

Every step strictly shortens the walk, so normalization terminates; normal
forms are the quasi-simple walks admitting no step. The case analysis of
the three rules exists once, in the iterative reduct generator
``_reductions``: ``applicable_reductions`` lists its reducts, ``progress``
and ``normalize`` take the first, and ``verify_step`` tests membership.
Normal forms are not unique, so ``normalize`` fixes a deterministic
strategy (documented on the function) and records a replayable trace.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .walk import Walk, is_quasi_simple

XI1 = "xi1"
XI2 = "xi2"
XI3 = "xi3"


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One application of a reduction rule.

    ``site`` disambiguates where the rule fired: for ``xi2`` it is the
    number of preserved leading edges, for ``xi3`` the length of the removed
    leading loop, and 0 for ``xi1``.
    """

    rule: str
    site: int
    before: Walk
    after: Walk

    @property
    def depth(self) -> int:
        """Number of leading edges the step preserves; the deleted loop starts there."""
        return self.site if self.rule == XI2 else 0


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """A chained sequence of reduction steps starting from ``origin``."""

    origin: Walk
    steps: tuple[ReductionStep, ...]

    def replay(self) -> Walk:
        """Re-walk the chain, checking each link, and return the final walk."""
        at = self.origin
        for i, s in enumerate(self.steps):
            if s.before.key() != at.key():
                raise ValueError(f"trace breaks at step {i}: expected {at}, got {s.before}")
            verify_step(s)
            at = s.after
        return at


def _reductions(w: Walk, depth: int = 0) -> Iterator[ReductionStep]:
    """The one-step reducts of ``w`` with at least ``depth`` preserved edges.

    Loops over the number ``k`` of preserved leading edges, starting at
    ``depth``, and calls the rest after them the inner walk. A nontrivial
    inner loop collapses and nothing deeper applies. Otherwise each return
    to the inner start deletes a leading loop, shortest first, and the
    search goes one edge deeper only when the inner leading edge has
    distinct endpoints. A reduct at ``k >= 1`` is the ``xi2`` lift of the
    inner step. Reducts come in derivation order, so depth never decreases.
    """
    g, steps, n = w.graph, w.steps, w.length
    nodes = w.nodes()
    last = {x: i for i, x in enumerate(nodes)}

    def reduct(rule: str, site: int, k: int, e: int) -> ReductionStep:
        after = Walk(g, w.start, steps[:k] + steps[e:], w.symmetric)
        return ReductionStep(XI2, k, w, after) if k else ReductionStep(rule, site, w, after)

    for k in range(depth, n):
        x = nodes[k]
        if x == w.end:
            yield reduct(XI1, 0, k, n)
            return
        e = k
        while e < last[x]:
            e = nodes.index(x, e + 1)
            yield reduct(XI3, e - k, k, e)
        if nodes[k + 1] == x:
            return


def applicable_reductions(w: Walk) -> list[ReductionStep]:
    """All one-step reducts of ``w``, one entry per derivation.

    A nontrivial loop contributes its collapse; a non-loop walk contributes
    one deletion per leading-loop decomposition with a nontrivial tail, and
    every reduct of its rest lifted under the leading edge when that edge
    has distinct endpoints.
    """
    return list(_reductions(w))


def verify_step(step: ReductionStep) -> None:
    """Check that ``step`` is a one-step reduct of its walk; raises ValueError if not.

    The step must equal a reduct derived at its own depth. The derivation
    starts at depth 0, so the lift conditions of every shallower depth hold.
    """
    for r in _reductions(step.before):
        if r.depth > step.depth:
            break
        if r == step:
            return
    raise ValueError(f"{step.rule} at site {step.site} is not a one-step reduct of its walk")


def is_normal(w: Walk) -> bool:
    """Whether ``w`` is quasi-simple and admits no reduction step."""
    return is_quasi_simple(w) and progress(w) is None


def normalize(w: Walk) -> tuple[Walk, ReductionTrace]:
    """Reduce ``w`` to a normal form, returning it with a replayable trace.

    Deterministic strategy: every step takes the first reduct, the one with
    the fewest preserved leading edges and then the shortest leading loop.
    A step keeps the endpoints and the preserved edges and only drops later
    positions, so no reduct appears at a smaller depth and the next search
    resumes at the step's depth. Iterative, so walks of any length normalize.
    """
    trace: list[ReductionStep] = []
    at, depth = w, 0
    while (step := next(_reductions(at, depth), None)) is not None:
        trace.append(step)
        at, depth = step.after, step.depth
    return at, ReductionTrace(w, tuple(trace))


def progress(w: Walk) -> ReductionStep | None:
    """The first step of the deterministic strategy, or None when ``w`` is normal."""
    return next(_reductions(w), None)
