"""Walk homotopy on an embedded graph: certificates, search, sphericity.

Two walks with the same endpoints are homotopic when one deforms into the
other across faces: the generating move exchanges the two boundary walks
between a pair of positions on one face (with equal positions, the full
boundary loop exchanges with the trivial walk). Certificates are explicit
move sequences and every operation here keeps them replayable: reflexivity
is the empty certificate, symmetry reverses and flips a move list,
transitivity concatenates, and whiskering shifts move offsets.

The relation itself is only searched, never decided. ``_Certifier`` holds
one map's move table, and its ``prove`` is the one pair search, a BFS from
both walks over dart strings (one character per dart) that keeps only each
state's parent and re-derives the moves on the path found. The halves meet
at one walk and are joined by symmetry and transitivity
(``reverse_certificate``, ``concat_certificates``). It returns that
certificate or raises ``_Blocked`` with the pair and whether the bounded
closure was exhausted, which is kept apart from a disproof. The quasi and
bounded checkers run one decision loop and differ only in the walks they
enumerate and whether each is first replaced by its certified normal form.
The negative signal is the Euler characteristic, read only in
``check_spherical_euler``: 2 exactly on connected spheres.

A walk is certified homotopic to its normal form by one pass of
chronological loop erasure over its darts. The path it keeps is the normal
form that ``rewrite.normalize`` reaches, and each simple cycle is collapsed
as it closes, one search per distinct cycle. ``Inconclusive`` names the
first cycle, in erasure order, that cannot be collapsed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Optional

from . import rewrite
from .embedding import RotationMap, _boundary_segments, euler_characteristic
from .enumeration import enumerate_all_qswalks, iter_walks_up_to
from .graph import Dart, is_connected
from .walk import Walk, compose, trivial

CCW_TO_CW = "ccw_to_cw"
CW_TO_CCW = "cw_to_ccw"

_end = attrgetter("end")

SPHERICAL = "spherical"
NOT_SPHERICAL = "not_spherical"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Limits for certificate search: walk length cap and visited-state cap."""

    max_len: int
    max_states: int = 200_000

    def __post_init__(self) -> None:
        if self.max_len < 0 or self.max_states < 0:
            raise ValueError(f"search budget must be non-negative, got {self}")


def default_budget(m: RotationMap) -> SearchBudget:
    """Twice the node count plus the longest face boundary; 200k states."""
    longest = max((len(f) for f in m.faces), default=0)
    return SearchBudget(2 * m.graph.node_count + longest)


@dataclass(frozen=True, slots=True)
class HomotopyMove:
    """One boundary-walk exchange applied at a fixed offset.

    The segment between boundary positions ``a`` and ``b`` of ``face``,
    read in the source direction, is replaced in place by the
    opposite-direction segment; ``prefix_len`` is the number of walk steps
    preserved before the exchanged segment.
    """

    face: int
    a: int
    b: int
    prefix_len: int
    direction: str  # CCW_TO_CW | CW_TO_CCW

    def inverted(self) -> HomotopyMove:
        other = CW_TO_CCW if self.direction == CCW_TO_CW else CCW_TO_CW
        return HomotopyMove(self.face, self.a, self.b, self.prefix_len, other)


@dataclass(frozen=True, slots=True)
class HomotopyCertificate:
    """A replayable move sequence deforming ``source`` into ``target``."""

    source: Walk
    target: Walk
    moves: tuple[HomotopyMove, ...]


class SegmentMismatchError(ValueError):
    """A move's source segment is absent at the stated offset."""

    def __init__(self, offset: int, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = None if found is None else tuple(found)
        exp = ",".join(str(d) for d in self.expected) or "(empty)"
        got = "out of range" if found is None else (",".join(str(d) for d in self.found) or "(empty)")
        super().__init__(f"segment mismatch at offset {offset}: expected {exp}, found {got}")


def apply_hcollapse(m: RotationMap, w: Walk, move: HomotopyMove) -> Walk:
    """Apply one move to ``w``; endpoints are preserved.

    Requires the move's source-direction segment to sit at ``prefix_len``;
    otherwise a SegmentMismatchError reports expected versus found darts.
    """
    _check_walk(m, w)
    if move.direction not in (CCW_TO_CW, CW_TO_CCW):
        raise ValueError(f"unknown move direction {move.direction!r}")
    cw, ccw = _boundary_segments(m, move.face, move.a, move.b)
    src, dst = (ccw, cw) if move.direction == CCW_TO_CW else (cw, ccw)
    i = move.prefix_len
    if i < 0 or i + len(src) > w.length:
        raise SegmentMismatchError(i, src, None)
    found = w.steps[i : i + len(src)]
    if found != src or w.node_at(i) != m.graph.tail(cw[0]):  # cw starts at the anchor
        raise SegmentMismatchError(i, src, found)
    return Walk(m.graph, w.start, w.steps[:i] + dst + w.steps[i + len(src) :], symmetric=True)


def replay_certificate(m: RotationMap, cert: HomotopyCertificate) -> Walk:
    """Apply every move from the source; checks the result equals the target."""
    _check_pair(m, cert.source, cert.target)
    at = cert.source
    for mv in cert.moves:
        at = apply_hcollapse(m, at, mv)
    if at.key() != cert.target.key():
        raise ValueError(f"certificate replays to {at}, not its target {cert.target}")
    return at


def reverse_certificate(cert: HomotopyCertificate) -> HomotopyCertificate:
    """Certificate for target ~ source: reversed move list with flipped directions."""
    return HomotopyCertificate(
        cert.target, cert.source, tuple(mv.inverted() for mv in reversed(cert.moves))
    )


def concat_certificates(c1: HomotopyCertificate, c2: HomotopyCertificate) -> HomotopyCertificate:
    """Certificate for transitivity; the first target must equal the second source."""
    if c1.target.key() != c2.source.key():
        raise ValueError("certificates do not chain: target differs from next source")
    return HomotopyCertificate(c1.source, c2.target, c1.moves + c2.moves)


def whisker(
    left: Optional[Walk], cert: HomotopyCertificate, right: Optional[Walk]
) -> HomotopyCertificate:
    """Certificate for left . source . right ~ left . target . right.

    Move offsets shift by the left walk's length; a missing side composes
    with nothing. Raises ValueError when the walks do not line up.
    """
    if left is not None and left.end != cert.source.start:
        raise ValueError("left whisker walk does not end at the certificate's start")
    if right is not None and right.start != cert.source.end:
        raise ValueError("right whisker walk does not start at the certificate's end")
    shift = left.length if left is not None else 0

    def extend(w: Walk) -> Walk:
        if left is not None:
            w = compose(left, w)
        if right is not None:
            w = compose(w, right)
        return w

    return HomotopyCertificate(extend(cert.source), extend(cert.target), _shifted(cert.moves, shift))


def _shifted(moves: tuple[HomotopyMove, ...], k: int) -> tuple[HomotopyMove, ...]:
    """The same moves applied ``k`` steps further into the walk."""
    if not k:
        return moves
    return tuple(HomotopyMove(mv.face, mv.a, mv.b, mv.prefix_len + k, mv.direction) for mv in moves)


def _codes(steps) -> str:
    """Darts as one character each, ``chr(2*edge + (0 if forward else 1))``."""
    return "".join([chr(2 * d.edge + (not d.forward)) for d in steps])


def _darts(codes) -> tuple[Dart, ...]:
    return tuple(Dart(c >> 1, not c & 1) for c in map(ord, codes))


def prove_homotopic(
    m: RotationMap, w1: Walk, w2: Walk, budget: Optional[SearchBudget] = None
) -> Optional[HomotopyCertificate]:
    """Search for a homotopy certificate between two same-endpoint walks.

    The length cap is raised to the longer walk, so that every move that
    keeps a walk's length stays open. Returns None when the budget runs out
    or the bounded move closure is exhausted; neither outcome is a disproof.
    """
    _check_pair(m, w1, w2)
    budget = budget or default_budget(m)
    budget = SearchBudget(max(budget.max_len, w1.length, w2.length), budget.max_states)
    try:
        return _Certifier(m, budget).prove(w1, w2)
    except _Blocked:
        return None


def _check_walk(m: RotationMap, w: Walk) -> None:
    if w.graph != m.graph:
        raise ValueError("walk does not live on the map's graph")
    if not w.symmetric:
        raise ValueError("homotopy relates walks in the symmetrised graph")


def _check_pair(m: RotationMap, w1: Walk, w2: Walk) -> None:
    _check_walk(m, w1)
    _check_walk(m, w2)
    if (w1.start, w1.end) != (w2.start, w2.end):
        raise ValueError(
            f"walks do not share endpoints: ({w1.start},{w1.end}) vs ({w2.start},{w2.end})"
        )


@dataclass(frozen=True, slots=True)
class HomotopyNormalForm:
    """A normal form with its reduction trace and a homotopy certificate to it."""

    walk: Walk
    trace: rewrite.ReductionTrace
    certificate: HomotopyCertificate


@dataclass(frozen=True, slots=True)
class Inconclusive:
    """A normalization blocked on an unproven collapse: the sub-goal pair.

    The certificate is built by loop erasure, and the sub-goal is the first
    cycle, in erasure order, that cannot be collapsed: a quasi-simple loop
    paired with the trivial walk at its basepoint.
    ``exhausted`` tells a fully explored bounded search (the goal has no
    certificate within the length cap) from a state-budget cutoff.
    """

    subgoal: tuple[Walk, Walk]
    budget: SearchBudget
    exhausted: bool


class _Blocked(Exception):
    """A walk pair the search could not certify, and whether it was exhausted."""

    def __init__(self, subgoal: tuple[Walk, Walk], exhausted: bool):
        self.subgoal = subgoal
        self.exhausted = exhausted


class _Certifier:
    """One map's move table and its one pair search, under one budget.

    The table lists every face's segment exchanges on dart strings
    (``_codes``, one character per dart): nonempty sources under their first
    dart, full-boundary insertions (the trivial source) under their anchor
    node. A search state is a walk's dart string; every move keeps its start.
    ``prove``, a bidirectional BFS, is the only pair search. Its parent maps
    hold only parents; each ``HomotopyMove`` of the path found is re-derived
    as its parent's first successor to the child, the move the search took.
    It returns a replay-valid certificate or raises _Blocked with the pair
    and whether one side's reachable set within the length cap was
    exhausted, which is not a disproof.

    ``normal_form`` makes one pass over a walk's darts and keeps the
    loop-erased path, which is the walk's normal form. A dart back onto the
    path closes a simple cycle, which one ``prove`` against the trivial walk
    collapses at its offset before the path is cut back. Successful
    collapses are memoized per cycle.
    """

    def __init__(self, m: RotationMap, budget: SearchBudget):
        g = m.graph
        self.budget = budget
        self.head = [g.head(d) for d in _darts(map(chr, range(2 * g.edge_count)))]
        # entry: (src, dst, len(dst) - len(src), (face, a, b, direction))
        self.by_first_dart: list[list[tuple]] = [[] for _ in self.head]
        self.insertions_by_node: list[list[tuple]] = [[] for _ in range(g.node_count)]
        for face in m.faces:
            for a in range(len(face)):
                for b in range(len(face)):
                    cw, ccw = map(_codes, _boundary_segments(m, face.id, a, b))
                    for src, dst, direction in ((ccw, cw, CCW_TO_CW), (cw, ccw, CW_TO_CCW)):
                        entry = (src, dst, len(dst) - len(src), (face.id, a, b, direction))
                        if src:
                            self.by_first_dart[ord(src[0])].append(entry)
                        else:
                            self.insertions_by_node[g.tail(face.boundary[a])].append(entry)
        self._collapses: dict[tuple[int, str], tuple[HomotopyMove, ...]] = {}

    def successors(self, start: int, steps: str):
        """All ((face, a, b, direction), offset, dart string) one move away, length-capped."""
        max_len = self.budget.max_len
        length = len(steps)
        at = start
        for i in range(length + 1):
            for _, dst, grow, desc in self.insertions_by_node[at]:
                if length + grow <= max_len:
                    yield desc, i, steps[:i] + dst + steps[i:]
            if i < length:
                at = self.head[ord(steps[i])]
        for i in range(length):
            for src, dst, grow, desc in self.by_first_dart[ord(steps[i])]:
                if length + grow <= max_len and steps.startswith(src, i):
                    yield desc, i, steps[:i] + dst + steps[i + len(src) :]

    def prove(self, w1: Walk, w2: Walk) -> HomotopyCertificate:
        """A certificate from ``w1`` to ``w2``; raises _Blocked when the search finds none."""
        if w1.key() == w2.key():
            return HomotopyCertificate(w1, w2, ())
        # parent maps: dart string -> its parent's, None at the side's origin
        parents = ({_codes(w1.steps): None}, {_codes(w2.steps): None})
        frontiers = (deque(parents[0]), deque(parents[1]))

        def path(side: int, key: str) -> tuple[HomotopyMove, ...]:
            # the moves from the side's origin to ``key``, each the search's first to the child
            moves = []
            while (parent := parents[side][key]) is not None:
                (face, a, b, direction), i = next(
                    (d, i) for d, i, nxt in self.successors(w1.start, parent) if nxt == key
                )
                moves.append(HomotopyMove(face, a, b, i, direction))
                key = parent
            return tuple(reversed(moves))

        while frontiers[0] and frontiers[1]:
            side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
            own, other = parents[side], parents[1 - side]
            current = frontiers[side].popleft()
            for _, _, nxt in self.successors(w1.start, current):
                if nxt in own:
                    continue
                own[nxt] = current
                if nxt in other:
                    # the half-paths meet at ``nxt``: transitivity after symmetry
                    meet = Walk(w1.graph, w1.start, _darts(nxt), True)
                    there = HomotopyCertificate(w1, meet, path(0, nxt))
                    back = HomotopyCertificate(w2, meet, path(1, nxt))
                    return concat_certificates(there, reverse_certificate(back))
                frontiers[side].append(nxt)
                if len(own) + len(other) > self.budget.max_states:
                    raise _Blocked((w1, w2), False)
        raise _Blocked((w1, w2), True)

    def normal_form(self, w: Walk) -> tuple[Walk, tuple[HomotopyMove, ...]]:
        """``w``'s loop erasure, its normal form, and the moves deforming ``w`` into it."""
        g = w.graph
        path: list[Dart] = []
        nodes = [w.start]
        moves: list[HomotopyMove] = []
        for d in w.steps:
            h = g.head(d)
            if h not in nodes:
                path.append(d)
                nodes.append(h)
                continue
            j = nodes.index(h)
            cycle = (*path[j:], d)
            key = (h, _codes(cycle))
            if key not in self._collapses:
                loop = Walk(g, h, cycle, True)
                self._collapses[key] = self.prove(loop, trivial(g, h, symmetric=True)).moves
            moves.extend(_shifted(self._collapses[key], j))
            del path[j:], nodes[j + 1 :]
        return Walk(g, w.start, path, w.symmetric), tuple(moves)


def normalize_homotopy(
    m: RotationMap, w: Walk, budget: Optional[SearchBudget] = None
) -> HomotopyNormalForm | Inconclusive:
    """Normalize ``w`` and certify that it is homotopic to its normal form.

    The normal form is ``w``'s loop erasure, and the certificate collapses
    each erased simple cycle as it closes; the trace is that of
    ``rewrite.normalize``, which reaches the same normal form. A cycle the
    search cannot collapse (map not spherical, or budget too small) yields
    Inconclusive carrying the first one in erasure order.
    """
    _check_walk(m, w)
    budget = budget or default_budget(m)
    try:
        nf, moves = _Certifier(m, budget).normal_form(w)
    except _Blocked as blocked:
        return Inconclusive(blocked.subgoal, budget, blocked.exhausted)
    return HomotopyNormalForm(nf, rewrite.normalize(w)[1], HomotopyCertificate(w, nf, moves))


@dataclass(frozen=True, slots=True)
class SphericityVerdict:
    """Outcome of a sphericity check.

    ``witness`` holds the failing or unproven walk pair when there is one;
    ``euler`` is the Euler characteristic for connected maps (None
    otherwise) and is reported alongside every status as the independent
    cross-check.
    """

    status: str  # SPHERICAL | NOT_SPHERICAL | INCONCLUSIVE
    witness: Optional[tuple[Walk, Walk]]
    euler: Optional[int]
    pairs_checked: int
    budget: Optional[SearchBudget] = None


def check_spherical_quasi(
    m: RotationMap,
    budget: Optional[SearchBudget] = None,
    collector: Optional[list[HomotopyCertificate]] = None,
) -> SphericityVerdict:
    """Decide sphericity over quasi-simple walk pairs.

    For every ordered node pair, all quasi-simple walks in the symmetrised
    graph are proved homotopic to the first enumerated one; the remaining
    pairs follow by symmetry and transitivity of certificates. Spherical
    only when every pair is certified; for the first pair that is not, the
    Euler reading tells not spherical from inconclusive. Certificates found
    along the way are appended to ``collector`` when one is given.
    """
    budget = budget or default_budget(m)
    return _check_pairs(m, budget, partial(enumerate_all_qswalks, m.graph), False, collector)


def check_spherical_bounded(
    m: RotationMap,
    max_len: int,
    budget: Optional[SearchBudget] = None,
    collector: Optional[list[HomotopyCertificate]] = None,
) -> SphericityVerdict:
    """Decide sphericity over all walk pairs up to ``max_len``.

    Every enumerated walk is replaced by its loop erasure, its normal form,
    with a certified homotopy to it. The distinct normal forms of each node
    pair are then proved homotopic to each other; arbitrary pairs follow by
    transitivity. This covers exactly the walk pairs of length at most
    ``max_len`` without searching the quadratic pair space directly. With a
    ``collector``, the nontrivial certificates produced along the way are
    appended to it. The first collapse or pair left uncertified is the
    witness, and the Euler reading tells not spherical from inconclusive.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    budget = budget or default_budget(m)
    budget = SearchBudget(max(budget.max_len, max_len), budget.max_states)
    return _check_pairs(m, budget, partial(iter_walks_up_to, m.graph, max_len), True, collector)


def _check_pairs(
    m: RotationMap,
    budget: SearchBudget,
    walks_from: Callable[..., Iterable[Walk]],
    normalizing: bool,
    collector: Optional[list[HomotopyCertificate]],
) -> SphericityVerdict:
    """Both checkers' loop over ``walks_from(x, None, symmetric=True)`` for each start ``x``.

    With ``normalizing``, each walk counts as a pair and is replaced by its
    certified normal form before the distinct ones are proved homotopic.
    """
    euler = check_spherical_euler(m)
    certifier = _Certifier(m, budget)
    pairs = 0
    try:
        for x in range(m.graph.node_count):
            # one enumeration per start node; the stable sort keeps each end's walks in order
            walks = sorted(walks_from(x, None, symmetric=True), key=_end)
            for _, group in groupby(walks, key=_end):
                reps: dict[tuple, Walk] = {}
                for w in group:
                    if normalizing:
                        pairs += 1
                        nf, moves = certifier.normal_form(w)
                        if collector is not None and moves:
                            collector.append(HomotopyCertificate(w, nf, moves))
                        w = nf
                    reps.setdefault(w.key(), w)
                base, *others = reps.values()
                for other in others:
                    pairs += 1
                    cert = certifier.prove(base, other)
                    if collector is not None:
                        collector.append(cert)
    except _Blocked as blocked:
        status = NOT_SPHERICAL if euler.status == NOT_SPHERICAL else INCONCLUSIVE
        return SphericityVerdict(status, blocked.subgoal, euler.euler, pairs, budget)
    return SphericityVerdict(SPHERICAL, None, euler.euler, pairs, budget)


def check_spherical_euler(m: RotationMap) -> SphericityVerdict:
    """Sphericity from the Euler characteristic alone (connected maps only)."""
    if not is_connected(m.graph):
        return SphericityVerdict(INCONCLUSIVE, None, None, 0, None)
    chi = euler_characteristic(m)
    status = SPHERICAL if chi == 2 else NOT_SPHERICAL
    return SphericityVerdict(status, None, chi, 0, None)
