"""Walk homotopy on an embedded graph: certificates, search, sphericity.

Two walks with the same endpoints are homotopic when one deforms into the
other across faces: the generating move exchanges the two boundary walks
between a pair of positions on one face (with equal positions, the full
boundary loop exchanges with the trivial walk). Certificates are explicit
move sequences and every operation here keeps them replayable: reflexivity
is the empty certificate, symmetry reverses and flips a move list,
transitivity concatenates, and whiskering shifts move offsets.

The relation itself is only searched, never decided: bounded breadth-first
search produces certificates, and an exhausted search is kept apart from a
disproof. The independent negative signal is the Euler characteristic,
which for a connected map is 2 exactly on sphere embeddings.

A walk is certified homotopic to its normal form from the trace of
``rewrite.normalize``: each trace step deletes one loop, erased cycle by
cycle as each closes (chronological loop erasure), one search per distinct
simple cycle. ``Inconclusive`` names the first cycle, in erasure order,
that cannot be collapsed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Optional

from . import rewrite
from .embedding import Face, RotationMap, _ccw_steps, _cw_steps, euler_characteristic
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


def _move_segments(face: Face, move: HomotopyMove) -> tuple[tuple[Dart, ...], tuple[Dart, ...]]:
    cw = _cw_steps(face.boundary, move.a, move.b)
    ccw = _ccw_steps(face.boundary, move.a, move.b)
    return (ccw, cw) if move.direction == CCW_TO_CW else (cw, ccw)


def apply_hcollapse(m: RotationMap, w: Walk, move: HomotopyMove) -> Walk:
    """Apply one move to ``w``; endpoints are preserved.

    Requires the move's source-direction segment to sit at ``prefix_len``;
    otherwise a SegmentMismatchError reports expected versus found darts.
    """
    if w.graph != m.graph:
        raise ValueError("walk does not live on the map's graph")
    if not w.symmetric:
        raise ValueError("homotopy moves act on walks in the symmetrised graph")
    if move.direction not in (CCW_TO_CW, CW_TO_CCW):
        raise ValueError(f"unknown move direction {move.direction!r}")
    if not (0 <= move.face < len(m.faces)):
        raise ValueError(f"no face {move.face}")
    face = m.faces[move.face]
    for pos in (move.a, move.b):
        if not (0 <= pos < len(face)):
            raise ValueError(f"anchor position {pos} outside boundary of face {move.face}")
    src, dst = _move_segments(face, move)
    i = move.prefix_len
    if i < 0 or i + len(src) > w.length:
        raise SegmentMismatchError(i, src, None)
    if w.steps[i : i + len(src)] != src:
        raise SegmentMismatchError(i, src, w.steps[i : i + len(src)])
    anchor = m.graph.tail(face.boundary[move.a])
    if w.node_at(i) != anchor:
        raise SegmentMismatchError(i, src, w.steps[i : i + len(src)])
    return Walk(m.graph, w.start, w.steps[:i] + dst + w.steps[i + len(src) :], symmetric=True)


def replay_certificate(m: RotationMap, cert: HomotopyCertificate) -> Walk:
    """Apply every move from the source; checks the result equals the target."""
    _check_pair(m, cert.source, cert.target)
    at = cert.source
    for mv in cert.moves:
        at = apply_hcollapse(m, at, mv)
        if (at.start, at.end) != (cert.source.start, cert.source.end):
            raise ValueError("certificate replay changed walk endpoints")
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


def _codes(steps) -> tuple[int, ...]:
    """Darts as integer codes ``2*edge + (0 if forward else 1)``; reversal is ``^ 1``."""
    return tuple(2 * d.edge + (not d.forward) for d in steps)


def _darts(codes) -> tuple[Dart, ...]:
    return tuple(Dart(c >> 1, not c & 1) for c in codes)


class _MoveEngine:
    """Precomputed move table for one map: all segment exchange templates.

    The search runs on integer darts (``_codes``): a state is the step
    tuple of a walk, whose start every move keeps. Templates whose source
    segment is nonempty are listed under the code of their first dart;
    full-boundary insertions (the trivial source) under their anchor node.
    A successor is a ``(face, a, b, direction)`` descriptor, the offset it
    applies at and the resulting steps; ``HomotopyMove``s are built only
    for the path a search returns.
    """

    def __init__(self, m: RotationMap):
        g = m.graph
        self.head = [g.head(d) for d in _darts(range(2 * g.edge_count))]
        # entry: (src, dst, len(dst) - len(src), descriptor)
        self.by_first_dart: list[list[tuple]] = [[] for _ in self.head]
        self.insertions_by_node: list[list[tuple]] = [[] for _ in range(g.node_count)]
        for face in m.faces:
            boundary = face.boundary
            for a in range(len(boundary)):
                for b in range(len(boundary)):
                    cw = _codes(_cw_steps(boundary, a, b))
                    ccw = _codes(_ccw_steps(boundary, a, b))
                    for src, dst, direction in ((ccw, cw, CCW_TO_CW), (cw, ccw, CW_TO_CCW)):
                        entry = (src, dst, len(dst) - len(src), (face.id, a, b, direction))
                        if src:
                            self.by_first_dart[src[0]].append(entry)
                        else:
                            self.insertions_by_node[g.tail(boundary[a])].append(entry)

    def successors(self, start: int, steps: tuple[int, ...], max_len: int):
        """All (descriptor, offset, steps) one move away, length-capped."""
        length = len(steps)
        at = start
        for i in range(length + 1):
            for _, dst, grow, desc in self.insertions_by_node[at]:
                if length + grow <= max_len:
                    yield desc, i, steps[:i] + dst + steps[i:]
            if i < length:
                at = self.head[steps[i]]
        for i in range(length):
            for src, dst, grow, desc in self.by_first_dart[steps[i]]:
                ls = len(src)
                if i + ls <= length and length + grow <= max_len and steps[i : i + ls] == src:
                    yield desc, i, steps[:i] + dst + steps[i + ls :]


def _bfs(
    engine: _MoveEngine, w1: Walk, w2: Walk, budget: SearchBudget
) -> tuple[Optional[HomotopyCertificate], bool]:
    """Bidirectional search for a move path from ``w1`` to ``w2``.

    Returns (certificate, exhausted). ``exhausted`` is True when one side's
    reachable set within the length cap was fully explored, i.e. the failure
    is not a budget artifact. A certificate found is always replay-valid.
    """
    if w1.key() == w2.key():
        return HomotopyCertificate(w1, w2, ()), True
    start = w1.start
    origins = (_codes(w1.steps), _codes(w2.steps))
    # parent maps: steps -> (parent steps, descriptor, offset) of the move from the parent
    parents = ({origins[0]: None}, {origins[1]: None})
    frontiers = (deque([origins[0]]), deque([origins[1]]))
    visited = 2

    def path(side: int, key) -> list[HomotopyMove]:
        # the moves from the side's origin to ``key``
        moves = []
        while parents[side][key] is not None:
            key, (face, a, b, direction), i = parents[side][key]
            moves.append(HomotopyMove(face, a, b, i, direction))
        moves.reverse()
        return moves

    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        own, other = parents[side], parents[1 - side]
        current = frontiers[side].popleft()
        for desc, i, nxt in engine.successors(start, current, budget.max_len):
            if nxt in own:
                continue
            if nxt in other:
                face, a, b, direction = desc
                fwd = path(side, current) + [HomotopyMove(face, a, b, i, direction)]
                bwd = [mv.inverted() for mv in reversed(path(1 - side, nxt))]
                moves = tuple(fwd + bwd)
                if side == 1:
                    moves = tuple(mv.inverted() for mv in reversed(moves))
                return HomotopyCertificate(w1, w2, moves), True
            own[nxt] = (current, desc, i)
            frontiers[side].append(nxt)
            visited += 1
            if visited > budget.max_states:
                return None, False
    return None, True


def prove_homotopic(
    m: RotationMap, w1: Walk, w2: Walk, budget: Optional[SearchBudget] = None
) -> Optional[HomotopyCertificate]:
    """Search for a homotopy certificate between two same-endpoint walks.

    Returns None when the budget runs out or the bounded move closure is
    exhausted; neither outcome is a disproof.
    """
    _check_pair(m, w1, w2)
    cert, _ = _bfs(_MoveEngine(m), w1, w2, budget or default_budget(m))
    return cert


def _check_pair(m: RotationMap, w1: Walk, w2: Walk) -> None:
    for w in (w1, w2):
        if w.graph != m.graph:
            raise ValueError("walk does not live on the map's graph")
        if not w.symmetric:
            raise ValueError("homotopy relates walks in the symmetrised graph")
    if (w1.start, w1.end) != (w2.start, w2.end):
        raise ValueError(
            f"walks do not share endpoints: ({w1.start},{w1.end}) vs ({w2.start},{w2.end})"
        )


def loop_collapse_cert(
    m: RotationMap, w: Walk, budget: Optional[SearchBudget] = None
) -> Optional[HomotopyCertificate]:
    """Certificate collapsing a loop to the trivial walk at its basepoint."""
    if w.start != w.end:
        raise ValueError("loop_collapse_cert requires a loop")
    return prove_homotopic(m, w, trivial(w.graph, w.start, symmetric=True), budget)


@dataclass(frozen=True, slots=True)
class HomotopyNormalForm:
    """A normal form with its reduction trace and a homotopy certificate to it."""

    walk: Walk
    trace: rewrite.ReductionTrace
    certificate: HomotopyCertificate


@dataclass(frozen=True, slots=True)
class Inconclusive:
    """A normalization blocked on an unproven collapse: the sub-goal pair.

    The certificate is built from the ``rewrite.normalize`` trace, and the
    sub-goal is the first cycle, in erasure order, that cannot be collapsed:
    a quasi-simple loop paired with the trivial walk at its basepoint.
    ``exhausted`` tells a fully explored bounded search (the goal has no
    certificate within the length cap) from a state-budget cutoff.
    """

    subgoal: tuple[Walk, Walk]
    budget: SearchBudget
    exhausted: bool


class _Blocked(Exception):
    """A loop collapse the search could not certify."""

    def __init__(self, loop: Walk, exhausted: bool):
        self.subgoal = (loop, trivial(loop.graph, loop.start, symmetric=True))
        self.exhausted = exhausted


class _Certifier:
    """Moves from walks to their ``rewrite.normalize`` normal forms on one map.

    Each trace step deletes one loop. One pass over its darts keeps the
    loop-erased path; a dart back onto the path closes a simple cycle, which
    one search collapses at its offset before the path is cut back.
    Searches are memoized per cycle; an uncertified search raises _Blocked,
    so the first cycle in erasure order that cannot be collapsed wins.
    """

    def __init__(self, m: RotationMap, budget: SearchBudget):
        self.budget = budget
        self.engine = _MoveEngine(m)
        self._searches: dict[tuple, tuple[Optional[HomotopyCertificate], bool]] = {}

    def normal_form(self, w: Walk) -> tuple[Walk, rewrite.ReductionTrace, tuple[HomotopyMove, ...]]:
        """``rewrite.normalize(w)`` plus the moves deforming ``w`` into its normal form."""
        nf, trace = rewrite.normalize(w)
        moves: list[HomotopyMove] = []
        for s in trace.steps:
            at = s.depth
            end = at + s.before.length - s.after.length
            moves.extend(_shifted(self._collapse(s.before, at, end), at))
        return nf, trace, tuple(moves)

    def _collapse(self, w: Walk, at: int, end: int) -> list[HomotopyMove]:
        """Moves collapsing the loop ``w.steps[at:end]``, erasing each cycle as it closes."""
        g = w.graph
        path: list[Dart] = []
        nodes = [w.node_at(at)]
        moves: list[HomotopyMove] = []
        for d in w.steps[at:end]:
            h = g.head(d)
            if h not in nodes:
                path.append(d)
                nodes.append(h)
                continue
            j = nodes.index(h)
            moves.extend(_shifted(self._search(Walk(g, h, (*path[j:], d), True)), j))
            del path[j:], nodes[j + 1 :]
        return moves

    def _search(self, loop: Walk) -> tuple[HomotopyMove, ...]:
        key = (loop.start, _codes(loop.steps))
        if key not in self._searches:
            point = trivial(loop.graph, loop.start, symmetric=True)
            self._searches[key] = _bfs(self.engine, loop, point, self.budget)
        cert, exhausted = self._searches[key]
        if cert is None:
            raise _Blocked(loop, exhausted)
        return cert.moves


def normalize_homotopy(
    m: RotationMap, w: Walk, budget: Optional[SearchBudget] = None
) -> HomotopyNormalForm | Inconclusive:
    """Normalize ``w`` and certify that it is homotopic to its normal form.

    The normal form and trace are those of ``rewrite.normalize``; the
    certificate collapses each deleted loop one simple cycle at a time. A
    cycle the search cannot collapse (map not spherical, or budget too
    small) yields Inconclusive carrying the first one in erasure order.
    """
    if w.graph != m.graph:
        raise ValueError("walk does not live on the map's graph")
    if not w.symmetric:
        raise ValueError("normalize_homotopy acts on walks in the symmetrised graph")
    budget = budget or default_budget(m)
    try:
        nf, trace, moves = _Certifier(m, budget).normal_form(w)
    except _Blocked as blocked:
        return Inconclusive(blocked.subgoal, budget, blocked.exhausted)
    return HomotopyNormalForm(nf, trace, HomotopyCertificate(w, nf, moves))


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


def _euler_if_connected(m: RotationMap) -> Optional[int]:
    return euler_characteristic(m) if is_connected(m.graph) else None


def _failure_verdict(
    m: RotationMap, pair: tuple[Walk, Walk], budget: SearchBudget, pairs: int
) -> SphericityVerdict:
    """Classify an unproven pair: the Euler oracle supplies the negative signal."""
    chi = _euler_if_connected(m)
    if chi is not None and chi != 2:
        return SphericityVerdict(NOT_SPHERICAL, pair, chi, pairs, budget)
    return SphericityVerdict(INCONCLUSIVE, pair, chi, pairs, budget)


def check_spherical_quasi(
    m: RotationMap,
    budget: Optional[SearchBudget] = None,
    collector: Optional[list[HomotopyCertificate]] = None,
) -> SphericityVerdict:
    """Decide sphericity over quasi-simple walk pairs.

    For every ordered node pair, all quasi-simple walks in the symmetrised
    graph are proved homotopic to the first enumerated one; the remaining
    pairs follow by symmetry and transitivity of certificates. Spherical
    only when every pair is certified. Certificates found along the way are
    appended to ``collector`` when one is given.
    """
    budget = budget or default_budget(m)
    engine = _MoveEngine(m)
    pairs = 0
    for x in range(m.graph.node_count):
        # one search per start node; the stable sort keeps each end's walks in order
        walks = sorted(enumerate_all_qswalks(m.graph, x, None, symmetric=True), key=_end)
        for _, group in groupby(walks, key=_end):
            base, *others = group
            for other in others:
                pairs += 1
                cert, _ = _bfs(engine, base, other, budget)
                if cert is None:
                    return _failure_verdict(m, (base, other), budget, pairs)
                if collector is not None:
                    collector.append(cert)
    return SphericityVerdict(SPHERICAL, None, _euler_if_connected(m), pairs, budget)


def check_spherical_bounded(
    m: RotationMap,
    max_len: int,
    budget: Optional[SearchBudget] = None,
    collector: Optional[list[HomotopyCertificate]] = None,
) -> SphericityVerdict:
    """Decide sphericity over all walk pairs up to ``max_len``.

    Every enumerated walk is normalized with a certified homotopy to its
    normal form, then the distinct normal forms of each node pair are proved
    homotopic to each other; arbitrary pairs follow by transitivity. This
    covers exactly the walk pairs of length at most ``max_len`` without
    searching the quadratic pair space directly. With a ``collector``, the
    nontrivial certificates produced along the way are appended to it.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    budget = budget or default_budget(m)
    if budget.max_len < max_len:
        budget = SearchBudget(max_len, budget.max_states)
    certifier = _Certifier(m, budget)
    pairs = 0
    for x in range(m.graph.node_count):
        walks = sorted(iter_walks_up_to(m.graph, max_len, x, None, symmetric=True), key=_end)
        for _, group in groupby(walks, key=_end):
            normal_forms: dict[tuple, Walk] = {}
            for w in group:
                pairs += 1
                try:
                    nf, _, moves = certifier.normal_form(w)
                except _Blocked as blocked:
                    return _failure_verdict(m, blocked.subgoal, budget, pairs)
                if collector is not None and moves:
                    collector.append(HomotopyCertificate(w, nf, moves))
                normal_forms.setdefault(nf.key(), nf)
            reps = list(normal_forms.values())
            for other in reps[1:]:
                pairs += 1
                cert, _ = _bfs(certifier.engine, reps[0], other, budget)
                if cert is None:
                    return _failure_verdict(m, (reps[0], other), budget, pairs)
                if collector is not None:
                    collector.append(cert)
    return SphericityVerdict(SPHERICAL, None, _euler_if_connected(m), pairs, budget)


def check_spherical_euler(m: RotationMap) -> SphericityVerdict:
    """Sphericity from the Euler characteristic alone (connected maps only)."""
    if not is_connected(m.graph):
        return SphericityVerdict(INCONCLUSIVE, None, None, 0, None)
    chi = euler_characteristic(m)
    status = SPHERICAL if chi == 2 else NOT_SPHERICAL
    return SphericityVerdict(status, None, chi, 0, None)
