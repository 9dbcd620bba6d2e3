"""Seeded corpus generator for the walkmaps benchmark.

``build(workload, seed)`` returns the map and graph files a workload feeds to
the CLI, plus a task list. Every task records the answer it must get, and
that answer comes from how the input was built, never from walkmaps itself:

* planar maps are drawn in the plane (rotation = incident darts sorted by
  angle) or grown from a triangle by face splitting, so they are spheres;
* torus grids use the rotation ``[right+, up+, left-, down-]`` and bouquets
  interleave their loops, so they have genus >= 1. Walk pairs with the same
  step multiset are homotopic there (the torus group is abelian); walk
  pairs with different homology classes are not;
* walk counts come from an independent DFS in this file.

``write(directory, workload, seed)`` writes the files plus ``manifest.json``
(the tasks and their known answers) and self-checks every input: it must
pass ``parse_map_document`` and give the Euler characteristic its
construction promises (counted here with an independent face tracer).
The same seed gives a byte-identical corpus.

Run ``python3 bench/corpus.py WORKLOAD SEED DIR`` to write one corpus.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

WORKLOADS = ("quasi-sphere", "bounded-certify", "torus-cap", "walks-rewrite")

# Tasks per pass. Fixed for every seed, so the tail percentile
# (ten samples beyond it) names the same rank on every run.
TASKS_PER_PASS = 30

# --max-states of the capped searches; the torus3 row uses the default cap
# the ROADMAP baseline was measured with.
BASELINE_CAP = 200_000
SMALL_CAP = 10_000
PROBE_CAP = 2_000

# normalize walks, on a graph whose chain is long enough for the longest:
# thirteen of tens of steps (10..120) and five long ones (250..2000), both
# log-spaced. The many short ones keep the tasks around the median and the
# tail percentile alike, so those statistics do not sit on a slope.
NORMALIZE_LENGTHS = [round(10 * 12 ** (k / 12)) for k in range(13)] + [
    round(250 * 8 ** (k / 4)) for k in range(5)
]
CHAIN_NODES = 2100
CLUSTER_NODES = 6


# ---------------------------------------------------------------- darts


def _dart(edge: int, forward: bool) -> str:
    return f"e{edge}{'+' if forward else '-'}"


def _parse(lit: str) -> tuple[int, bool]:
    return int(lit[1:-1]), lit[-1] == "+"


def _doc(nodes: int, edges, rotation=None) -> dict:
    doc: dict = {"nodes": nodes, "edges": [list(e) for e in edges]}
    if rotation is not None:
        doc["rotation"] = {str(x): [_dart(*d) for d in rotation[x]] for x in range(nodes)}
    return doc


# ------------------------------------------------------- independent faces


def faces(doc: dict) -> list[list[str]]:
    """Face boundaries of a map document, traced without walkmaps.

    next(d) = the dart after reverse(d) in the rotation at head(d).
    """
    after = {}
    for listed in doc["rotation"].values():
        darts = [_parse(d) for d in listed]
        for i, d in enumerate(darts):
            after[d] = darts[(i + 1) % len(darts)]
    pending = {(e, f) for e in range(len(doc["edges"])) for f in (True, False)}
    out = []
    for start in sorted(pending, key=lambda d: (d[0], not d[1])):
        if start not in pending:
            continue
        orbit, d = [], start
        while d in pending:
            pending.discard(d)
            orbit.append(_dart(*d))
            d = after[(d[0], not d[1])]
        out.append(orbit)
    return out


def euler(doc: dict) -> int:
    return doc["nodes"] - len(doc["edges"]) + len(faces(doc))


# ------------------------------------------------------------ map builders


def planar_from_coords(coords, edges) -> dict:
    """Straight-line drawing: each node's rotation is its darts sorted by angle."""
    rot = [[] for _ in coords]
    for i, (s, t) in enumerate(edges):
        for x, y, fwd in ((s, t, True), (t, s, False)):
            angle = math.atan2(coords[y][1] - coords[x][1], coords[y][0] - coords[x][0])
            rot[x].append((angle, (i, fwd)))
    return _doc(len(coords), edges, [[d for _, d in sorted(r)] for r in rot])


def grid(rows: int, cols: int) -> dict:
    coords = [(j, i) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            x = i * cols + j
            if j + 1 < cols:
                edges.append((x, x + 1))
            if i + 1 < rows:
                edges.append((x, x + cols))
    return planar_from_coords(coords, edges)


def wheel(spokes: int) -> dict:
    rim = [
        (math.cos(2 * math.pi * i / spokes), math.sin(2 * math.pi * i / spokes))
        for i in range(spokes)
    ]
    edges = [(0, i + 1) for i in range(spokes)]
    edges += [(i + 1, (i + 1) % spokes + 1) for i in range(spokes)]
    return planar_from_coords([(0.0, 0.0)] + rim, edges)


def k4() -> dict:
    return planar_from_coords(
        [(0, 0), (2, 0), (1, 2), (1, 0.7)], [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    )


class TorusGrid:
    """n x n grid on the torus; node i*n+j, rotation [right+, up+, left-, down-]."""

    def __init__(self, n: int):
        self.n = n
        self.right, self.up, edges = {}, {}, []
        for x in range(n * n):
            i, j = divmod(x, n)
            self.right[x] = len(edges)
            edges.append((x, i * n + (j + 1) % n))
            self.up[x] = len(edges)
            edges.append((x, ((i + 1) % n) * n + j))
        rotation = []
        for x in range(n * n):
            rotation.append(
                [(self.right[x], True), (self.up[x], True),
                 (self.right[self._left(x)], False), (self.up[self._down(x)], False)]
            )
        self.doc = _doc(n * n, edges, rotation)

    def _left(self, x):
        i, j = divmod(x, self.n)
        return i * self.n + (j - 1) % self.n

    def _down(self, x):
        i, j = divmod(x, self.n)
        return ((i - 1) % self.n) * self.n + j

    def walk(self, start: int, word: str) -> str:
        """Walk text for a word over R, U, L, D (one grid step each)."""
        n, x, darts = self.n, start, []
        for c in word:
            i, j = divmod(x, n)
            if c == "R":
                darts.append(_dart(self.right[x], True))
                x = i * n + (j + 1) % n
            elif c == "U":
                darts.append(_dart(self.up[x], True))
                x = ((i + 1) % n) * n + j
            elif c == "L":
                x = self._left(x)
                darts.append(_dart(self.right[x], False))
            else:
                x = self._down(x)
                darts.append(_dart(self.up[x], False))
        return f"{start}:" + ",".join(darts)


def bouquet(pairs: int) -> dict:
    """One node, 2*pairs loops, rotation a+ b+ a- b- per pair: genus ``pairs``."""
    rotation = []
    for p in range(pairs):
        a, b = 2 * p, 2 * p + 1
        rotation += [(a, True), (b, True), (a, False), (b, False)]
    return _doc(1, [(0, 0)] * (2 * pairs), [rotation])


def bouquet_walk(word: str) -> str:
    """Walk text for a word over loop letters a, b, c, ... (upper case = reverse)."""
    darts = [_dart(ord(c.lower()) - ord("a"), c.islower()) for c in word]
    return "0:" + ",".join(darts)


def triangle() -> dict:
    return planar_from_coords([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)])


def random_planar(rng: random.Random, nodes: int, edges: int) -> dict:
    """A simple planar map grown from a triangle by face splitting.

    A new node goes into a face, joined to one or two of its corners; a
    chord joins two non-adjacent corners of one face. Each step keeps
    V - E + F = 2. A corner is named by the face dart leaving it; a new
    dart goes into the rotation just before that dart.
    """
    edge_list = [(0, 1), (1, 2), (2, 0)]
    rot = [[(0, True), (2, False)], [(1, True), (0, False)], [(2, True), (1, False)]]

    def tail(d):
        s, t = edge_list[d[0]]
        return s if d[1] else t

    def join(corner, v):
        """New edge from tail(corner), entering its rotation at that corner."""
        u = tail(corner)
        e = len(edge_list)
        edge_list.append((u, v))
        rot[u].insert(rot[u].index(corner), (e, True))
        return (e, False)

    for _ in range(1000):
        if len(rot) == nodes and len(edge_list) == edges:
            return _doc(nodes, edge_list, rot)
        face_darts = rng.choice(faces(_doc(len(rot), edge_list, rot)))
        boundary = [_parse(d) for d in face_darts]
        adjacent = {frozenset(e) for e in edge_list}
        if len(rot) < nodes:
            w = len(rot)
            rot.append([])
            first = rng.choice(boundary)
            rot[w].append(join(first, w))
            # a second edge when the remaining nodes still get one each
            if edges - len(edge_list) > nodes - len(rot):
                others = [d for d in boundary if tail(d) != tail(first)]
                rot[w].append(join(rng.choice(others), w))
            continue
        chords = [
            (di, dj)
            for di in boundary
            for dj in boundary
            if tail(di) < tail(dj) and frozenset((tail(di), tail(dj))) not in adjacent
        ]
        if chords:
            di, dj = rng.choice(chords)
            rot[tail(dj)].insert(rot[tail(dj)].index(dj), join(di, tail(dj)))
    raise ValueError(f"cannot grow a simple planar map with {nodes} nodes and {edges} edges")


def dense_digraph(nodes: int, multiplicity: int) -> dict:
    """Complete digraph with every edge repeated ``multiplicity`` times (graph only).

    Its symmetry makes walk counts depend only on whether the two ends
    are equal, so every seed costs the same.
    """
    pairs = [(i, j) for i in range(nodes) for j in range(nodes) if i != j]
    return _doc(nodes, [e for e in pairs for _ in range(multiplicity)])


def cluster_chain(rng: random.Random, chain: int) -> dict:
    """A complete digraph on a small cluster with a long path hanging off node 0.

    Chain edges get seeded directions, so walks along it mix e+ and e-.
    """
    c = CLUSTER_NODES
    edges = [(i, j) for i in range(c) for j in range(c) if i != j]
    prev = 0
    for node in range(c, c + chain):
        edges.append((prev, node) if rng.random() < 0.5 else (node, prev))
        prev = node
    return _doc(c + chain, edges)


def chain_walk(rng: random.Random, doc: dict, length: int) -> str:
    """A walk of ``length`` steps: a looping prefix in the cluster, then the chain.

    The prefix revisits cluster nodes, so normalize has loops to remove;
    the chain part is loop-free, so its length sets the recursion depth.
    """
    index = {(s, t): i for i, (s, t) in enumerate(doc["edges"])}
    darts = []

    def step(u, v):
        if (u, v) in index:
            darts.append(_dart(index[(u, v)], True))
        else:
            darts.append(_dart(index[(v, u)], False))
        return v

    x = start = rng.randrange(CLUSTER_NODES)
    for _ in range(min(length - 2, rng.randint(4, 20))):
        x = step(x, rng.choice([v for v in range(CLUSTER_NODES) if v != x]))
    if x != 0:
        x = step(x, 0)
    node = CLUSTER_NODES
    while len(darts) < length:
        x = step(x, node)
        node += 1
    return f"{start}:" + ",".join(darts)


# ------------------------------------------------------ independent counts


def _out_lists(doc: dict) -> list[list[int]]:
    out = [[] for _ in range(doc["nodes"])]
    for s, t in doc["edges"]:
        out[s].append(t)
    return out


def count_quasi_walks(doc: dict, x: int, y: int) -> int:
    """Directed walks x -> y with no node repeated among non-final positions."""
    out = _out_lists(doc)

    def dfs(v, used):
        n = 1 if v == y else 0
        if not used >> v & 1:
            for u in out[v]:
                n += dfs(u, used | 1 << v)
        return n

    return dfs(x, 0)


def count_walks_up_to(doc: dict, max_len: int, x: int, y: int) -> int:
    """Directed walks x -> y of length 0..max_len, by DFS over walk prefixes."""
    out = _out_lists(doc)

    def dfs(v, left):
        n = 1 if v == y else 0
        if left:
            for u in out[v]:
                n += dfs(u, left - 1)
        return n

    return dfs(x, max_len)


# ------------------------------------------------------------- workloads

# Euler characteristic each kind of map is built to have
CHI = {"sphere": 2, "torus": 0, "genus2": -2}


class Corpus:
    """Files and tasks of one workload; each task names its known answer."""

    def __init__(self):
        self.files: dict[str, dict] = {}
        self.kinds: dict[str, str] = {}  # file -> key of CHI, or "graph"
        self.tasks: list[dict] = []

    def add_file(self, name: str, doc: dict, kind: str) -> str:
        path = f"maps/{name}.json"
        self.files[path] = doc
        self.kinds[path] = kind
        return path

    def task(self, name, argv, expect, probe=False, row=None):
        number = sum(1 for t in self.tasks if t["probe"] == probe)
        task_id = f"{'p' if probe else 't'}{number:02d}-{name}"
        argv = [str(a).replace("{id}", task_id) for a in argv]
        self.tasks.append(
            {"id": task_id, "argv": argv, "expect": expect, "probe": probe, "row": row}
        )

    def quasi(self, name, path, probe=False, row=None, max_states=None):
        argv = ["check-spherical", path, "--method", "quasi"]
        if max_states is not None:
            argv += ["--max-states", max_states]
        status = "spherical" if self.kinds[path] == "sphere" else "not_spherical"
        self.task(f"{name}-quasi", argv, {"status": status}, probe, row)

    def euler(self, name, path, probe=False):
        status = "spherical" if self.kinds[path] == "sphere" else "not_spherical"
        argv = ["check-spherical", path, "--method", "euler"]
        self.task(f"{name}-euler", argv, {"status": status}, probe)

    def bounded(self, name, path, max_len, probe=False):
        argv = ["check-spherical", path, "--method", "bounded", "--max-len", max_len,
                "--certificates", "certs/{id}.json"]
        self.task(f"{name}-bounded{max_len}", argv, {"status": "spherical"}, probe)

    def homotopic(self, name, path, w1, w2, homotopic, max_states, probe=False, row=None):
        argv = ["homotopic", path, "--w1", w1, "--w2", w2, "--max-states", max_states]
        self.task(name, argv, {"homotopic": homotopic}, probe, row)

    def walks(self, name, path, x, y, max_len=None, probe=False):
        doc = self.files[path]
        argv = ["walks", path, "--from", x, "--to", y]
        if max_len is None:
            argv.append("--quasi-only")
            count = count_quasi_walks(doc, x, y)
        else:
            argv += ["--max-len", max_len]
            count = count_walks_up_to(doc, max_len, x, y)
        self.task(name, argv, {"count": count}, probe)

    def normalize(self, name, path, walk, probe=False):
        # the reference is an in-process normalize, computed by the checker
        self.task(name, ["normalize", path, "--walk", walk], {"normalize": True}, probe)


def _quasi_sphere(c: Corpus, rng: random.Random) -> None:
    fixed = [("k4", k4()), ("grid2x2", grid(2, 2)), ("grid2x3", grid(2, 3)),
             ("wheel3", wheel(3)), ("wheel4", wheel(4)), ("grid3", grid(3, 3)),
             ("wheel5", wheel(5))]
    for name, doc in fixed:
        path = c.add_file(name, doc, "sphere")
        c.quasi(name, path, row=name if name in ("grid3", "wheel5") else None)
    c.euler("grid3", "maps/grid3.json")
    # random spheres of one size cost about the same, so the median and the
    # tail percentile, which fall among them, are not on a slope
    for k in range(TASKS_PER_PASS - len(c.tasks)):
        path = c.add_file(f"planar{k:02d}", random_planar(rng, 5, 7), "sphere")
        c.quasi(f"planar{k:02d}", path)


def _bounded_certify(c: Corpus, rng: random.Random) -> None:
    fixed = [("k4", k4(), [3, 4, 5]), ("triangle", triangle(), [6]),
             ("grid2x2", grid(2, 2), [6]), ("wheel4", wheel(4), [4]), ("grid3", grid(3, 3), [6])]
    for name, doc, lengths in fixed:
        path = c.add_file(name, doc, "sphere")
        for max_len in lengths:
            c.bounded(name, path, max_len)
    for k in range(TASKS_PER_PASS - len(c.tasks)):
        path = c.add_file(f"planar{k:02d}", random_planar(rng, 5, 7), "sphere")
        c.bounded(f"planar{k:02d}", path, 3)


def _torus_cap(c: Corpus, rng: random.Random) -> None:
    t2, t3 = TorusGrid(2), TorusGrid(3)
    p2 = c.add_file("torus2x2", t2.doc, "torus")
    p3 = c.add_file("torus3x3", t3.doc, "torus")
    g1 = c.add_file("bouquet-g1", bouquet(1), "torus")
    g2 = c.add_file("bouquet-g2", bouquet(2), "genus2")
    # different homology classes: the search can only run to its cap
    c.homotopic("torus3-RRR-UUU", p3, t3.walk(0, "RRR"), t3.walk(0, "UUU"), False,
                BASELINE_CAP, row="torus3")
    c.homotopic("torus2-RR-UU", p2, t2.walk(0, "RR"), t2.walk(0, "UU"), False, SMALL_CAP)
    c.homotopic("torus2-RR-0", p2, t2.walk(0, "RR"), "0:", False, SMALL_CAP)
    c.homotopic("bouquet-g1-a-b", g1, bouquet_walk("a"), bouquet_walk("b"), False, SMALL_CAP)
    c.homotopic("bouquet-g2-a-c", g2, bouquet_walk("a"), bouquet_walk("c"), False, SMALL_CAP)
    c.quasi("torus2x2", p2, max_states=SMALL_CAP)
    c.quasi("bouquet-g1", g1, max_states=SMALL_CAP)
    # the one face of the genus-2 bouquet bounds a disc: one move
    boundary = "0:" + ",".join(faces(bouquet(2))[0])
    c.homotopic("bouquet-g2-face", g2, boundary, "0:", True, SMALL_CAP)
    # a word and the same word with one adjacent pair of steps swapped
    # across a face: one move apart, so every such search costs about the same
    while len(c.tasks) < TASKS_PER_PASS:
        k = len(c.tasks)
        if k % 4 == 3:
            word, other = _swapped(rng, "abAB", lambda x, y: x.lower() != y.lower())
            c.homotopic(f"bouquet-g1-{word}-{other}", g1, bouquet_walk(word),
                        bouquet_walk(other), True, SMALL_CAP)
            continue
        torus, path = (t2, p2) if k % 2 else (t3, p3)
        word, other = _swapped(rng, "RULD", lambda x, y: (x in "RL") != (y in "RL"))
        start = rng.randrange(torus.n ** 2)
        c.homotopic(f"torus{torus.n}-{word}-{other}", path, torus.walk(start, word),
                    torus.walk(start, other), True, SMALL_CAP)


def _swapped(rng: random.Random, letters: str, across) -> tuple[str, str]:
    """A seeded 4-letter word and the word with one adjacent pair swapped.

    The pair is one where ``across(x, y)`` holds: two steps that bound a
    face together (perpendicular grid steps, or loops of different letters
    on the torus bouquet), so swapping them is one homotopy move.
    """
    while True:
        word = "".join(rng.choice(letters) for _ in range(4))
        sites = [i for i in range(3) if across(word[i], word[i + 1])]
        if sites:
            i = rng.choice(sites)
            return word, word[:i] + word[i + 1] + word[i] + word[i + 2:]


def _walks_rewrite(c: Corpus, rng: random.Random) -> None:
    # a complete digraph on 8 nodes and doubled complete digraphs on 5; on
    # each, one pair of distinct ends and one walk from a node to itself
    dense = [c.add_file("dense0", dense_digraph(8, 1), "graph")]
    dense += [c.add_file(f"dense{k}", dense_digraph(5, 2), "graph") for k in (1, 2)]
    for k in range(12):
        path = dense[k // 2 % 3]
        nodes = c.files[path]["nodes"]
        x = rng.randrange(nodes)
        y = x if k % 2 else (x + 1 + rng.randrange(nodes - 1)) % nodes
        name = Path(path).stem
        if k < 6:
            c.walks(f"{name}-qs-{x}-{y}", path, x, y)
        else:
            c.walks(f"{name}-len4-{x}-{y}", path, x, y, max_len=4)
    chain = c.add_file("chain", cluster_chain(rng, CHAIN_NODES), "graph")
    for length in NORMALIZE_LENGTHS:
        c.normalize(f"normalize{length}", chain, chain_walk(rng, c.files[chain], length))


def _probe_set(c: Corpus, rng: random.Random) -> None:
    """Tiny inputs for every layer, run only in traced mode.

    They keep each per-layer metric measured on every workload, including
    layers the workload itself never calls.
    """
    sphere = c.add_file("probe-k4", k4(), "sphere")
    torus = c.add_file("probe-bouquet-g1", bouquet(1), "torus")
    dense = c.add_file("probe-dense4", dense_digraph(4, 2), "graph")
    chain = c.add_file("probe-chain", cluster_chain(rng, 40), "graph")
    c.quasi("k4", sphere, probe=True)
    c.euler("k4", sphere, probe=True)
    c.bounded("k4", sphere, 3, probe=True)
    c.homotopic("bouquet-g1-a-b", torus, bouquet_walk("a"), bouquet_walk("b"), False,
                PROBE_CAP, probe=True)
    c.homotopic("bouquet-g1-ab-ba", torus, bouquet_walk("ab"), bouquet_walk("ba"), True,
                PROBE_CAP, probe=True)
    c.walks("dense4-qs-0-1", dense, 0, 1, probe=True)
    c.walks("dense4-len3-0-0", dense, 0, 0, max_len=3, probe=True)
    c.normalize("normalize30", chain, chain_walk(rng, c.files[chain], 30), probe=True)


_BUILDERS = {
    "quasi-sphere": _quasi_sphere,
    "bounded-certify": _bounded_certify,
    "torus-cap": _torus_cap,
    "walks-rewrite": _walks_rewrite,
}


def build(workload: str, seed: int) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    c = Corpus()
    _BUILDERS[workload](c, rng)
    if len(c.tasks) != TASKS_PER_PASS:
        raise AssertionError(f"{workload}: {len(c.tasks)} tasks, not {TASKS_PER_PASS}")
    _probe_set(c, rng)
    return c


def self_check(c: Corpus) -> None:
    """Every input parses; every map has the Euler characteristic it was built for."""
    from walkmaps.cli import parse_map_document

    for path, doc in c.files.items():
        parse_map_document(json.dumps(doc))
        kind = c.kinds[path]
        if kind != "graph" and euler(doc) != CHI[kind]:
            raise AssertionError(f"{path}: Euler characteristic {euler(doc)}, built as {kind}")


def write(directory: Path, workload: str, seed: int) -> list[dict]:
    """Write the corpus of ``workload`` for ``seed`` and return its tasks."""
    c = build(workload, seed)
    self_check(c)
    (directory / "maps").mkdir(parents=True, exist_ok=True)
    (directory / "certs").mkdir(exist_ok=True)
    for path, doc in c.files.items():
        (directory / path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "tasks": c.tasks}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return c.tasks


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write(Path(sys.argv[3]), sys.argv[1], int(sys.argv[2]))
