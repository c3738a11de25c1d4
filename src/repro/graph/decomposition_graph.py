"""Decomposition graph data structure (Definition 1 of the paper).

A decomposition graph has one vertex per polygonal feature (or per feature
fragment once stitch candidates are inserted) and two edge sets:

* **conflict edges** (CE) connect vertices whose features are closer than the
  minimum coloring distance ``min_s`` — they must receive different masks;
* **stitch edges** (SE) connect the two fragments of a split feature — giving
  them different masks costs one stitch.

This implementation adds a third, optional edge set of **color-friendly
edges** (Definition 2): features whose spacing lies in
``(min_s, min_s + half_pitch)``.  Those edges never constrain legality; they
only guide the linear color assignment heuristic.

The flow itself works on the graph's flat form
(:class:`~repro.graph.flat.FlatGraph`).  The construction and the division
hand out *views* (:meth:`DecompositionGraph.from_flat`): a view holds only
the flat form, answers the vertex and edge counts, ``vertices()`` and
``to_arrays()`` from it, and builds its adjacency sets the first time any
other method needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError


#: The object-graph state a view builds on first use.
_OBJECT_STATE = (
    "_vertices",
    "_conflict_adj",
    "_stitch_adj",
    "_friend_adj",
    "_conflict_edges",
    "_stitch_edges",
    "_friend_edges",
)


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


def _edge_set(edges: Collection[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    """The ``u < v`` keys of ``edges``; raises :class:`GraphError` on a self loop.

    Tuples already ordered ``u < v`` are kept as they are, so rebuilding a
    graph from another one's edge set allocates no new tuples.
    """
    keys = set(edges)
    flipped = [(v, u) for u, v in edges if u >= v]
    if flipped:
        for u, v in flipped:
            if u == v:
                raise GraphError(f"self loop on vertex {u}")
        keys.difference_update([(v, u) for u, v in flipped])
        keys.update(flipped)
    return keys


@dataclass
class VertexData:
    """Per-vertex metadata carried through the decomposition flow.

    Attributes
    ----------
    shape_id:
        Id of the original layout shape this vertex belongs to (several
        vertices share a shape after stitch insertion).
    fragment:
        Fragment index within the original shape (0 when unsplit).
    weight:
        Number of original vertices folded into this one (used by merged
        graphs built from SDP results).
    """

    shape_id: Optional[int] = None
    fragment: int = 0
    weight: int = 1


class DecompositionGraph:
    """Undirected multi-relation graph {V, CE, SE} plus color-friendly edges.

    Vertices are non-negative integers.  Vertices and edges are added, never
    removed: the flow's stages read the graph and build new ones from it.
    """

    def __init__(self) -> None:
        self._vertices: Dict[int, VertexData] = {}
        self._conflict_adj: Dict[int, Set[int]] = {}
        self._stitch_adj: Dict[int, Set[int]] = {}
        self._friend_adj: Dict[int, Set[int]] = {}
        self._conflict_edges: Set[Tuple[int, int]] = set()
        self._stitch_edges: Set[Tuple[int, int]] = set()
        self._friend_edges: Set[Tuple[int, int]] = set()
        #: Memoised derived forms, dropped on any structural mutation: the
        #: flat-array snapshot and the canonical component keys computed from
        #: it (:mod:`repro.runtime.hashing` keys them by solve configuration).
        self._flat = None
        self._key_memo: Dict[object, str] = {}

    @classmethod
    def from_flat(cls, flat) -> "DecompositionGraph":
        """A view of the graph whose canonical flat form is ``flat``.

        The view holds ``flat`` and the key memo only: the vertex and edge
        counts, :meth:`vertices` and :meth:`to_arrays` answer from ``flat``,
        and the vertex map, adjacency sets and edge sets are built once,
        through :meth:`FlatGraph.to_graph
        <repro.graph.flat.FlatGraph.to_graph>`, when any other method first
        reads them, mutates the graph or pickles it.  ``flat`` must be
        canonical (:meth:`FlatGraph.is_canonical
        <repro.graph.flat.FlatGraph.is_canonical>`); the construction and
        the division build theirs so, and a frame decoded from bytes is
        wrapped only after :func:`~repro.graph.flat.graph_from_frame` has
        checked it.
        """
        graph = cls.__new__(cls)
        graph._flat = flat
        graph._key_memo = {}
        return graph

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: on a view, the
        # object-graph state not built yet.
        if name not in _OBJECT_STATE or self.__dict__.get("_flat") is None:
            raise AttributeError(name)
        self._materialise()
        return self.__dict__[name]

    def _materialise(self) -> None:
        """Build a view's object-graph state from its flat form (once)."""
        if "_vertices" not in self.__dict__:
            built = self._flat.to_graph()
            for name in _OBJECT_STATE:
                setattr(self, name, getattr(built, name))

    def _invalidate(self) -> None:
        """Drop memoised derived state; called by every structural mutator."""
        if self._flat is not None or self._key_memo:
            self._flat = None
            self._key_memo = {}

    def __getstate__(self):
        """Pickle the object graph without the memoised derived forms.

        The flat snapshot and key memo are cheap to rebuild and would only
        inflate a pickled graph; a view builds its object graph first.
        """
        self._materialise()
        state = dict(self.__dict__)
        state["_flat"] = None
        state["_key_memo"] = {}
        return state

    # --------------------------------------------------------------- vertices
    def add_vertex(self, vertex: int, data: Optional[VertexData] = None) -> None:
        """Add ``vertex`` (idempotent for existing vertices without new data)."""
        if vertex < 0:
            raise GraphError(f"vertex ids must be non-negative, got {vertex}")
        if vertex in self._vertices:
            if data is not None:
                self._vertices[vertex] = data
                self._invalidate()
            return
        self._invalidate()
        self._vertices[vertex] = data or VertexData()
        self._conflict_adj[vertex] = set()
        self._stitch_adj[vertex] = set()
        self._friend_adj[vertex] = set()

    def has_vertex(self, vertex: int) -> bool:
        """Return True if ``vertex`` is in the graph."""
        return vertex in self._vertices

    def vertex_data(self, vertex: int) -> VertexData:
        """Return the metadata attached to ``vertex``."""
        self._require(vertex)
        return self._vertices[vertex]

    def vertices(self) -> List[int]:
        """Return all vertex ids (sorted for determinism)."""
        if self._flat is not None:
            return self._flat.vertex_ids.tolist()
        return sorted(self._vertices)

    @property
    def num_vertices(self) -> int:
        if self._flat is not None:
            return self._flat.num_vertices
        return len(self._vertices)

    # ------------------------------------------------------------------ edges
    def add_conflict_edge(self, u: int, v: int) -> None:
        """Add a conflict edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._conflict_adj[u].add(v)
        self._conflict_adj[v].add(u)
        self._conflict_edges.add(_edge_key(u, v))
        self._invalidate()

    def add_stitch_edge(self, u: int, v: int) -> None:
        """Add a stitch edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._stitch_adj[u].add(v)
        self._stitch_adj[v].add(u)
        self._stitch_edges.add(_edge_key(u, v))
        self._invalidate()

    def add_friend_edge(self, u: int, v: int) -> None:
        """Add a color-friendly edge between distinct existing vertices."""
        self._check_pair(u, v)
        self._friend_adj[u].add(v)
        self._friend_adj[v].add(u)
        self._friend_edges.add(_edge_key(u, v))
        self._invalidate()

    def has_conflict_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._conflict_edges

    def has_stitch_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._stitch_edges

    def has_friend_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._friend_edges

    def conflict_edges(self) -> List[Tuple[int, int]]:
        """Return all conflict edges (sorted for determinism)."""
        return sorted(self._conflict_edges)

    def stitch_edges(self) -> List[Tuple[int, int]]:
        """Return all stitch edges (sorted for determinism)."""
        return sorted(self._stitch_edges)

    def friend_edges(self) -> List[Tuple[int, int]]:
        """Return all color-friendly edges (sorted for determinism)."""
        return sorted(self._friend_edges)

    @property
    def num_conflict_edges(self) -> int:
        if self._flat is not None:
            return self._flat.num_conflict_edges
        return len(self._conflict_edges)

    @property
    def num_stitch_edges(self) -> int:
        if self._flat is not None:
            return self._flat.num_stitch_edges
        return len(self._stitch_edges)

    @property
    def num_friend_edges(self) -> int:
        if self._flat is not None:
            return self._flat.num_friend_edges
        return len(self._friend_edges)

    # ------------------------------------------------------------- adjacency
    def conflict_neighbors(self, vertex: int) -> Set[int]:
        """Return the conflict neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._conflict_adj[vertex])

    def stitch_neighbors(self, vertex: int) -> Set[int]:
        """Return the stitch neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._stitch_adj[vertex])

    def friend_neighbors(self, vertex: int) -> Set[int]:
        """Return the color-friendly neighbours of ``vertex``."""
        self._require(vertex)
        return set(self._friend_adj[vertex])

    def neighbors(self, vertex: int) -> Set[int]:
        """Return the union of conflict and stitch neighbours."""
        self._require(vertex)
        return self._conflict_adj[vertex] | self._stitch_adj[vertex]

    def conflict_degree(self, vertex: int) -> int:
        """Number of conflict edges incident to ``vertex`` (d_conf in the paper)."""
        self._require(vertex)
        return len(self._conflict_adj[vertex])

    def stitch_degree(self, vertex: int) -> int:
        """Number of stitch edges incident to ``vertex`` (d_stit in the paper)."""
        self._require(vertex)
        return len(self._stitch_adj[vertex])

    # -------------------------------------------------------------- flat form
    def to_arrays(self):
        """Return the graph's canonical flat-array form (:class:`FlatGraph`).

        The snapshot is memoised and reused until the next structural
        mutation, so the hashing, wire and worker-dispatch layers each pulling
        the flat form pay for one flattening, not three; a view holds it from
        the start.  Callers must treat the returned object as immutable.
        """
        if self._flat is None:
            from repro.graph.flat import flatten_graph

            self._flat = flatten_graph(self)
        return self._flat

    @staticmethod
    def from_arrays(flat) -> "DecompositionGraph":
        """Rebuild a graph from its flat-array form, bit-identical to the
        original (vertex ids, per-vertex data and all three edge sets)."""
        return flat.to_graph()

    # --------------------------------------------------------------- builders
    @classmethod
    def from_parts(
        cls,
        vertex_data: Dict[int, VertexData],
        conflict_edges: Collection[Tuple[int, int]] = (),
        stitch_edges: Collection[Tuple[int, int]] = (),
        friend_edges: Collection[Tuple[int, int]] = (),
    ) -> "DecompositionGraph":
        """Build a graph in one pass from its vertex data and three edge lists.

        Every whole-graph build goes through here: :meth:`subgraph`,
        :meth:`from_edges` and :meth:`FlatGraph.to_graph
        <repro.graph.flat.FlatGraph.to_graph>`, which also builds a view's
        object graph.
        ``vertex_data`` becomes the graph's own vertex map (pass a fresh
        dict).  Edges are collections of ``(u, v)`` tuples in either
        orientation; an edge already ordered ``u < v`` is stored as the very
        tuple given, and repeats collapse.  Raises :class:`GraphError` for a
        negative vertex id, a self loop or an endpoint that is not a vertex;
        the checks run over each whole list, with no validating call per
        edge.
        """
        if vertex_data and min(vertex_data) < 0:
            raise GraphError(
                f"vertex ids must be non-negative, got {min(vertex_data)}"
            )
        graph = cls()
        graph._vertices = vertex_data
        for edges, adjacency_name, edges_name in (
            (conflict_edges, "_conflict_adj", "_conflict_edges"),
            (stitch_edges, "_stitch_adj", "_stitch_edges"),
            (friend_edges, "_friend_adj", "_friend_edges"),
        ):
            # Filled in the order given: callers pass sorted lists where they
            # have them, and walking the adjacency in vertex order is
            # markedly faster than in hash order.
            adjacency: Dict[int, Set[int]] = {v: set() for v in vertex_data}
            try:
                for u, v in edges:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
            except KeyError as exc:
                raise GraphError(f"unknown vertex {exc.args[0]}") from None
            setattr(graph, adjacency_name, adjacency)
            setattr(graph, edges_name, _edge_set(edges))
        return graph

    def subgraph(self, keep: Iterable[int]) -> "DecompositionGraph":
        """Return the induced subgraph on ``keep`` (original vertex ids kept).

        Walks the kept vertices' adjacency, so the cost follows the
        subgraph's size, not the parent graph's edge count.
        """
        keep_set = set(keep)
        missing = keep_set - self._vertices.keys()
        if missing:
            raise GraphError(f"subgraph on unknown vertices {sorted(missing)[:5]}")
        order = sorted(keep_set)

        def induced(adjacency: Dict[int, Set[int]]) -> List[Tuple[int, int]]:
            return [
                (u, v)
                for u in order
                for v in adjacency[u]
                if u < v and v in keep_set
            ]

        return DecompositionGraph.from_parts(
            {v: self._vertices[v] for v in order},
            induced(self._conflict_adj),
            induced(self._stitch_adj),
            induced(self._friend_adj),
        )

    @staticmethod
    def from_edges(
        conflict_edges: Iterable[Tuple[int, int]],
        stitch_edges: Iterable[Tuple[int, int]] = (),
        vertices: Iterable[int] = (),
    ) -> "DecompositionGraph":
        """Build a graph directly from edge lists (test / example helper).

        Edge endpoints are added as vertices after ``vertices``, in order.
        """
        conflict = [(u, v) for u, v in conflict_edges]
        stitch = [(u, v) for u, v in stitch_edges]
        ids = list(vertices)
        for edges in (conflict, stitch):
            ids.extend(endpoint for edge in edges for endpoint in edge)
        return DecompositionGraph.from_parts(
            {v: VertexData() for v in dict.fromkeys(ids)}, conflict, stitch
        )

    # ------------------------------------------------------------------ misc
    def _require(self, vertex: int) -> None:
        if vertex not in self._vertices:
            raise GraphError(f"unknown vertex {vertex}")

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self loop on vertex {u}")
        self._require(u)
        self._require(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecompositionGraph(|V|={self.num_vertices}, "
            f"|CE|={self.num_conflict_edges}, |SE|={self.num_stitch_edges})"
        )
