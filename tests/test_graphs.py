"""Graph model, instance files, enumeration, canonical forms."""
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwalk.graphs import (Graph, GraphError, InstanceParseError,
                           WalkInstance, _pair_bits, _relabelled_masks,
                           bipartition, canonical_form, complete_graph,
                           cycle_graph, enumerate_connected,
                           isomorphism_classes, odd_cycle_witness,
                           parse_instance, path_graph,
                           standard_instance, star_graph, vertex_pairs)
import grwalk.graphs as graphs_module
from grwalk.catalog import analyze, rank, standard_sweep
from grwalk.potential import VertexField
from grwalk.ratlin import RatMatrix, parse_rational, rat
from grwalk.stationary import ArcField


def test_graph_basics():
    g = Graph(4, [(2, 1), (2, 3), (3, 4)])
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.m == 3
    assert g.degree(2) == 2
    assert g.has_edge(3, 2) and not g.has_edge(1, 4)
    assert len(g.arcs) == 6
    assert g.arcs == tuple(sorted(g.arcs))
    assert g.distance(1, 4) == 3 and g.distance(2, 2) == 0


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])                 # self-loop
    with pytest.raises(GraphError):
        Graph(3, [(1, 2), (2, 1)])         # duplicate edge
    with pytest.raises(GraphError):
        Graph(3, [(1, 4)])                 # out of range
    with pytest.raises(GraphError):
        Graph(4, [(1, 2), (3, 4)])         # disconnected


def test_too_few_edges_fail_before_any_per_vertex_work():
    # Fewer than n - 1 edges cannot connect n vertices; a billion-vertex
    # graph is rejected without building its adjacency.
    with pytest.raises(GraphError, match="disconnected"):
        Graph(10 ** 9, [(1, 2)])
    with pytest.raises(InstanceParseError, match="disconnected"):
        parse_instance(f"n {10 ** 9}\ntail 1 1\n")


def test_factories():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(4).m == 3
    assert star_graph(4).degree(1) == 3


def test_bipartition():
    part = bipartition(cycle_graph(4))
    assert part is not None and 1 in part.X
    assert part.side(2) != part.side(1)
    assert bipartition(complete_graph(3)) is None


def test_oriented_partition_swaps_sides():
    part = bipartition(path_graph(3))
    flipped = part.oriented(2)
    assert 2 in flipped.X and 1 in flipped.Y


def test_odd_cycle_witness():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
    cycle = odd_cycle_witness(g)
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
        assert g.has_edge(a, b)
    assert odd_cycle_witness(cycle_graph(4)) is None


def test_traversal_matches_networkx_on_random_graphs():
    # Seeded random graphs with n = 7..14, a third of them on the pairs
    # across a random split (bipartite when connected), against networkx:
    # connectivity, every distance, bipartiteness and the odd cycle.
    rng = random.Random(28)
    kinds = Counter()
    for _ in range(300):
        n = rng.randint(7, 14)
        side = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        split = rng.random() < 1 / 3
        p = rng.uniform(0.15, 0.6)
        edges = [(u, v) for u, v in vertex_pairs(n)
                 if (not split or side[u] != side[v]) and rng.random() < p]
        ref = nx.Graph(edges)
        ref.add_nodes_from(range(1, n + 1))
        if not nx.is_connected(ref):
            with pytest.raises(GraphError, match="disconnected"):
                Graph(n, edges)
            kinds["disconnected"] += 1
            continue
        g = Graph(n, edges)
        for u, lengths in nx.shortest_path_length(ref):
            assert {v: g.distance(u, v) for v in lengths} == lengths
        part, cycle = bipartition(g), odd_cycle_witness(g)
        if nx.is_bipartite(ref):
            assert part is not None and cycle is None
            assert all(part.side(u) != part.side(v) for u, v in g.edges)
            kinds["bipartite"] += 1
        else:
            assert part is None
            assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
            assert all(g.has_edge(a, b)
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            kinds["odd"] += 1
    assert min(kinds[k] for k in ("disconnected", "bipartite", "odd")) >= 30


def test_distance_rejects_vertices_out_of_range():
    g = path_graph(4)
    for u, v in ((0, 1), (1, 0), (5, 1), (1, 5), (99, 99)):
        with pytest.raises(GraphError, match="out of range"):
            g.distance(u, v)


def test_enumerate_connected_counts():
    # Labelled connected graph counts (OEIS A001187): 1, 4, 38, 728, 26704.
    for n, count in [(2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)]:
        assert len(list(enumerate_connected(n))) == count


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_matches_the_validated_construction(n):
    # enumerate_connected must give, in ascending mask order, exactly the
    # graphs that Graph(n, edges) accepts on each mask.
    pairs = vertex_pairs(n)
    ref = []
    for mask in range(1, 1 << len(pairs)):
        try:
            ref.append(Graph(n, [p for i, p in enumerate(pairs)
                                 if mask >> i & 1]))
        except GraphError:
            pass
    got = enumerate_connected(n)
    assert len(got) == len(ref)
    for g, h in zip(got, ref):
        assert g == h and hash(g) == hash(h)
        assert g.edges == h.edges and g.arcs == h.arcs
        assert all(g.neighbors(v) == h.neighbors(v)
                   for v in range(1, n + 1))


def test_canonical_classes_n4():
    classes = {canonical_form(g) for g in enumerate_connected(4)}
    assert len(classes) == 6
    assert canonical_form(cycle_graph(4)) == canonical_form(
        Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4)]))


@given(st.integers(2, 5), st.randoms())
@settings(max_examples=25, deadline=None)
def test_canonical_form_is_permutation_invariant(n, rng):
    graphs = list(enumerate_connected(n))
    g = rng.choice(graphs)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabeled = Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
    assert canonical_form(g) == canonical_form(relabeled)


def test_orbit_ids_are_the_canonical_forms():
    # rank enters the canonical form of a class's first member for every
    # relabelling of it; that must be the canonical form of each later
    # member, and the relabellings must cover exactly the connected graphs.
    for n in range(2, 6):
        graphs = enumerate_connected(n)
        bits = _pair_bits(n)
        own = [sum(bits[u][v] for u, v in g.edges) for g in graphs]
        assert own == sorted(set(own))          # enumerate_connected's order
        class_of = {}
        for g, mask in zip(graphs, own):
            if mask not in class_of:
                class_of.update(dict.fromkeys(_relabelled_masks(g),
                                              canonical_form(g)))
            assert class_of[mask] == canonical_form(g)
        assert set(class_of) == set(own)


def test_isomorphism_classes_match_an_independent_walk():
    # Each class's first member in ascending-mask order, and its size, the
    # number of distinct masks under every vertex permutation.
    classes = 0
    for n, labelled in [(2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)]:
        pairs = vertex_pairs(n)
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(1, n + 1)))
        seen, want = set(), []
        for mask in range(1 << len(pairs)):
            if mask in seen:
                continue
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            try:
                g = Graph(n, edges)
            except GraphError:
                continue
            orbit = {sum(bit[tuple(sorted((p[u - 1], p[v - 1])))]
                         for u, v in edges) for p in perms}
            seen |= orbit
            want.append((mask, g.edges, len(orbit)))
        got = isomorphism_classes(n)
        assert [(g.edges, size) for g, size in got] == \
            [(edges, size) for _, edges, size in want]
        assert [canonical_form(g) for g, _ in got] == \
            [mask for mask, _, _ in want]
        assert sum(size for _, size in got) == labelled
        assert all(g.n == n for g, _ in got)
        classes += len(got)
    assert classes == 142


def _random_connected(rng, n):
    """A random spanning tree on 1..n plus up to n random extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)])))
             for i in range(1, n)}
    others = [p for p in vertex_pairs(n) if p not in edges]
    edges.update(rng.sample(others, rng.randint(0, n)))
    return Graph(n, edges)


def test_canonical_form_walks_the_relabellings_once(monkeypatch):
    walks = []
    real = graphs_module._relabelled_masks

    def relabelled(g):
        walks.append(g)
        return real(g)

    graphs_module._GraphMemo.cache_clear()
    monkeypatch.setattr(graphs_module, "_relabelled_masks", relabelled)
    g = cycle_graph(5)
    first = canonical_form(g)
    assert canonical_form(Graph(5, g.edges)) == first
    assert walks == [g]


def test_memoised_canonical_form_is_the_least_relabelled_mask():
    rng = random.Random(30)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    graphs += [_random_connected(rng, rng.randint(6, 8)) for _ in range(30)]
    assert {g.n for g in graphs[-30:]} == {6, 7, 8}
    graphs_module._GraphMemo.cache_clear()
    for g in graphs:
        assert canonical_form(g) == min(_relabelled_masks(g))


def test_canonical_form_memo_holds_no_orbit():
    # An 8-vertex orbit held as a set of masks would take megabytes.
    rng = random.Random(31)
    graphs = [_random_connected(rng, 8) for _ in range(4)]
    graphs_module._GraphMemo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for g in graphs:
            canonical_form(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graphs_module._GraphMemo.cache_info().currsize == 4
    assert held < 1_000_000


def test_canonical_form_rejects_large_graphs_before_the_memo():
    graphs_module._GraphMemo.cache_clear()
    with pytest.raises(GraphError, match=r"n <= 8$"):
        canonical_form(path_graph(9))
    assert graphs_module._GraphMemo.cache_info().currsize == 0


def test_walk_instance_validation():
    g = path_graph(3)
    with pytest.raises(GraphError):
        WalkInstance(g, (1, 1), (rat(1), rat(0)), -1)    # repeated boundary
    with pytest.raises(GraphError):
        WalkInstance(g, (1, 3), (rat(1),), -1)           # inflow length
    with pytest.raises(GraphError):
        WalkInstance(g, (1, 3), (rat(1), rat(0)), 2)     # bad phase
    inst = standard_instance(g, 1, 3)
    assert inst.r == 2
    assert inst.tilde_degree(1) == 2 and inst.tilde_degree(2) == 2
    assert inst.inflow_at(1) == rat(1) and inst.inflow_at(2) == rat(0)


_P3 = path_graph(3)


@pytest.mark.parametrize("make, error, fragment", [
    (lambda: Graph(1, []), GraphError, "at least 2 vertices"),
    (lambda: cycle_graph(2), GraphError, "at least 3 vertices"),
    (lambda: bipartition(_P3).side(4), KeyError, "4"),
    (lambda: enumerate_connected(7), GraphError, "2 <= n <= 6, got 7"),
    (lambda: canonical_form(path_graph(9)), GraphError, "n <= 8"),
    (lambda: WalkInstance(_P3, (), (), -1), GraphError,
     "boundary size must be between 1 and n"),
    (lambda: WalkInstance(_P3, (1, 4), (1, 0), -1), GraphError,
     "boundary vertex 4 out of range"),
    (lambda: parse_instance("n 2\ne 1 2\ntail 1 1\nz -1\nz +1\n"),
     InstanceParseError, "line 5: duplicate 'z' directive"),
    (lambda: parse_rational("1/0"), ValueError, "zero denominator: '1/0'"),
    (lambda: RatMatrix([[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: RatMatrix.identity(2) * RatMatrix.identity(3), ValueError,
     "shape mismatch"),
    (lambda: RatMatrix.identity(2).mul_vec([1]), ValueError,
     "shape mismatch"),
    (lambda: RatMatrix([[1, 2]]).det(), ValueError, "non-square"),
    (lambda: RatMatrix.identity(2).solve_many([[1]]), ValueError,
     "right-hand-side length mismatch"),
    (lambda: RatMatrix([[1, 2]]).solve_many([[1]]), ValueError,
     "solve needs a square matrix"),
    (lambda: VertexField(_P3, {1: rat(0), 2: rat(0)}), ValueError,
     "must cover every internal vertex"),
    (lambda: ArcField(_P3, {(1, 2): rat(0)}), ValueError,
     "must cover exactly the internal arcs"),
])
def test_invalid_input_raises(make, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        make()


def test_parse_instance_roundtrip():
    text = """
    # a path with tails at the ends
    n 4
    e 1 2
    e 2 3
    e 3 4
    tail 1 3/2
    tail 4 -1
    z +1
    """
    inst = parse_instance(text)
    assert inst.graph.edges == ((1, 2), (2, 3), (3, 4))
    assert inst.boundary == (1, 4)
    assert inst.inflow == (rat(3, 2), rat(-1))
    assert inst.phase == 1


def test_parse_defaults_z_minus_one():
    inst = parse_instance("n 2\ne 1 2\ntail 1 1\ntail 2 0\n")
    assert inst.phase == -1


@pytest.mark.parametrize("text,fragment", [
    ("e 1 2\nn 2\ntail 1 1", "before"),
    ("n 2\nn 2\ne 1 2\ntail 1 1", "duplicate"),
    ("n 2\ne 1 5\ntail 1 1", "range"),
    ("n 2\ne 1 2\ntail 1 0.5", "rational"),
    ("n 2\ne 1 2\ntail 1 1\ntail 1 0", "multiple tails"),
    ("n 2\ne 1 2\nfoo 1", "unknown"),
    ("n 2\ne 1 2", "tail"),
    ("e 1 2", "n"),
    ("n 2\ne 1 2\ntail 1 1\nz 3", "phase"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert fragment.lower() in str(err.value).lower()


_OTHER = st.one_of(
    st.sampled_from(["n", "e", "tail", "z", "+1", "-1", "1/0", "0/0", "3/-4",
                     "-2/5", "1.5", "\u0663", "\uff12", "\u00b2",
                     "12345678901234567890", "-99999999999999999999"]),
    st.integers(-3, 8).map(str),
    st.fractions(-9, 9, max_denominator=9).map(str))
# Small vertex ids come often, so that lines often parse and the later
# checks, up to the graph's own, are reached.
_TOKENS = st.integers(1, 4).map(str) | _OTHER
# One line: a directive with its own number of arguments, or any number
# (an unknown directive "f" included), then a comment.
_LINES = st.tuples(
    st.one_of(st.tuples(st.just("e"), st.lists(_TOKENS, min_size=2, max_size=2)),
              st.tuples(st.just("tail"), st.tuples(_TOKENS, _OTHER)),
              st.tuples(st.just("z"),
                        st.tuples(st.sampled_from(["+1", "-1", "1"]) | _TOKENS)),
              st.tuples(st.sampled_from(["n", "e", "tail", "f"]),
                        st.lists(_TOKENS, max_size=3))),
    st.sampled_from(["", " # note", "#", "\t#e 1 2"]))


def _parses_or_raises_graph_error(text):
    try:
        parse_instance(text)
    except GraphError:
        pass


@given(st.sampled_from([None, "1", "3", "4", "4", "\u0663", "1/2",
                        "12345678901234567890"]),
       st.lists(_LINES, max_size=6), st.sampled_from([" ", "\t", "  "]))
@settings(max_examples=400, deadline=None)
def test_parse_instance_token_soup_raises_only_graph_errors(n, lines, space):
    text = [] if n is None else [f"n{space}{n}"]
    text += [space.join([directive, *args]) + comment
             for (directive, args), comment in lines]
    _parses_or_raises_graph_error("\n".join(text))


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_instance_arbitrary_text_raises_only_graph_errors(text):
    _parses_or_raises_graph_error(text)


def test_parse_dense_document_is_linear():
    # K120 has 7140 'e' lines; a parser that rescans the edges read so far
    # for each new line takes many seconds here.
    n = 120
    lines = [f"n {n}"] + [f"e {v} {u}" for u, v in vertex_pairs(n)] + \
        ["tail 1 1", f"tail {n} 0"]
    start = time.perf_counter()
    inst = parse_instance("\n".join(lines))
    assert time.perf_counter() - start < 5
    assert inst.graph.m == n * (n - 1) // 2
    # Edge {1, 2}, read as "e 2 1" on line 2, again on line k.
    k = 2 + 2 * n
    lines.insert(k - 1, "e 1 2")
    with pytest.raises(InstanceParseError,
                       match=rf"^line {k}: duplicate edge \(1, 2\)$") as err:
        parse_instance("\n".join(lines))
    assert err.value.line == k


@pytest.fixture
def counted_memo_work(monkeypatch):
    """A cleared memo, and the graphs coloured and the phases z of every
    L_z built from then on."""
    coloured, built = [], []
    real_color, real_l_z = graphs_module._two_color, graphs_module._l_z

    def color(g):
        coloured.append(g)
        return real_color(g)

    def l_z(g, z):
        built.append(z)
        return real_l_z(g, z)

    graphs_module._GraphMemo.cache_clear()
    monkeypatch.setattr(graphs_module, "_two_color", color)
    monkeypatch.setattr(graphs_module, "_l_z", l_z)
    return coloured, built


@pytest.mark.parametrize("inst, phases", [
    (standard_instance(complete_graph(4), 1, 4, -1), [-1, 1]),
    (standard_instance(cycle_graph(4), 1, 4, -1), [-1, 1]),
    (WalkInstance(complete_graph(4), (1, 2, 3), (rat(1), rat(1, 2), rat(-2)),
                  1), [1])], ids=["K4", "C4", "K4-three-tails-z+1"])
def test_analyze_colours_once_and_builds_each_l_z_once(counted_memo_work,
                                                       inst, phases):
    # analyze reads the colouring in the partition, the odd-cycle witness,
    # the scattering prediction, the potential route, the audit and the
    # closed form; the factor counts and the potential route share L_z.
    coloured, built = counted_memo_work
    assert analyze(inst).ok
    assert coloured == [inst.graph]
    assert sorted(built) == phases


def test_standard_sweep_colours_each_graph_once(counted_memo_work):
    coloured, _ = counted_memo_work
    for _ in standard_sweep(4):
        pass
    assert coloured == enumerate_connected(4)


def test_colouring_is_read_only():
    color, parent, order, odd_edge = \
        graphs_module._GraphMemo(cycle_graph(5)).coloring
    with pytest.raises(TypeError):
        color[1] = 1
    with pytest.raises(TypeError):
        parent[2] = None
    assert isinstance(order, tuple) and odd_edge is not None


def test_memo_stays_bounded():
    memo = graphs_module._GraphMemo
    rank(5, 1)
    assert memo.cache_info().maxsize == 32
    assert memo.cache_info().currsize <= 32
    memo.cache_clear()
    for g in enumerate_connected(5)[:100]:
        analyze(standard_instance(g, 1, 5))
    info = memo.cache_info()
    assert info.maxsize == 32 and info.currsize == 32
    assert info.misses == 100
