"""Factor counts: enumeration vs determinant, closed-form energy."""
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grwalk.factors as factors
import grwalk.graphs as graphs_module
from grwalk.factors import (FactorMismatchError, closed_form_comfort,
                            cycle_incidence_check, factor_counts,
                            odd_unicyclic_sums, spanning_tree_count,
                            two_forest_count)
from grwalk.graphs import (Graph, bipartition, complete_graph, cycle_graph,
                           enumerate_connected, path_graph, standard_instance,
                           star_graph, vertex_pairs)
from grwalk.potential import (bipartite_route, laplacian,
                              nonbipartite_route, signless_laplacian)
from grwalk.ratlin import rat
from grwalk.stationary import stationary_state


def _is_odd_unicyclic(vertices, edges):
    """Connected component test: edges = vertices and the unique cycle,
    exposed by repeatedly stripping degree-1 vertices, has odd length."""
    if len(edges) != len(vertices):
        return False
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    queue = [v for v in vertices if len(adj[v]) == 1]
    alive = set(vertices)
    while queue:
        v = queue.pop()
        if v not in alive or len(adj[v]) != 1:
            continue
        alive.discard(v)
        (w,) = adj[v]
        adj[w].discard(v)
        adj[v].clear()
        if len(adj[w]) == 1:
            queue.append(w)
    return len(alive) % 2 == 1


def _components(n, edges):
    """(vertex lists, edge counts) of the components of ({1..n}, edges),
    labelled by depth-first search."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = {}
    comps = []
    for root in range(1, n + 1):
        if root in label:
            continue
        label[root] = len(comps)
        comps.append([root])
        stack = [root]
        while stack:
            for y in adj[stack.pop()]:
                if y not in label:
                    label[y] = label[root]
                    comps[-1].append(y)
                    stack.append(y)
    counts = [0] * len(comps)
    for u, _ in edges:
        counts[label[u]] += 1
    return comps, counts


def _reference_enumeration(g):
    """The unpruned oracle: classify every one of the 2^m edge subsets
    from scratch.  Same return shape as graphs_module._enumerate_factors."""
    n, edges = g.n, g.edges
    m = len(edges)
    trees = 0
    forests = {}
    iota1 = 0
    hist1 = {}
    iota2 = {v: 0 for v in range(1, n + 1)}
    hist2 = {v: {} for v in range(1, n + 1)}
    for mask in range(1 << m):
        k = mask.bit_count()
        if k < n - 2 or k > n:
            continue
        subset = [edges[i] for i in range(m) if mask >> i & 1]
        comps, edge_count = _components(n, subset)
        omega = len(comps)
        if k == n - 2:
            # n-2 edges in exactly two components forces two trees.
            if omega == 2:
                (c1, c2) = comps
                for u in c1:
                    for v in c2:
                        key = (u, v) if u < v else (v, u)
                        forests[key] = forests.get(key, 0) + 1
        elif k == n - 1:
            if omega == 1:
                trees += 1
                for v in range(1, n + 1):
                    iota2[v] += 1
                    hist2[v][1] = hist2[v].get(1, 0) + 1
                continue
            # With n-1 edges, an all-(tree or odd-unicyclic) factor has
            # exactly one tree component; the rest must be odd-unicyclic.
            tree_comp = None
            good = True
            for verts, count in zip(comps, edge_count):
                if count == len(verts) - 1:
                    if tree_comp is not None:
                        good = False
                        break
                    tree_comp = verts
                elif not _is_odd_unicyclic(verts, [e for e in subset
                                                  if e[0] in set(verts)]):
                    good = False
                    break
            if good and tree_comp is not None:
                weight = 4 ** (omega - 1)
                for v in tree_comp:
                    iota2[v] += weight
                    hist2[v][omega] = hist2[v].get(omega, 0) + 1
        else:
            if all(_is_odd_unicyclic(verts,
                                     [e for e in subset if e[0] in set(verts)])
                   for verts in comps):
                iota1 += 4 ** omega
                hist1[omega] = hist1.get(omega, 0) + 1
    return trees, forests, (iota1, hist1), {v: (iota2[v], hist2[v])
                                            for v in range(1, n + 1)}


def _reference_closed_form(g, u1, un, z):
    """closed_form_comfort without the per-graph memo: a fresh Laplacian
    or signless-Laplacian minor for every count."""
    if z == -1 and bipartition(g) is None:
        iota1 = int(signless_laplacian(g).det())
        iota2 = int(signless_laplacian(g).minor([u1 - 1], [u1 - 1]).det())
        return rat(iota2, iota1)
    chi1 = int(laplacian(g).minor([g.n - 1], [g.n - 1]).det())
    chi2 = int(laplacian(g).minor([u1 - 1, un - 1], [u1 - 1, un - 1]).det())
    return (rat(chi2, chi1) + rat(g.m)) / rat(4)


def _histograms_ascend(result):
    hists = [result[2][1]] + [hist for _, hist in result[3].values()]
    return all(list(h) == sorted(h) for h in hists)


def test_spanning_trees():
    assert spanning_tree_count(cycle_graph(4)) == 4
    assert spanning_tree_count(complete_graph(4)) == 16
    for tree in (path_graph(5), star_graph(5)):
        assert spanning_tree_count(tree) == 1
    # Cayley's formula on K5.
    assert spanning_tree_count(complete_graph(5)) == 125


def test_two_forests():
    assert two_forest_count(cycle_graph(4), 1, 4) == 3
    assert two_forest_count(cycle_graph(4), 1, 3) == 4
    assert two_forest_count(path_graph(4), 1, 4) == 3
    assert two_forest_count(Graph(2, [(1, 2)]), 1, 2) == 1
    assert two_forest_count(complete_graph(4), 1, 4) == 8
    with pytest.raises(ValueError):
        two_forest_count(cycle_graph(4), 2, 2)


def test_odd_unicyclic_sums():
    assert odd_unicyclic_sums(complete_graph(4), 1) == (48, 20)
    for u in range(2, 5):
        assert odd_unicyclic_sums(complete_graph(4), u) == (48, 20)
    paw = Graph(4, [(1, 2), (2, 3), (3, 4), (2, 4)])
    iota1, iota2 = odd_unicyclic_sums(paw, 1)
    assert iota1 == 4 and iota2 == 7


def test_bipartite_graphs_have_no_odd_factors():
    for g in (cycle_graph(4), cycle_graph(6), path_graph(5), star_graph(5)):
        assert odd_unicyclic_sums(g, 1)[0] == 0


def test_factor_counts_k4():
    fc = factor_counts(complete_graph(4), 1, 4)
    assert (fc.chi1, fc.chi2, fc.iota1, fc.iota2) == (16, 8, 48, 20)
    assert fc.edge_count == 6
    # Twelve single-component odd-unicyclic factors (triangle + pendant),
    # each weighted 4; sixteen spanning trees plus one isolated-u1 +
    # triangle factor.
    assert fc.omega_histogram["odd_unicyclic"] == {1: 12}
    assert fc.omega_histogram["tree_plus_odd_unicyclic"] == {1: 16, 2: 1}


def test_iota2_at_least_chi1():
    for g in enumerate_connected(4):
        chi1 = spanning_tree_count(g)
        for u in range(1, 5):
            assert odd_unicyclic_sums(g, u)[1] >= chi1


def test_closed_form_comfort():
    assert closed_form_comfort(complete_graph(4), 1, 4) == rat(5, 12)
    assert closed_form_comfort(cycle_graph(4), 1, 4) == rat(19, 16)
    assert closed_form_comfort(complete_graph(4), 1, 4, z=1) == rat(13, 8)
    with pytest.raises(ValueError):
        closed_form_comfort(complete_graph(4), 1, 4, z=2)


@given(st.integers(3, 8), st.data())
@settings(max_examples=30, deadline=None)
def test_tree_formula(n, data):
    # Any tree: energy (dist(u1, un) + n - 1)/4 via the closed form.
    import networkx as nx
    trees = list(nx.nonisomorphic_trees(n))
    t = data.draw(st.sampled_from(trees))
    g = Graph(n, [(u + 1, v + 1) for u, v in t.edges()])
    u1 = data.draw(st.integers(1, n))
    un = data.draw(st.integers(1, n).filter(lambda v: v != u1))
    want = (rat(g.distance(u1, un)) + rat(n - 1)) / rat(4)
    assert closed_form_comfort(g, u1, un) == want


def test_cycle_incidence_check():
    for length in (3, 5, 7, 9):
        assert abs(cycle_incidence_check(length)) == rat(2)
    for length in (4, 6, 8):
        assert cycle_incidence_check(length) == rat(0)
    with pytest.raises(ValueError):
        cycle_incidence_check(2)


def test_methods_agree_n4():
    for g in enumerate_connected(4):
        assert spanning_tree_count(g, "enum") == spanning_tree_count(g, "det")
        for u in range(1, 5):
            assert odd_unicyclic_sums(g, u, "enum") == \
                odd_unicyclic_sums(g, u, "det")
            for v in range(u + 1, 5):
                assert two_forest_count(g, u, v, "enum") == \
                    two_forest_count(g, u, v, "det")


def test_mutated_determinant_is_detected(monkeypatch):
    # A sign error injected into the signless Laplacian must trip the
    # enumeration/determinant cross-check.
    from grwalk.potential import laplacian as real_laplacian

    monkeypatch.setattr(graphs_module, "signless_laplacian", real_laplacian)
    # A fresh memo per call: determinants memoised before the patch must
    # not hide it, nor may the corrupted ones outlive this test.
    monkeypatch.setattr(factors, "_GraphMemo", graphs_module._GraphMemo.__wrapped__)
    with pytest.raises(FactorMismatchError):
        odd_unicyclic_sums(complete_graph(4), 1, method="both")


def test_search_equals_reference_on_small_catalog():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            got = graphs_module._enumerate_factors(g)
            assert got == _reference_enumeration(g), g.edges
            assert _histograms_ascend(got)


@st.composite
def connected_graphs(draw, n_max=7, m_max=12):
    """A random spanning tree plus extra edges, at most m_max in all."""
    n = draw(st.integers(2, n_max))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [p for p in vertex_pairs(n) if p not in edges]
    extra = draw(st.lists(st.sampled_from(others), unique=True,
                          max_size=min(len(others), m_max - (n - 1)))
                 if others else st.just([]))
    return Graph(n, sorted(edges | set(extra)))


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_search_equals_reference_on_random_graphs(g):
    got = graphs_module._enumerate_factors(g)
    assert got == _reference_enumeration(g)
    assert _histograms_ascend(got)


def test_n2_empty_subset_is_the_only_two_forest():
    g = Graph(2, [(1, 2)])
    assert graphs_module._enumerate_factors(g) == \
        (1, {(1, 2): 1}, (0, {}), {1: (1, {1: 1}), 2: (1, {1: 1})})


def test_k7_counts_by_both_methods():
    fc = factor_counts(complete_graph(7), 1, 7, "both")
    assert fc.chi1 == 7 ** 5                      # Cayley's formula
    assert fc.chi2 == 2 * 7 ** 4                  # det(nI - J), (n-2)x(n-2)
    assert fc.iota1 == sum(4 ** w * c for w, c in
                           fc.omega_histogram["odd_unicyclic"].items())


def test_det_mode_never_enumerates(monkeypatch):
    def forbidden(g):
        raise AssertionError("det mode must not enumerate")

    # An enumeration memoised by an earlier test would never reach the
    # patched function.
    graphs_module._GraphMemo.cache_clear()
    monkeypatch.setattr(graphs_module, "_enumerate_factors", forbidden)
    fc = factor_counts(complete_graph(5), 1, 5, "det")
    assert (fc.chi1, fc.omega_histogram) == (125, None)
    assert closed_form_comfort(complete_graph(5), 1, 5) > 0
    assert closed_form_comfort(cycle_graph(4), 1, 3) == rat(5, 4)


@pytest.mark.parametrize("method", ["det", "enum", "both"])
def test_vertices_outside_the_graph_rejected(method):
    k5 = complete_graph(5)
    with pytest.raises(ValueError, match="outside"):
        two_forest_count(k5, 1, 7, method)
    with pytest.raises(ValueError, match="outside"):
        odd_unicyclic_sums(k5, 0, method)
    with pytest.raises(ValueError, match="outside"):
        factor_counts(k5, 6, 1, method)


@pytest.mark.parametrize("u1, un, z", [(1, 7, 1), (1, 7, -1), (0, 2, -1),
                                        (0, 2, 1)])
def test_closed_form_rejects_vertices_outside_the_graph(u1, un, z):
    with pytest.raises(ValueError, match="outside"):
        closed_form_comfort(complete_graph(5), u1, un, z)


def _forbid_counting(monkeypatch):
    def forbidden(g):
        raise AssertionError("counted before the arguments were checked")

    monkeypatch.setattr(graphs_module, "_enumerate_factors", forbidden)
    monkeypatch.setattr(factors, "_GraphMemo", forbidden)


def test_bad_method_rejected(monkeypatch):
    # Every bad argument is rejected before any enumeration or determinant.
    _forbid_counting(monkeypatch)
    k5 = complete_graph(5)
    for call in (lambda: spanning_tree_count(k5, "nope"),
                 lambda: two_forest_count(k5, 1, 5, "nope"),
                 lambda: odd_unicyclic_sums(k5, 1, "nope"),
                 lambda: factor_counts(k5, 1, 5, "nope")):
        with pytest.raises(ValueError, match="method must be one of"):
            call()
    with pytest.raises(ValueError, match="two distinct"):
        factor_counts(k5, 2, 2)
    with pytest.raises(ValueError, match="outside"):
        factor_counts(k5, 1, 9)


@pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4)])
@pytest.mark.parametrize("z", [-1, 1])
def test_closed_form_rejects_equal_tails_before_any_count(monkeypatch, g, z):
    # C4 takes the chi branch at both phases, K4 the iota branch at z = -1.
    _forbid_counting(monkeypatch)
    with pytest.raises(ValueError, match="two distinct"):
        closed_form_comfort(g, 2, 2, z)


def test_memo_equals_reference_closed_form():
    # Every ordered pair of all 771 connected graphs with n = 2..5 at both
    # phases, in two passes that each take every other pair of each graph.
    # A graph's second visit comes after all the other graphs, long after
    # the 32-entry memo evicted it; within a visit both matrices are
    # used, the Laplacian first in one pass and the signless one first in
    # the other.
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    graphs_module._GraphMemo.cache_clear()
    for first, phases in enumerate([(1, -1), (-1, 1)]):
        for g in graphs:
            pairs = [(u1, un) for u1 in range(1, g.n + 1)
                     for un in range(1, g.n + 1) if u1 != un]
            for u1, un in pairs[first::2]:
                for z in phases:
                    assert closed_form_comfort(g, u1, un, z) == \
                        _reference_closed_form(g, u1, un, z), \
                        (g.edges, u1, un, z)
    assert graphs_module._GraphMemo.cache_info().misses == 2 * len(graphs)


def test_memo_ignores_mutated_returned_matrices():
    g = complete_graph(5)
    graphs_module._GraphMemo.cache_clear()
    assert spanning_tree_count(g, "det") == 125
    assert odd_unicyclic_sums(g, 1, "det")[0] == \
        odd_unicyclic_sums(g, 1, "enum")[0]
    for build in (laplacian, signless_laplacian):
        for row in build(g).data:
            row[:] = [rat(7)] * len(row)
    # Minors taken after the mutation come from the memo's own matrices.
    assert spanning_tree_count(g, "det") == 125
    assert two_forest_count(g, 5, 2, "both") == 2 * 5 ** 2
    assert odd_unicyclic_sums(g, 3, "det") == odd_unicyclic_sums(g, 3, "enum")
    # So do the potential routes: a grounded minor and a full copy handed
    # out by the memo are fresh too.
    memo = graphs_module._GraphMemo(g)
    for z, dropped in ((1, (5,)), (-1, ())):
        for row in memo.minor(z, dropped).data:
            row[:] = [rat(7)] * len(row)
    for route, z in ((bipartite_route, 1), (nonbipartite_route, -1)):
        inst = standard_instance(g, 1, 5, z)
        assert route(inst)[1] == stationary_state(inst)


def test_memo_stays_bounded_over_a_rank_sweep():
    from grwalk.catalog import rank

    rank(5, 1)
    info = graphs_module._GraphMemo.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32


@pytest.mark.parametrize("g", [complete_graph(5), cycle_graph(4),
                               path_graph(4)], ids=["K5", "C4", "P4"])
def test_one_enumeration_per_graph(monkeypatch, g):
    # factor_counts in "both" mode and every per-count oracle of the graph
    # share one enumeration through the memo.
    calls = []

    def counted(graph):
        calls.append(graph)
        return real(graph)

    real = graphs_module._enumerate_factors
    graphs_module._GraphMemo.cache_clear()
    monkeypatch.setattr(graphs_module, "_enumerate_factors", counted)
    factor_counts(g, 1, g.n, "both")
    for u, v in vertex_pairs(g.n):
        assert two_forest_count(g, u, v, "both") == \
            two_forest_count(g, v, u, "enum")
    for u in range(1, g.n + 1):
        odd_unicyclic_sums(g, u, "both")
    assert spanning_tree_count(g, "enum") == spanning_tree_count(g, "det")
    assert calls == [g]
    assert graphs_module._GraphMemo.cache_info().maxsize == 32


def _grid_graph(rows, cols):
    edges = [(v, v + 1) for v in range(1, rows * cols + 1) if v % cols]
    edges += [(v, v + cols) for v in range(1, (rows - 1) * cols + 1)]
    return Graph(rows * cols, edges)


@pytest.mark.parametrize("g", [complete_graph(5), _grid_graph(3, 4)],
                         ids=["K5", "grid3x4"])
def test_enumeration_leaves_no_reference_cycle(g):
    # The search's recursive closure refers to itself through its cell;
    # the cell is cleared when the search ends, so an uncached call leaves
    # nothing for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        graphs_module._enumerate_factors(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
