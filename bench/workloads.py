"""The benchmark's four workloads.

Each workload draws its inputs from a seed when it is constructed (that is
the set-up the benchmark times), yields its items in rounds, runs one item
with one call path into the public ``grwalk`` API, and checks an item's
output afterwards, outside the item's timed span.

``layers`` names the traced spans that must record calls on the workload;
it is the layer-to-workload mapping the per-layer metrics are read against.
``trace_rounds`` is the fixed number of rounds a traced run makes, so that
its call counts repeat exactly.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from itertools import combinations

import numpy as np

from grwalk import (Graph, TruncatedState, WalkInstance, analyze,
                    closed_form_comfort, comfortability_direct,
                    complete_graph, enumerate_connected, internal_operator,
                    outflow, predicted_scattering, rank, rat, scattering,
                    simulate, source_vector, standard_instance,
                    stationary_state, step, unit_stationary_states)
from grwalk.graphs import vertex_pairs

# OEIS A001187: labelled connected graphs on n vertices.
CONNECTED_LABELLED = {2: 1, 3: 4, 4: 38, 5: 728}

# The ten n = 4, z = -1 value classes of the paper's table, in table order.
TABLE_N4_VALUES = ["5/12", "3/4", "1/2", "19/16", "5/4", "7/4", "3/4", "1",
                   "5/4", "3/2"]
TABLE_N4_LABELS = list("RRRTTRRTTT")


def grid_graph(rows, cols):
    """The rows x cols grid, vertices numbered row by row from 1."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def petersen_graph():
    """Outer 5-cycle 1..5, inner pentagram 6..10, spokes i -- i+5."""
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def grid44_three_tails():
    """The 4x4 grid with three tails and rational inflow: no factor routes,
    and a 48x48 singular exact system."""
    return WalkInstance(grid_graph(4, 4), (1, 16, 4),
                        (rat(1, 2), rat(-1, 3), rat(2)), -1)


def _digest(value):
    return hashlib.sha1(repr(value).encode()).hexdigest()


def _is_orthogonal(sigma):
    r = sigma.rows
    cols = list(zip(*sigma.data))
    return all(sum(a * b for a, b in zip(cols[i], cols[j])) == (i == j)
               for i in range(r) for j in range(r))


def sweep_pair(g, pair, z):
    """One unordered boundary pair, through the calls ``standard_sweep``
    makes per pair.

    Returns the scattering report and, per direction (u->v, then v->u),
    the stationary state, its comfort and its outflow in that direction's
    boundary order.
    """
    u, v = pair
    inst = WalkInstance(g, (u, v), (rat(1), rat(0)), z)
    states = unit_stationary_states(inst)
    report = scattering(inst, unit_states=states)
    directions = []
    for k in range(2):
        psi = states[k]
        unit = (rat(1), rat(0)) if k == 0 else (rat(0), rat(1))
        beta = tuple(outflow(inst, psi, inflow=unit))
        if k == 1:
            beta = (beta[1], beta[0])
        directions.append((psi, comfortability_direct(psi), beta))
    return report, directions


class CatalogSweep:
    """Every unordered boundary pair of a seeded shuffle of the labelled
    connected 5-vertex graphs, at both phases; one item is one pair."""

    name = "catalog-sweep"
    trace_rounds = 40
    layers = ("graphs.enumerate_connected", "graphs.bipartition",
              "stationary.internal_operator", "stationary.source_vector",
              "stationary.unit_stationary_states", "stationary.scattering",
              "stationary.outflow", "ratlin.solve_min_norm_many",
              "ratlin.nullspace", "ratlin.solve_many", "ratlin.matmul",
              "ratlin.construct")

    def __init__(self, seed):
        # Shuffle within each edge count, then interleave the edge counts
        # evenly, so that any prefix a run reaches has the catalog's mix of
        # system sizes and only the graphs themselves depend on the seed.
        rng = random.Random(seed)
        by_edges = {}
        for g in enumerate_connected(5):
            by_edges.setdefault(g.m, []).append(g)
        keyed = []
        for graphs in by_edges.values():
            rng.shuffle(graphs)
            keyed += [((i + 0.5) / len(graphs), g.m, g)
                      for i, g in enumerate(graphs)]
        self.graphs = [g for _, _, g in sorted(keyed, key=lambda t: t[:2])]

    def rounds(self):
        """One round per graph: both phases, every unordered pair."""
        for g in self.graphs:
            yield [(g, pair, z) for z in (-1, 1)
                   for pair in combinations(range(1, 6), 2)]

    def run(self, item):
        return sweep_pair(*item)

    def check(self, item, out):
        g, (u, v), z = item
        report, directions = out
        ok = (directions[0][1] == closed_form_comfort(g, u, v, z)
              and directions[1][1] == closed_form_comfort(g, v, u, z)
              and _is_orthogonal(report.sigma))
        if z == -1:
            inst = WalkInstance(g, (u, v), (rat(1), rat(0)), z)
            ok = ok and report.sigma_sorted == predicted_scattering(inst)
        return ok

    def digest(self, out):
        report, directions = out
        return _digest((report.sigma.data, report.beta, report.classification,
                        [(psi.vector(), c, b) for psi, c, b in directions]))


class RankTable:
    """``rank(n, z)`` on the whole catalog for n in {4, 5} and both phases;
    one item is one call.  The seed is unused: the input is the catalog."""

    name = "rank-table"
    trace_rounds = 1
    layers = ("graphs.enumerate_connected", "graphs.bipartition",
              "graphs.canonical_form", "ratlin.det", "ratlin.construct",
              "potential.laplacian", "potential.signless_laplacian",
              "factors.spanning_tree_count", "factors.two_forest_count",
              "factors.odd_unicyclic_sums", "factors.closed_form_comfort",
              "catalog.rank")
    CALLS = [(4, -1), (4, 1), (5, -1), (5, 1)]

    def __init__(self, seed):
        pass

    def rounds(self):
        while True:
            yield list(self.CALLS)

    def run(self, item):
        return rank(*item)

    def check(self, item, out):
        n, z = item
        ok = (sum(row.members for row in out.rows) == out.configurations
              == CONNECTED_LABELLED[n] * n * (n - 1))
        if item == (4, -1):
            ok = ok and [str(row.comfort) for row in out.rows] == \
                TABLE_N4_VALUES and [row.label for row in out.rows] == \
                TABLE_N4_LABELS
        return ok

    def digest(self, out):
        rows = [(r.edge_count, r.bipartite, r.comfort, r.label,
                 sorted(r.class_ids), r.members, sorted(r.distances))
                for r in out.rows]
        maxima = [(m.class_id, m.edge_count, m.comfort, m.argmax_pair)
                  for m in out.class_maxima]
        return _digest((rows, out.tie_groups, maxima, out.configurations))

    work_unit = "configurations"

    @staticmethod
    def work(out):
        return out.configurations


def _random_connected(rng, n, m, taken):
    """A labelled connected graph on n vertices with m edges that is not
    in ``taken``: a random spanning tree plus random extra edges."""
    while True:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            u, w = order[i], order[rng.randrange(i)]
            edges.add((min(u, w), max(u, w)))
        others = [p for p in vertex_pairs(n) if p not in edges]
        edges.update(rng.sample(others, m - (n - 1)))
        g = Graph(n, sorted(edges))
        if g not in taken:
            taken.add(g)
            return g


class AnalyzeLarge:
    """``analyze()`` on named larger instances, then on a seeded draw of
    distinct connected 6-8 vertex graphs; one item is one instance.

    No graph appears twice in a run, so the factor-enumeration cache is
    always cold, as it is for a user analyzing one instance.
    """

    name = "analyze-large"
    trace_rounds = 5 + 24
    layers = ("graphs.bipartition", "stationary.internal_operator",
              "stationary.source_vector", "stationary.unit_stationary_states",
              "stationary.stationary_state", "stationary.scattering",
              "stationary.outflow", "ratlin.solve_min_norm_many",
              "ratlin.nullspace", "ratlin.solve_many", "ratlin.solve",
              "ratlin.det", "ratlin.matmul", "ratlin.construct",
              "potential.laplacian", "potential.signless_laplacian",
              "potential.bipartite_route", "potential.nonbipartite_route",
              "potential.kirchhoff_audit", "factors.factor_counts",
              "factors.spanning_tree_count", "factors.two_forest_count",
              "factors.odd_unicyclic_sums", "factors.closed_form_comfort",
              "catalog.analyze")
    # More draws than any run can analyze, so the loop never runs dry.
    DRAWS = 2000

    def __init__(self, seed):
        rng = random.Random(seed)
        named = [standard_instance(complete_graph(6), 1, 6),
                 standard_instance(complete_graph(7), 1, 7),
                 standard_instance(petersen_graph(), 1, 10),
                 standard_instance(grid_graph(3, 4), 1, 12),
                 grid44_three_tails()]
        taken = {inst.graph for inst in named}
        self.instances = named + [self._draw(rng, k, taken)
                                  for k in range(self.DRAWS)]

    @staticmethod
    def _draw(rng, k, taken):
        # Strata cycle every 60 draws, so every run sees the same mix of
        # sizes, settings and phases and only the graphs themselves vary.
        n = 6 + k % 3
        standard = (k // 3) % 2 == 0
        z = -1 if (k // 6) % 2 == 0 else 1
        m = n + 1 + (k // 12) % 5
        g = _random_connected(rng, n, m, taken)
        if standard:
            return standard_instance(g, 1, n, z)
        boundary = tuple(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        inflow = [rat(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in boundary]
        if not any(inflow):
            inflow[0] = rat(1)
        return WalkInstance(g, boundary, tuple(inflow), z)

    def rounds(self):
        for inst in self.instances:
            yield [inst]

    def run(self, item):
        return analyze(item)

    def check(self, item, out):
        return out.ok

    def digest(self, out):
        return _digest((out.psi.vector(),
                        [(r.name, r.value) for r in out.energy_routes],
                        out.beta, out.sigma.data, out.classification,
                        None if out.audit is None else out.audit.ok,
                        out.factors))


class SimulateFixed:
    """``simulate(inst, 2000, residual_stop=None)`` with the default
    horizon, as the simulator acceptance criterion runs it, on Petersen,
    the two grids and a seeded draw of catalog configurations (n <= 5,
    both phases); one item is one trajectory.  The exact reference states
    are built in set-up.
    """

    name = "simulate-fixed"
    trace_rounds = 40
    layers = ("simulate.simulate", "simulate.step",
              "stationary.internal_operator", "stationary.source_vector",
              "stationary.stationary_state", "ratlin.solve_min_norm_many")
    STEPS = 2000
    # Exact reference states cost set-up time, so the pool is smaller than
    # a run and cycles; a repeat skips only the cached float operator
    # build, about 1 ms of a 60 ms trajectory.
    DRAWS = 200

    def __init__(self, seed):
        rng = random.Random(seed)
        configs = [(g, (u, v), z) for n in range(2, 6)
                   for g in enumerate_connected(n)
                   for u, v in itertools.permutations(range(1, n + 1), 2)
                   for z in (-1, 1)]
        named = [standard_instance(petersen_graph(), 1, 10),
                 standard_instance(grid_graph(3, 4), 1, 12),
                 grid44_three_tails()]
        drawn = [WalkInstance(g, pair, (rat(1), rat(0)), z)
                 for g, pair, z in rng.sample(configs, self.DRAWS)]
        self.items = [(inst, stationary_state(inst))
                      for inst in named + drawn]

    def rounds(self):
        for item in itertools.cycle(self.items):
            yield [item]

    def run(self, item):
        inst, exact = item
        trace = simulate(inst, self.STEPS, exact=exact, residual_stop=None)
        return trace.final.internal, trace.final_distance

    def check(self, item, out):
        """The final internal vector against an independent iteration of
        psi <- E psi + rho."""
        inst, _ = item
        e = np.array([[float(x) for x in row]
                      for row in internal_operator(inst).data])
        rho = np.array([float(x) for x in source_vector(inst)])
        psi = np.zeros(len(rho))
        for _ in range(self.STEPS):
            psi = e @ psi + rho
        return bool(np.max(np.abs(out[0] - psi)) <= 1e-9)

    def digest(self, out):
        internal, distance = out
        return _digest((internal.tobytes(), distance))

    @staticmethod
    def run_check():
        """The simulator's exact step-1 pattern on K3 with inflow (9, 9)."""
        inst = WalkInstance(complete_graph(3), (1, 3), (rat(9), rat(9)), -1)
        amps = step(TruncatedState.initial(inst, 4), inst).amplitudes()
        return bool(all(amps[a] == (-6.0 if a[0] in (1, 3) else 0.0)
                        for a in inst.graph.arcs)
                    and amps[(1, ("t", 0, 1))] == 3.0
                    and amps[(3, ("t", 1, 1))] == 3.0)


WORKLOADS = {wl.name: wl for wl in (CatalogSweep, RankTable, AnalyzeLarge,
                                    SimulateFixed)}
