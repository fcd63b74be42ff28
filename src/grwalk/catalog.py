"""Catalog sweeps over small graphs: value classes, per-class maxima,
single-instance analysis, and the self-test suite registry.

A "standard configuration" is a connected graph with two tails at an
ordered vertex pair (u1, un) and inflow (1, 0).  Sweeping all labelled
connected graphs on n vertices and all ordered pairs, configurations
collapse into a small number of value classes keyed by
(|E|, bipartiteness, energy, scattering label); for n = 4 this yields the
ten classic classes.  Classes are presented with edge count descending,
bipartite classes first within an edge count, energy ascending among
bipartite classes and descending among non-bipartite ones.

One route list, ``_energy_routes``, serves ``analyze`` and the
three-route suite.  Each self-test suite takes ``sweep``, through which
selftest() hands all suites one shared catalog sweep per run; the
per-configuration suites walk its records through ``_configurations``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, groupby, permutations

from .factors import FactorMismatchError, closed_form_comfort, \
    cycle_incidence_check, factor_counts, odd_unicyclic_sums, \
    spanning_tree_count, two_forest_count
from .graphs import _pair_bits, _relabelled_masks, bipartition, \
    canonical_form, enumerate_connected, odd_cycle_witness, \
    standard_instance, vertex_pairs
from .potential import bipartite_route, kirchhoff_audit, nonbipartite_route
from .ratlin import rat
from .simulate import contraction_rate, simulate
from .stationary import comfortability_direct, scattering, \
    stationary_state, unit_stationary_states


_ORACLE_N_MAX = 5
_SIMULATOR_N_MAX = 4
_SIMULATOR_STEPS = 2000
_SIMULATOR_TOL = 1e-6               # on the distance to the exact state


def scattering_label(g, z):
    """Table label: R (perfect reflection) exactly for non-bipartite
    internals at z = -1, T otherwise."""
    if z == -1 and bipartition(g) is None:
        return "R"
    return "T"


@dataclass
class Configuration:
    """One (graph, ordered boundary pair) standard setting with its
    exact stationary data."""

    graph: object
    boundary: tuple
    psi: object
    comfort: object
    beta: tuple
    label: str


def standard_sweep(n, z=-1):
    """Exact stationary data for every labelled connected graph on n
    vertices and every ordered boundary pair.

    Yields (graph, unordered pair, [config u->v, config v->u], report)
    with one scattering report per unordered pair; the two
    configurations share its matrix reduction.
    """
    for g in enumerate_connected(n):
        lab = scattering_label(g, z)
        for u, v in combinations(range(1, n + 1), 2):
            inst = standard_instance(g, u, v, z)
            states = unit_stationary_states(inst)
            report = scattering(inst, unit_states=states)
            sigma = report.sigma.data
            configs = []
            for k, pair in enumerate([(u, v), (v, u)]):
                # beta under unit inflow at pair[0]: column k of sigma.
                psi = states[k]
                beta = (sigma[k][k], sigma[1 - k][k])
                configs.append(Configuration(g, pair, psi,
                                             comfortability_direct(psi),
                                             beta, lab))
            yield g, (u, v), configs, report


@dataclass
class CatalogRow:
    """One value class of standard configurations."""

    edge_count: int
    bipartite: bool
    comfort: object
    label: str
    representative: object        # (graph, ordered boundary pair)
    class_ids: frozenset          # canonical forms of the member graphs
    members: int                  # number of (graph, pair) configurations
    distances: frozenset          # boundary distances occurring in the class


@dataclass
class ClassMaximum:
    """Per-isomorphism-class maximum comfort over boundary pairs."""

    class_id: int
    representative: object
    edge_count: int
    comfort: object
    argmax_pair: tuple


@dataclass
class RankReport:
    n: int
    z: int
    rows: list                    # CatalogRows in table order
    tie_groups: list              # row-index groups, comfort descending
    class_maxima: list            # ClassMaximum in presentation order
    configurations: int


def _pair_comforts(g, z, bipartite):
    """closed_form_comfort(g, u1, un, z) for every ordered pair u1 != un,
    each value taken once: per u1 in the signless case, where iota2(u1)/
    iota1 does not read un, and per unordered pair otherwise, where
    (chi2/chi1 + |E|)/4 is symmetric in u1 and un."""
    n = g.n
    out = {}
    if z == -1 and not bipartite:
        for u in range(1, n + 1):
            comf = closed_form_comfort(g, u, u % n + 1, z)
            out.update(((u, v), comf) for v in range(1, n + 1) if v != u)
    else:
        for u, v in vertex_pairs(n):
            out[u, v] = out[v, u] = closed_form_comfort(g, u, v, z)
    return out


def rank(n, z=-1):
    """Group every standard configuration on n vertices into value
    classes and compute per-isomorphism-class maxima.

    Relabelling the vertices changes neither the closed form, nor the
    boundary distance, nor bipartiteness, so all members of an
    isomorphism class have the same configurations up to the labels.
    Each class is therefore worked out once, on its first member in
    enumeration order, and counted once per labelled graph in it (one per
    distinct relabelling).  The first configuration with a given value,
    which represents its row, and the first pair that reaches a class's
    maximum both lie on first members, so the table equals that of a
    sweep over every labelled graph.  A first member takes its closed
    forms and distances once per unordered pair (once per u1 in the
    signless case) and one canonical form.
    """
    if not 2 <= n <= 5:
        raise ValueError("rank supports 2 <= n <= 5")
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    ordered = list(permutations(range(1, n + 1), 2))
    bits = _pair_bits(n)          # to read each graph's own edge mask
    seen = set()                  # edge masks of every class met so far
    classes = {}
    maxima = {}
    order_ref = {}
    graphs = enumerate_connected(n)
    for g in graphs:
        if sum(bits[u][v] for u, v in g.edges) in seen:
            continue
        orbit = set(_relabelled_masks(g))
        seen |= orbit
        cid = canonical_form(g)
        bip = bipartition(g) is not None
        lab = scattering_label(g, z)
        comforts = _pair_comforts(g, z, bip)
        best = max(ordered, key=comforts.__getitem__)
        maxima[cid] = ClassMaximum(cid, g, g.m, comforts[best], best)
        # Classes are presented by their z = -1 maximum.  A bipartite
        # graph's closed form is the same at both phases.
        order_ref[cid] = comforts[best] if z == -1 or bip else \
            max(_pair_comforts(g, -1, bip).values())
        dist = {}
        for u, v in vertex_pairs(n):
            dist[u, v] = dist[v, u] = g.distance(u, v)
        for pair in ordered:
            key = (g.m, bip, comforts[pair], lab)
            row = classes.get(key)
            if row is None:
                row = classes[key] = CatalogRow(g.m, bip, comforts[pair], lab,
                                                (g, pair), frozenset(), 0,
                                                frozenset())
            row.members += len(orbit)
            row.class_ids |= {cid}
            row.distances |= {dist[pair]}

    def row_key(item):
        (edges, bip, comf, _), _ = item
        return (-edges, not bip, comf if bip else -comf)

    rows = [row for _, row in sorted(classes.items(), key=row_key)]
    by_comf = sorted(range(len(rows)), key=lambda i: rows[i].comfort,
                     reverse=True)
    tie_groups = [list(group) for _, group in
                  groupby(by_comf, key=lambda i: rows[i].comfort)]
    # Isomorphism classes are presented by edge count, then by their
    # maximal alternating-walk energy, which fixes the order for both z.
    class_maxima = sorted(maxima.values(),
                          key=lambda m: (m.edge_count, order_ref[m.class_id],
                                         m.class_id))
    return RankReport(n, z, rows, tie_groups, class_maxima,
                      len(graphs) * len(ordered))


@dataclass
class RouteValue:
    name: str
    value: object


def _is_standard(inst):
    """The closed-form setting: two tails with inflow (1, 0)."""
    return inst.r == 2 and inst.inflow == (rat(1), rat(0))


def _energy_routes(inst, psi):
    """The energy routes that apply to ``inst`` with stationary state
    ``psi``: direct, closed form (standard setting), the potential route,
    and a None-valued mismatch entry if that route rebuilds another psi."""
    g = inst.graph
    routes = [RouteValue("direct", comfortability_direct(psi))]
    if _is_standard(inst):
        routes.append(RouteValue("closed-form",
                                 closed_form_comfort(g, *inst.boundary,
                                                     inst.phase)))
    if inst.phase == -1 and bipartition(g) is None:
        name, route = "signless-potential", nonbipartite_route
    else:
        name, route = "laplacian-potential", bipartite_route
    _, psi2, energy = route(inst)
    routes.append(RouteValue(name, energy))
    if psi2 != psi:
        routes.append(RouteValue("potential-reconstruction-mismatch", None))
    return routes


def _agree(routes):
    return all(r.value == routes[0].value for r in routes)


@dataclass
class AnalysisReport:
    instance: object
    bipartite: bool
    partition: object             # Bipartition or None
    odd_cycle: object             # witness cycle or None
    psi: object
    energy_routes: list           # direct, closed form (standard only), potential
    routes_agree: bool
    beta: tuple
    sigma: object
    classification: str
    scattering_ok: bool           # sigma orthogonal and equal to its prediction
    audit: object                 # Kirchhoff audit report, at both phases
    factors: object               # FactorCounts for standard settings
    simulation: dict              # residual and cycle summary when requested

    @property
    def ok(self):
        return self.routes_agree and self.scattering_ok and self.audit.ok


def analyze(inst, simulate_steps=None):
    """Full exact analysis of one instance, cross-checking every
    applicable energy route and, optionally, the float simulator."""
    g = inst.graph
    part = bipartition(g)
    states = unit_stationary_states(inst)
    psi = stationary_state(inst, unit_states=states)
    routes = _energy_routes(inst, psi)
    factors = (factor_counts(g, *inst.boundary, method="both")
               if _is_standard(inst) else None)
    report = scattering(inst, unit_states=states)
    audit = kirchhoff_audit(inst, psi)
    simulation = None
    if simulate_steps is not None:
        trace = simulate(inst, simulate_steps, exact=psi)
        rate, predicted = contraction_rate(inst)
        simulation = {"steps": trace.steps,
                      "converged_at": trace.converged_at,
                      "final_residual": trace.residuals[-1],
                      "distance_to_exact": trace.final_distance,
                      "contraction_rate": rate,
                      "predicted_steps": predicted,
                      "cycle_start": trace.cycle_start,
                      "cycle_period": trace.cycle_period}
    return AnalysisReport(inst, part is not None, part,
                          None if part else odd_cycle_witness(g),
                          psi, routes, _agree(routes), report.beta,
                          report.sigma, report.classification,
                          report.orthogonal and report.matches_prediction,
                          audit, factors, simulation)


def gamma_graphs():
    """The six connected 4-vertex shapes in presentation order."""
    report = rank(4, -1)
    return [m.representative for m in report.class_maxima]


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _suite_worked_values(_sweep):
    report = rank(4, -1)
    values = [str(r.comfort) for r in report.rows]
    labels = [r.label for r in report.rows]
    want_v = ["5/12", "3/4", "1/2", "19/16", "5/4", "7/4", "3/4", "1",
              "5/4", "3/2"]
    want_l = list("RRRTTRRTTT")
    ok = values == want_v and labels == want_l
    return ok, f"classes={values} labels={labels}"


def _configurations(records):
    """(standard instance, Configuration) for every configuration of the
    sweep records, in order."""
    for _, _, configs, _ in records:
        for cfg in configs:
            yield standard_instance(cfg.graph, *cfg.boundary), cfg


def _suite_three_routes(sweep):
    bad = [(cfg.graph.n, cfg.graph.edges, cfg.boundary)
           for inst, cfg in _configurations(sweep())
           if not _agree(_energy_routes(inst, cfg.psi))]
    return not bad, f"{len(bad)} disagreements" + (f", first {bad[0]}" if bad else "")


def _suite_scattering(sweep):
    reports = [report for _, _, _, report in sweep()]
    bad = sum(not (r.orthogonal and r.matches_prediction) for r in reports)
    return bad == 0, f"{len(reports)} pairs checked, {bad} failures"


def _suite_kirchhoff(sweep):
    oks = [kirchhoff_audit(inst, cfg.psi).ok
           for inst, cfg in _configurations(sweep())]
    bad = oks.count(False)
    return bad == 0, f"{len(oks)} states audited, {bad} failures"


def _suite_factor_oracles(_sweep):
    graphs = [g for n in range(2, _ORACLE_N_MAX + 1)
              for g in enumerate_connected(n)]
    bad = 0
    for g in graphs:
        try:
            spanning_tree_count(g, method="both")
            for u in range(1, g.n + 1):
                odd_unicyclic_sums(g, u, method="both")
                for v in range(u + 1, g.n + 1):
                    two_forest_count(g, u, v, method="both")
        except FactorMismatchError:
            bad += 1
    return bad == 0, f"{len(graphs)} graphs, {bad} oracle mismatches"


def _suite_incidence(_sweep):
    ok = all(abs(cycle_incidence_check(L)) == 2 for L in range(3, 10, 2)) and \
        all(cycle_incidence_check(L) == 0 for L in range(4, 9, 2))
    return ok, "odd cycles give +-2, even cycles give 0"


def _suite_simulator(sweep):
    small = [rec for rec in sweep() if rec[0].n <= _SIMULATOR_N_MAX]
    distances = [simulate(inst, _SIMULATOR_STEPS, exact=cfg.psi).final_distance
                 for inst, cfg in _configurations(small)]
    worst = max(distances, default=0.0)
    return all(d < _SIMULATOR_TOL for d in distances), \
        f"{len(distances)} instances, worst distance {worst:.3e}"


SELFTEST_SUITES = [
    ("worked-values", _suite_worked_values),
    ("three-route-agreement", _suite_three_routes),
    ("scattering-theorem", _suite_scattering),
    ("kirchhoff-audits", _suite_kirchhoff),
    ("factor-oracles", _suite_factor_oracles),
    ("incidence-determinants", _suite_incidence),
    ("simulator-convergence", _suite_simulator),
]


def selftest():
    """Run every invariant suite across the small-graph catalog.

    Each suite is called with ``sweep``, which returns standard_sweep(n)
    for n = 2..5 as a list, swept on its first call in this run and
    shared by the later ones."""
    records = []

    def sweep():
        if not records:
            records.extend([rec for n in range(2, 6)
                            for rec in standard_sweep(n)])
        return records

    results = []
    for name, fn in SELFTEST_SUITES:
        start = time.perf_counter()
        # A failed check raises one of these (FactorMismatchError and the
        # residual check are RuntimeErrors); anything else is a bug.
        try:
            ok, detail = fn(sweep)
        except (RuntimeError, ValueError, ArithmeticError, LookupError) as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, ok, detail,
                                   time.perf_counter() - start))
    return results
