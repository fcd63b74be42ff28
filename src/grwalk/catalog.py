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
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from .factors import FactorMismatchError, closed_form_comfort, factor_counts, \
    odd_unicyclic_sums, spanning_tree_count, two_forest_count
from .graphs import WalkInstance, bipartition, canonical_form, \
    enumerate_connected, odd_cycle_witness
from .potential import bipartite_route, kirchhoff_audit, nonbipartite_route
from .ratlin import rat
from .simulate import simulate
from .stationary import comfortability_direct, outflow, scattering, \
    stationary_state, unit_stationary_states


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
            inst = WalkInstance(g, (u, v), (rat(1), rat(0)), z)
            states = unit_stationary_states(inst)
            report = scattering(inst, unit_states=states)
            configs = []
            for k, pair in enumerate([(u, v), (v, u)]):
                psi = states[k]
                unit = (rat(1), rat(0)) if k == 0 else (rat(0), rat(1))
                beta = tuple(outflow(inst, psi, inflow=unit))
                if k == 1:
                    beta = (beta[1], beta[0])
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


def rank(n, z=-1):
    """Group every standard configuration on n vertices into value
    classes and compute per-isomorphism-class maxima."""
    if not 2 <= n <= 5:
        raise ValueError("rank supports 2 <= n <= 5")
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    classes = {}
    maxima = {}
    order_ref = {}
    total = 0
    for g in enumerate_connected(n):
        part = bipartition(g)
        lab = scattering_label(g, z)
        cid = canonical_form(g)
        for u1 in range(1, n + 1):
            for un in range(1, n + 1):
                if u1 == un:
                    continue
                comf = closed_form_comfort(g, u1, un, z)
                total += 1
                key = (g.m, part is not None, comf, lab)
                row = classes.get(key)
                if row is None:
                    classes[key] = CatalogRow(g.m, part is not None, comf, lab,
                                              (g, (u1, un)), frozenset([cid]),
                                              1, frozenset([g.distance(u1, un)]))
                else:
                    row.class_ids |= {cid}
                    row.members += 1
                    row.distances |= {g.distance(u1, un)}
                best = maxima.get(cid)
                if best is None or comf > best.comfort:
                    maxima[cid] = ClassMaximum(cid, g, g.m, comf, (u1, un))
                if z != -1:
                    ref = closed_form_comfort(g, u1, un, -1)
                    if cid not in order_ref or ref > order_ref[cid]:
                        order_ref[cid] = ref

    def row_key(item):
        (edges, bip, comf, _), _ = item
        return (-edges, not bip, comf if bip else -comf)

    rows = [row for _, row in sorted(classes.items(), key=row_key)]
    by_comf = sorted(range(len(rows)), key=lambda i: rows[i].comfort,
                     reverse=True)
    tie_groups = []
    for i in by_comf:
        if tie_groups and rows[tie_groups[-1][0]].comfort == rows[i].comfort:
            tie_groups[-1].append(i)
        else:
            tie_groups.append([i])
    # Isomorphism classes are presented by edge count, then by their
    # maximal alternating-walk energy, which fixes the order for both z.
    if z == -1:
        order_ref = {cid: m.comfort for cid, m in maxima.items()}
    class_maxima = sorted(maxima.values(),
                          key=lambda m: (m.edge_count, order_ref[m.class_id],
                                         m.class_id))
    return RankReport(n, z, rows, tie_groups, class_maxima, total)


@dataclass
class RouteValue:
    name: str
    value: object


@dataclass
class AnalysisReport:
    instance: object
    bipartite: bool
    partition: object             # Bipartition or None
    odd_cycle: object             # witness cycle or None
    psi: object
    energy_routes: list           # RouteValue per applicable route
    routes_agree: bool
    beta: tuple
    sigma: object
    classification: str
    audit: object                 # Kirchhoff audit report (z = -1)
    factors: object               # FactorCounts for standard settings
    simulation: dict              # residual summary when requested

    @property
    def ok(self):
        return self.routes_agree and (self.audit is None or self.audit.ok)


def _standard_setting(inst):
    return inst.r == 2 and inst.inflow == (rat(1), rat(0))


def analyze(inst, simulate_steps=None):
    """Full exact analysis of one instance, cross-checking every
    applicable energy route and, optionally, the float simulator."""
    g = inst.graph
    part = bipartition(g)
    psi = stationary_state(inst)
    routes = [RouteValue("direct", comfortability_direct(psi))]
    factors = None
    if _standard_setting(inst):
        u1, un = inst.boundary
        routes.append(RouteValue("closed-form",
                                 closed_form_comfort(g, u1, un, inst.phase)))
        factors = factor_counts(g, u1, un, method="both")
        if inst.phase == -1:
            if part is None:
                _, psi2, energy = nonbipartite_route(inst)
                routes.append(RouteValue("signless-potential", energy))
            else:
                _, psi2, energy = bipartite_route(inst)
                routes.append(RouteValue("laplacian-potential", energy))
            if psi2 != psi:
                routes.append(RouteValue("potential-reconstruction-mismatch",
                                         None))
    agree = all(r.value == routes[0].value for r in routes)
    report = scattering(inst)
    audit = kirchhoff_audit(inst, psi) if inst.phase == -1 else None
    simulation = None
    if simulate_steps:
        trace = simulate(inst, simulate_steps, exact=psi)
        simulation = {"steps": trace.steps,
                      "converged_at": trace.converged_at,
                      "final_residual": trace.residuals[-1],
                      "distance_to_exact": trace.final_distance}
    return AnalysisReport(inst, part is not None, part,
                          None if part else odd_cycle_witness(g),
                          psi, routes, agree, report.beta, report.sigma,
                          report.classification, audit, factors, simulation)


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


def _suite_worked_values():
    report = rank(4, -1)
    values = [str(r.comfort) for r in report.rows]
    labels = [r.label for r in report.rows]
    want_v = ["5/12", "3/4", "1/2", "19/16", "5/4", "7/4", "3/4", "1",
              "5/4", "3/2"]
    want_l = list("RRRTTRRTTT")
    ok = values == want_v and labels == want_l
    return ok, f"classes={values} labels={labels}"


def _suite_three_routes(n_max=5):
    bad = []
    for n in range(2, n_max + 1):
        for g, pair, configs, _ in standard_sweep(n):
            for cfg in configs:
                u1, un = cfg.boundary
                closed = closed_form_comfort(g, u1, un, -1)
                inst = WalkInstance(g, cfg.boundary, (rat(1), rat(0)), -1)
                if bipartition(g) is None:
                    _, psi2, pot = nonbipartite_route(inst)
                else:
                    _, psi2, pot = bipartite_route(inst)
                if not (cfg.comfort == closed == pot and psi2.values ==
                        {a: cfg.psi[a] for a in g.arcs}):
                    bad.append((n, g.edges, cfg.boundary))
    return not bad, f"{len(bad)} disagreements" + (f", first {bad[0]}" if bad else "")


def _suite_scattering(n_max=5):
    bad = 0
    checked = 0
    for n in range(2, n_max + 1):
        for g, pair, configs, report in standard_sweep(n):
            checked += 1
            if not (report.orthogonal and report.matches_prediction):
                bad += 1
    return bad == 0, f"{checked} pairs checked, {bad} failures"


def _suite_kirchhoff(n_max=5):
    bad = 0
    checked = 0
    for n in range(2, n_max + 1):
        for g, pair, configs, _ in standard_sweep(n):
            for cfg in configs:
                inst = WalkInstance(g, cfg.boundary, (rat(1), rat(0)), -1)
                if not kirchhoff_audit(inst, cfg.psi).ok:
                    bad += 1
                checked += 1
    return bad == 0, f"{checked} states audited, {bad} failures"


def _suite_factor_oracles(n_max=5):
    bad = 0
    checked = 0
    for n in range(2, n_max + 1):
        for g in enumerate_connected(n):
            try:
                spanning_tree_count(g, method="both")
                for u in range(1, n + 1):
                    odd_unicyclic_sums(g, u, method="both")
                    for v in range(u + 1, n + 1):
                        two_forest_count(g, u, v, method="both")
            except FactorMismatchError:
                bad += 1
            checked += 1
    return bad == 0, f"{checked} graphs, {bad} oracle mismatches"


def _suite_incidence():
    from .factors import cycle_incidence_check
    ok = all(abs(cycle_incidence_check(L)) == 2 for L in range(3, 10, 2)) and \
        all(cycle_incidence_check(L) == 0 for L in range(4, 9, 2))
    return ok, "odd cycles give +-2, even cycles give 0"


def _suite_simulator(n_max=4, steps=2000, tol=1e-6):
    worst = 0.0
    count = 0
    for n in range(2, n_max + 1):
        for g, pair, configs, _ in standard_sweep(n):
            for cfg in configs:
                inst = WalkInstance(g, cfg.boundary, (rat(1), rat(0)), -1)
                trace = simulate(inst, steps, exact=cfg.psi)
                worst = max(worst, trace.final_distance)
                count += 1
    return worst < tol, f"{count} instances, worst distance {worst:.3e}"


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
    """Run every invariant suite across the small-graph catalog."""
    results = []
    for name, fn in SELFTEST_SUITES:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:          # a crashed suite is a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, ok, detail,
                                   time.perf_counter() - start))
    return results
