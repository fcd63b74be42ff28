"""Tests of the benchmark itself: ``python3 -m pytest bench``."""
import run

grwalk, workloads = run.import_library()

from grwalk import (WalkInstance, complete_graph, rat,  # noqa: E402
                    standard_instance, standard_sweep)
from tracer import SPANS, Tracer  # noqa: E402


def test_sweep_pair_reproduces_standard_sweep():
    for z in (-1, 1):
        pairs = 0
        for g, pair, configs, report in standard_sweep(4, z):
            mine_report, directions = workloads.sweep_pair(g, pair, z)
            assert mine_report == report
            assert directions == [(c.psi, c.comfort, c.beta) for c in configs]
            pairs += 1
        assert pairs == workloads.CONNECTED_LABELLED[4] * 6


def test_workload_names_match_the_command_line():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1000, 0, -1)]) == (990.0, 99.0)
    assert run.tail([float(i) for i in range(1, 100)]) == (50.0, 50.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_analyze_draws_are_seeded_and_never_repeat_a_graph():
    a = workloads.AnalyzeLarge(7)
    assert a.instances == workloads.AnalyzeLarge(7).instances
    assert a.instances != workloads.AnalyzeLarge(8).instances
    graphs = [inst.graph for inst in a.instances]
    assert len(set(graphs)) == len(graphs)


def _items():
    """One small item per workload, with the workload that runs it."""
    return [
        (workloads.CatalogSweep, (complete_graph(4), (1, 3), -1)),
        (workloads.RankTable, (4, -1)),
        (workloads.AnalyzeLarge, standard_instance(complete_graph(5), 1, 5)),
        (workloads.AnalyzeLarge,
         WalkInstance(workloads.grid_graph(2, 3), (2, 6),
                      (rat(1, 2), rat(-3)), 1)),
        (workloads.SimulateFixed,
         (standard_instance(complete_graph(4), 1, 2),
          grwalk.stationary_state(standard_instance(complete_graph(4), 1, 2)))),
    ]


def test_traced_outputs_equal_untraced_and_tracer_uninstalls():
    originals = {name: getattr(grwalk, name) for name in
                 ("analyze", "rank", "simulate", "bipartition")}
    untraced = []
    for cls, item in _items():
        wl = cls.__new__(cls)
        out = wl.run(item)
        assert wl.check(item, out)
        untraced.append(wl.digest(out))
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for cls, item in _items():
            wl = cls.__new__(cls)
            traced.append(wl.digest(wl.run(item)))
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    assert set(metrics) >= {f"{name}.calls" for name in SPANS}
    for name in ("catalog.analyze", "catalog.rank", "simulate.step",
                 "ratlin.nullspace", "ratlin.construct",
                 "stationary.outflow", "factors.closed_form_comfort"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert all(v >= 0 for v, unit in metrics.values() if unit == "s")
    assert {name: getattr(grwalk, name) for name in originals} == originals


def test_checks_reject_wrong_outputs():
    sweep = workloads.CatalogSweep.__new__(workloads.CatalogSweep)
    item = (complete_graph(4), (1, 3), -1)
    report, directions = sweep.run(item)
    psi, comfort, beta = directions[1]
    assert not sweep.check(item, (report, [directions[0],
                                           (psi, comfort + 1, beta)]))
    sim = workloads.SimulateFixed.__new__(workloads.SimulateFixed)
    inst = standard_instance(complete_graph(4), 1, 2)
    internal, distance = sim.run((inst, grwalk.stationary_state(inst)))
    internal[0] += 1e-6
    assert not sim.check((inst, None), (internal, distance))
