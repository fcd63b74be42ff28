"""Catalog sweeps, analysis reports, and the self-test registry."""
import pytest

import grwalk.catalog as catalog
import grwalk.cli as cli
from grwalk.catalog import analyze, gamma_graphs, rank, standard_sweep
from grwalk.graphs import (WalkInstance, complete_graph, cycle_graph,
                           standard_instance)
from grwalk.ratlin import rat


def test_rank_validation():
    with pytest.raises(ValueError):
        rank(1, -1)
    with pytest.raises(ValueError):
        rank(6, -1)
    with pytest.raises(ValueError):
        rank(4, 0)


def test_rank_n2():
    report = rank(2, -1)
    assert report.configurations == 2
    assert len(report.rows) == 1
    assert str(report.rows[0].comfort) == "1/2"
    assert report.rows[0].label == "T"


def test_rank_row_ordering_keys():
    rows = rank(4, -1).rows
    # Edge counts never increase; within an edge count, bipartite classes
    # come first with energy ascending, then non-bipartite descending.
    assert [r.edge_count for r in rows] == sorted(
        (r.edge_count for r in rows), reverse=True)
    for a, b in zip(rows, rows[1:]):
        if a.edge_count != b.edge_count:
            continue
        if a.bipartite and b.bipartite:
            assert a.comfort < b.comfort
        elif not a.bipartite and not b.bipartite:
            assert a.comfort > b.comfort
        else:
            assert a.bipartite and not b.bipartite


def test_rank_members_account_for_everything():
    report = rank(4, -1)
    assert sum(r.members for r in report.rows) == report.configurations == 456


@pytest.mark.parametrize("z, rows, ties, largest, smallest, total", [
    (-1, 39, 26, "11/4", "7/24", "179693/12"),
    (1, 55, 42, "13/5", "5/4", "11478479/462"),
])
def test_rank_n5_tables(z, rows, ties, largest, smallest, total):
    # total is the energy summed over all 14560 configurations, so one
    # wrong value anywhere in the table changes it.
    report = rank(5, z)
    comforts = [r.comfort for r in report.rows]
    assert len(report.rows) == rows
    assert report.configurations == 14560
    assert sum(r.members for r in report.rows) == 14560
    assert len(report.class_maxima) == 21
    assert len(report.tie_groups) == ties
    assert (str(max(comforts)), str(min(comforts))) == (largest, smallest)
    assert str(sum(r.comfort * r.members for r in report.rows)) == total


def test_tie_groups_are_descending():
    report = rank(4, -1)
    values = [report.rows[g[0]].comfort for g in report.tie_groups]
    assert values == sorted(values, reverse=True)
    for group in report.tie_groups:
        assert len({report.rows[i].comfort for i in group}) == 1


def test_gamma_graphs_shapes():
    shapes = gamma_graphs()
    assert [g.m for g in shapes] == [3, 3, 4, 4, 5, 6]
    degs = [sorted(g.degree(v) for v in range(1, 5)) for g in shapes]
    assert degs[0] == [1, 1, 1, 3]        # star
    assert degs[1] == [1, 1, 2, 2]        # path
    assert degs[2] == [2, 2, 2, 2]        # cycle
    assert degs[3] == [1, 2, 2, 3]        # triangle with a pendant
    assert degs[4] == [2, 2, 3, 3]        # two triangles sharing an edge
    assert degs[5] == [3, 3, 3, 3]        # complete


def test_standard_sweep_structure():
    entries = list(standard_sweep(3))
    assert len(entries) == 4 * 3          # 4 graphs, 3 unordered pairs
    g, pair, configs, report = entries[0]
    assert configs[0].boundary == pair
    assert configs[1].boundary == (pair[1], pair[0])
    assert report.orthogonal


def test_analyze_nonstandard_inflow():
    inst = WalkInstance(cycle_graph(4), (1, 4), (rat(2), rat(1)), -1)
    report = analyze(inst)
    assert report.routes_agree
    assert [r.name for r in report.energy_routes] == ["direct"]
    assert report.factors is None
    assert report.audit is not None and report.audit.ok


def test_analyze_z_plus_one():
    inst = standard_instance(cycle_graph(4), 1, 4, z=1)
    report = analyze(inst)
    assert report.routes_agree
    names = [r.name for r in report.energy_routes]
    assert names == ["direct", "closed-form"]
    assert report.audit is None


def test_analyze_r3():
    inst = WalkInstance(complete_graph(4), (1, 2, 4),
                        (rat(1), rat(0), rat(0)), -1)
    report = analyze(inst)
    assert report.routes_agree and report.factors is None
    assert report.sigma.is_identity()


def test_selftest_registry_and_cli_exit(monkeypatch, capsys):
    names = [name for name, _ in catalog.SELFTEST_SUITES]
    assert "kirchhoff-audits" in names and "factor-oracles" in names
    assert len(names) == len(set(names)) >= 7

    stub_pass = [("alpha", lambda: (True, "fine")),
                 ("beta", lambda: (True, "fine"))]
    monkeypatch.setattr(catalog, "SELFTEST_SUITES", stub_pass)
    results = catalog.selftest()
    assert all(r.ok for r in results)

    class FakeArgs:
        pass

    monkeypatch.setattr(cli, "selftest", catalog.selftest)
    assert cli.cmd_selftest(FakeArgs()) == 0
    assert "2/2 suites passed" in capsys.readouterr().out

    stub_fail = stub_pass + [("gamma", lambda: (False, "broken")),
                             ("delta", lambda: 1 / 0)]
    monkeypatch.setattr(catalog, "SELFTEST_SUITES", stub_fail)
    assert cli.cmd_selftest(FakeArgs()) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "raised ZeroDivisionError" in out
