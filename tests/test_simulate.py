"""Float simulator: step semantics, convergence, truncation, CSV export."""
import csv
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from grwalk.graphs import (Graph, WalkInstance, complete_graph, cycle_graph,
                           enumerate_connected, standard_instance)
from grwalk.ratlin import rat
from grwalk.simulate import (SimulationTrace, TruncatedState, _float_operator,
                             contraction_rate, simulate, step,
                             write_trace_csv)
from grwalk.stationary import (comfortability_direct, internal_operator,
                               source_vector, stationary_state)


def k3_fig_instance():
    return WalkInstance(complete_graph(3), (1, 3), (rat(9), rat(9)), -1)


def test_initial_state():
    inst = k3_fig_instance()
    s = TruncatedState.initial(inst, 4)
    amps = s.amplitudes()
    assert len(amps) == 6 + 4 * 4     # internal arcs + 2 tails x 2 x L
    assert all(amps[a] == 0.0 for a in inst.graph.arcs)
    assert amps[(("t", 0, 1), 1)] == 9.0
    assert amps[(("t", 1, 2), ("t", 1, 1))] == 9.0
    assert amps[(1, ("t", 0, 1))] == 0.0


def test_step_reproduces_boundary_pattern():
    # One step from constant inflow 9 on K3: internal arcs leaving a
    # boundary vertex carry -6 (coin weight 2/3 with the global sign),
    # the outbound tail arcs carry +3.
    inst = k3_fig_instance()
    s = step(TruncatedState.initial(inst, 4), inst)
    amps = s.amplitudes()
    for a in inst.graph.arcs:
        want = -6.0 if a[0] in (1, 3) else 0.0
        assert amps[a] == want
    assert amps[(1, ("t", 0, 1))] == 3.0
    assert amps[(3, ("t", 1, 1))] == 3.0


def test_step_zero_inflow_is_zero():
    inst = WalkInstance(complete_graph(3), (1, 3), (rat(0), rat(0)), -1)
    s = TruncatedState.initial(inst, 4)
    for _ in range(3):
        s = step(s, inst)
    assert all(v == 0.0 for v in s.amplitudes().values())


def test_step_matches_exact_operator():
    # On states supported in the internal arcs plus the entering tail
    # arc, a simulator step is the exact E plus source, to 1e-12.
    inst = standard_instance(Graph(2, [(1, 2)]), 1, 2)
    e = internal_operator(inst)
    rho = source_vector(inst)
    rng = np.random.default_rng(7)
    s = TruncatedState.initial(inst, 3)
    s.internal = rng.normal(size=2)
    out = step(s, inst)
    e_float = np.array([[float(x) for x in row] for row in e.data])
    want = e_float @ s.internal + np.array([float(x) for x in rho])
    assert np.max(np.abs(out.internal - want)) <= 1e-12


def test_step_matches_exact_operator_k4():
    inst = standard_instance(complete_graph(4), 1, 4)
    e = np.array([[float(x) for x in row]
                  for row in internal_operator(inst).data])
    rho = np.array([float(x) for x in source_vector(inst)])
    rng = np.random.default_rng(11)
    s = TruncatedState.initial(inst, 3)
    s.internal = rng.normal(size=12)
    out = step(s, inst)
    assert np.max(np.abs(out.internal - (e @ s.internal + rho))) <= 1e-12


def test_convergence_to_exact_state():
    inst = standard_instance(complete_graph(4), 1, 4)
    exact = stationary_state(inst)
    trace = simulate(inst, 2000, exact=exact, residual_stop=None)
    assert trace.final_distance <= 1e-6
    assert trace.steps == 2000


def test_convergence_c4_comfort():
    inst = standard_instance(cycle_graph(4), 1, 4)
    trace = simulate(inst, 2000, residual_stop=None)
    comf = 0.5 * float(np.sum(trace.final.internal ** 2))
    assert abs(comf - float(19 / 16)) <= 1e-6


def test_zero_inflow_trace():
    inst = WalkInstance(cycle_graph(4), (1, 4), (rat(0), rat(0)), -1)
    trace = simulate(inst, 50, residual_stop=None)
    assert all(r == 0.0 for r in trace.residuals)
    assert np.all(trace.final.internal == 0.0)


def test_truncation_soundness():
    # Doubling the horizon changes nothing on the internal arcs.
    inst = standard_instance(cycle_graph(5), 1, 3)
    a = simulate(inst, 60, horizon=62, residual_stop=None).final.internal
    b = simulate(inst, 60, horizon=124, residual_stop=None).final.internal
    assert np.array_equal(a, b)


def test_residual_envelope_decreasing():
    # Successive residuals oscillate inside a geometrically decaying
    # envelope; monitor the envelope (maximum over ten-step windows).
    inst = standard_instance(complete_graph(4), 1, 4)
    trace = simulate(inst, 300, residual_stop=None)
    tail = trace.residuals[50:]
    windows = [max(tail[i:i + 10]) for i in range(0, len(tail) - 10, 10)]
    above_noise = [w for w in windows if w > 1e-13]
    assert len(above_noise) >= 5
    assert all(b < a for a, b in zip(above_noise, above_noise[1:]))


def test_early_stop():
    inst = standard_instance(complete_graph(4), 1, 4)
    trace = simulate(inst, 5000, residual_stop=1e-10)
    assert trace.converged_at is not None
    assert trace.residuals[-1] < 1e-10
    assert trace.steps == trace.converged_at < 5000


def test_requires_positive_steps():
    inst = standard_instance(complete_graph(4), 1, 4)
    with pytest.raises(ValueError):
        simulate(inst, 0)


def test_trace_csv_format(tmp_path):
    inst = standard_instance(cycle_graph(4), 1, 4)
    trace = simulate(inst, 3, residual_stop=None)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "arc_origin", "arc_terminus", "amplitude",
                       "residual"]
    body = rows[1:]
    assert len(body) == 3 * 8
    arcs = [(int(r[1]), int(r[2])) for r in body[:8]]
    assert arcs == sorted(arcs)
    assert {r[0] for r in body} == {"1", "2", "3"}
    # Round-trip: every amplitude parses back to the float that was written.
    snap = trace.snapshots[0]
    for i, r in enumerate(body[:8]):
        assert float(r[3]) == snap[i]


# The tail-array simulator the library used to run, kept as the reference
# for the derived-tail one: both tails stored as length-L arrays, shifted
# by one every step, the inbound one refilled with the inflow.

class _ReferenceState:
    def __init__(self, inst, horizon, internal, tails_in, tails_out):
        self.instance = inst
        self.horizon = horizon
        self.internal = internal
        self.tails_in = tails_in      # [0] = arc entering the graph
        self.tails_out = tails_out    # [0] = arc leaving the graph

    @classmethod
    def initial(cls, inst, horizon):
        return cls(inst, horizon, np.zeros(2 * inst.graph.m),
                   [np.full(horizon, float(a)) for a in inst.inflow],
                   [np.zeros(horizon) for _ in inst.boundary])

    def amplitudes(self):
        g = self.instance.graph
        out = {a: self.internal[i] for i, a in enumerate(g.arcs)}
        for j, v in enumerate(self.instance.boundary):
            nodes = [v] + [("t", j, d) for d in range(1, self.horizon + 1)]
            for d in range(self.horizon):
                out[(nodes[d + 1], nodes[d])] = self.tails_in[j][d]
                out[(nodes[d], nodes[d + 1])] = self.tails_out[j][d]
        return out


def _reference_operator(inst):
    mat = np.array([[float(x) for x in row]
                    for row in internal_operator(inst).data])
    unit_sources = np.zeros((2 * inst.graph.m, inst.r))
    eps = -1.0 if inst.phase == -1 else 1.0
    g = inst.graph
    for j, v in enumerate(inst.boundary):
        w = eps * 2.0 / inst.tilde_degree(v)
        for x in g.neighbors(v):
            unit_sources[g.arc_index((v, x)), j] = w
    return mat, unit_sources


def _reference_step(state, inst, operator):
    g = inst.graph
    mat, unit_sources = operator
    entering = np.array([t[0] for t in state.tails_in])
    internal = mat @ state.internal + unit_sources @ entering
    eps = -1.0 if inst.phase == -1 else 1.0
    tails_in = []
    tails_out = []
    for j, v in enumerate(inst.boundary):
        w = 2.0 / inst.tilde_degree(v)
        incoming = sum(state.internal[g.arc_index((x, v))]
                       for x in g.neighbors(v))
        boundary_out = eps * (w * (entering[j] + incoming) - entering[j])
        new_in = np.empty(state.horizon)
        new_in[:-1] = state.tails_in[j][1:]
        new_in[-1] = float(inst.inflow[j])
        new_out = np.empty(state.horizon)
        new_out[0] = boundary_out
        new_out[1:] = state.tails_out[j][:-1]
        tails_in.append(new_in)
        tails_out.append(new_out)
    return _ReferenceState(inst, state.horizon, internal, tails_in, tails_out)


def _reference_simulate(inst, steps, horizon=None, exact=None,
                        residual_stop=1e-10):
    """(snapshots, residuals, final state, converged_at, final_distance)."""
    if horizon is None:
        horizon = steps + 2
    operator = _reference_operator(inst)
    state = _ReferenceState.initial(inst, horizon)
    snapshots = []
    residuals = []
    converged_at = None
    for k in range(1, steps + 1):
        new = _reference_step(state, inst, operator)
        snapshots.append(new.internal.copy())
        residuals.append(float(np.max(np.abs(new.internal - state.internal))))
        state = new
        if residual_stop is not None and residuals[-1] < residual_stop:
            converged_at = k
            break
    distance = None
    if exact is not None:
        target = np.array([float(x) for x in exact.vector()])
        distance = float(np.max(np.abs(state.internal - target)))
    return snapshots, residuals, state, converged_at, distance


def _grid_graph(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def _petersen_graph():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _equivalence_instances():
    """40 seeded n <= 5 configurations (both phases, one to three tails,
    rational and zero inflows), Petersen, and the 4x4 grid with three
    rational tails."""
    rng = random.Random(20221)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    inflows = [rat(1), rat(0), rat(-2, 3), rat(5, 7), rat(3)]
    out = []
    for k in range(40):
        g = rng.choice(graphs)
        r = rng.randint(1, min(3, g.n))
        boundary = tuple(rng.sample(range(1, g.n + 1), r))
        inflow = tuple(rng.choice(inflows) for _ in boundary)
        if k % 8 == 0:
            inflow = (rat(0),) * r
        out.append(WalkInstance(g, boundary, inflow, (-1, 1)[k % 2]))
    out.append(standard_instance(_petersen_graph(), 1, 10))
    out.append(WalkInstance(_grid_graph(4, 4), (1, 16, 4),
                            (rat(1, 2), rat(-1, 3), rat(2)), -1))
    return out


def _assert_same_trace(trace, ref):
    snapshots, residuals, final, converged_at, distance = ref
    assert trace.steps == len(snapshots)
    assert b"".join(s.tobytes() for s in trace.snapshots) == \
        b"".join(s.tobytes() for s in snapshots)
    assert all(np.array_equal(a, b)
               for a, b in zip(trace.snapshots, snapshots))
    assert trace.residuals == residuals
    assert trace.converged_at == converged_at
    assert trace.final_distance == distance
    assert trace.final.internal.tobytes() == final.internal.tobytes()
    got, want = trace.final.amplitudes(), final.amplitudes()
    assert list(got) == list(want)
    assert all(np.float64(got[a]).tobytes() == np.float64(want[a]).tobytes()
               for a in want)


@pytest.mark.parametrize("inst", _equivalence_instances(), ids=repr)
def test_derived_tails_equal_tail_arrays(inst):
    steps = 300
    exact = stationary_state(inst)
    for stop in (None, 1e-10):
        for horizon in (None, 40, 1):
            trace = simulate(inst, steps, horizon=horizon, exact=exact,
                             residual_stop=stop)
            _assert_same_trace(trace, _reference_simulate(
                inst, steps, horizon=horizon, exact=exact,
                residual_stop=stop))


def test_early_stop_stays_exact_across_blocks():
    # K4 (1, 4) first drops below 1e-10 at step 127, inside the second
    # block of 64: the trace must end there, as the stepwise loop did.
    inst = standard_instance(complete_graph(4), 1, 4)
    for steps in (126, 127, 128, 1000):
        _assert_same_trace(simulate(inst, steps),
                           _reference_simulate(inst, steps))
    assert simulate(inst, 1000).converged_at == 127


def test_step_leaves_its_input_unchanged():
    inst = WalkInstance(cycle_graph(5), (1, 3), (rat(2), rat(-1, 2)), 1)
    state = simulate(inst, 5, residual_stop=None).final
    before = state.internal.copy()
    amps_before = state.amplitudes()
    a = step(state, inst)
    b = step(state, inst)
    assert a is not b and a.internal is not b.internal
    assert np.array_equal(a.internal, b.internal)
    a.internal[:] = 7.0
    assert np.array_equal(state.internal, before)
    assert not np.array_equal(b.internal, a.internal)
    assert state.amplitudes() == amps_before


def _same_amplitudes(got, want):
    return list(got) == list(want) and all(
        np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes()
        for k in want)


def test_stepping_one_state_twice_branches():
    # a = step(s), b = step(s), then both are stepped on: a shares its
    # history with s, b gets a copy, and none of them reads the others'.
    inst = WalkInstance(cycle_graph(5), (1, 3), (rat(2), rat(-1, 2)), 1)
    s = simulate(inst, 5, horizon=9, residual_stop=None).final
    amps_s = s.amplitudes()
    a = step(s, inst)
    b = step(s, inst)
    amps_a, amps_b = a.amplitudes(), b.amplitudes()
    a2, b2 = step(a, inst), step(b, inst)
    for state, before in ((s, amps_s), (a, amps_a), (b, amps_b)):
        assert _same_amplitudes(state.amplitudes(), before)
    for steps, states in ((6, (a, b)), (7, (a2, b2))):
        want = _reference_simulate(inst, steps, horizon=9,
                                   residual_stop=None)[2].amplitudes()
        for state in states:
            assert _same_amplitudes(state.amplitudes(), want)


def test_assigned_internal_feeds_the_outbound_tail():
    # The depth-0 outbound arc after a step comes from the internal vector
    # the state held when it was stepped, also one assigned after initial.
    inst = standard_instance(complete_graph(4), 1, 4)
    s = TruncatedState.initial(inst, 3)
    s.internal = np.random.default_rng(5).normal(size=12)
    out = step(s, inst).amplitudes()
    g = inst.graph
    for j, (v, alpha) in enumerate(zip(inst.boundary, (1.0, 0.0))):
        incoming = sum(s.internal[g.arc_index((x, v))]
                       for x in g.neighbors(v))
        # Coin weight 2/deg~(v) = 1/2 with sign -1 at phase -1.
        assert out[(v, ("t", j, 1))] == -(0.5 * (alpha + incoming) - alpha)


def test_huge_step_count_stops_early_in_small_memory():
    inst = standard_instance(complete_graph(4), 1, 4)
    tracemalloc.start()
    try:
        trace = simulate(inst, 10 ** 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.converged_at == 127
    assert peak < 10 * 2 ** 20


def test_horizon_must_be_positive():
    inst = standard_instance(complete_graph(4), 1, 4)
    for h in (0, -3):
        with pytest.raises(ValueError):
            TruncatedState.initial(inst, h)
        with pytest.raises(ValueError):
            simulate(inst, 10, horizon=h)


@pytest.mark.parametrize("phase", [-1, 1])
def test_float_operator_is_the_exact_operator(phase):
    # Every entry of the float E is float() of the exact entry, including
    # the reversal weights eps (2/d - 1), on every n <= 4 graph and tail set.
    for n in range(2, 5):
        for g in enumerate_connected(n):
            for r in range(1, n + 1):
                for boundary in itertools.combinations(range(1, n + 1), r):
                    inst = WalkInstance(g, boundary, (rat(1),) * r, phase)
                    exact = internal_operator(inst).data
                    mat = _float_operator(inst).mat
                    want = np.array([[float(x) for x in row]
                                     for row in exact])
                    assert mat.tobytes() == want.tobytes()


def test_contraction_rate():
    k4 = standard_instance(complete_graph(4), 1, 4)
    rate, steps = contraction_rate(k4)
    assert abs(rate - 0.8431) < 5e-5
    assert 133 <= steps <= 137
    rate, steps = contraction_rate(standard_instance(cycle_graph(4), 1, 4))
    assert abs(rate - 0.7769) < 5e-5
    assert 89 <= steps <= 93


def test_contraction_rate_without_a_positive_threshold():
    # The residual never drops below a threshold <= 0, so there is no
    # prediction; any threshold >= 1 is met after one step.
    k4 = standard_instance(complete_graph(4), 1, 4)
    rate = contraction_rate(k4)[0]
    for stop in (None, 0.0, -1.0, float("nan")):
        assert contraction_rate(k4, stop) == (rate, None)
    for stop in (1.0, float("inf")):
        assert contraction_rate(k4, stop) == (rate, 1)


def _simulate_peak(inst, steps, horizon):
    tracemalloc.start()
    try:
        simulate(inst, steps, horizon=horizon, residual_stop=None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_horizon_costs_no_memory_beyond_the_snapshots():
    # Every internal vector is kept for the snapshots anyway; the default
    # horizon (steps + 2) must not keep anything per step on top of them.
    inst = standard_instance(complete_graph(4), 1, 4)
    assert _simulate_peak(inst, 5000, None) <= \
        1.05 * _simulate_peak(inst, 5000, 1)


# The cycle path: once a block of steps ends on a row with the bits of a
# row at most 64 steps earlier, the rest of the run is copied.  C4 (1, 4)
# reaches a fixed point (period 1) at step 146; K4 (1, 4) repeats with
# period 10 from step 344, its residuals between 2.2e-16 and 3.9e-16.

def _cycle_instances():
    return [("c4-period-1", standard_instance(cycle_graph(4), 1, 4), 1),
            ("k4-period-10", standard_instance(complete_graph(4), 1, 4), 10)]


@pytest.mark.parametrize("name, inst, period", _cycle_instances(),
                         ids=[c[0] for c in _cycle_instances()])
def test_cycle_path_equals_reference(name, inst, period):
    trace = simulate(inst, 2000, residual_stop=None)
    assert trace.cycle_period == period
    start = trace.cycle_start
    assert 0 <= start < 2000 - 64
    snaps = trace.snapshots
    # Row k - 1 is step k; from the cycle start on, step k + period repeats
    # step k bit for bit, and one step earlier it does not.
    rows = np.concatenate([np.zeros((1, snaps.shape[1])), snaps])
    bits = rows.view(np.uint64)
    assert np.array_equal(bits[start + period:], bits[start:-period])
    assert not np.array_equal(bits[start - 1 + period], bits[start - 1])
    cycle_res = trace.residuals[start:start + period]
    stops = [None, 1e-10]
    if period >= 2:
        assert min(cycle_res) < max(cycle_res)
        stops.append((min(cycle_res) + max(cycle_res)) / 2)
    exact = stationary_state(inst)
    for stop in stops:
        got = simulate(inst, 2000, exact=exact, residual_stop=stop)
        assert got.cycle_period is None or got.converged_at is None
        _assert_same_trace(
            got,
            _reference_simulate(inst, 2000, exact=exact, residual_stop=stop))


def test_cycle_found_before_the_last_block_fills_the_rest():
    # Every step count ending past the detection copies a different number
    # of rows; each run equals the reference.
    inst = standard_instance(complete_graph(4), 1, 4)
    for steps in (384, 400, 449, 450, 451, 513, 777):
        _assert_same_trace(simulate(inst, steps, residual_stop=None),
                           _reference_simulate(inst, steps,
                                               residual_stop=None))


def test_buffer_growth_with_a_threshold_never_reached():
    # A run that may stop early starts with 1025 rows and grows: past the
    # cycle on K4, and by doubling on the 3x4 grid, which never repeats.
    for inst in (standard_instance(complete_graph(4), 1, 4),
                 standard_instance(_grid_graph(3, 4), 1, 12)):
        trace = simulate(inst, 2500, residual_stop=1e-300)
        assert trace.converged_at is None and trace.steps == 2500
        _assert_same_trace(trace, _reference_simulate(
            inst, 2500, residual_stop=1e-300))


def test_grid_run_never_repeats_and_is_unchanged():
    inst = standard_instance(_grid_graph(3, 4), 1, 12)
    exact = stationary_state(inst)
    trace = simulate(inst, 2000, exact=exact, residual_stop=None)
    assert trace.cycle_start is None and trace.cycle_period is None
    _assert_same_trace(trace, _reference_simulate(inst, 2000, exact=exact,
                                                  residual_stop=None))


def test_cycle_reported_only_without_an_early_stop():
    inst = standard_instance(complete_graph(4), 1, 4)
    trace = simulate(inst, 2000, residual_stop=None)
    assert (trace.cycle_start, trace.cycle_period) == (344, 10)
    stopped = simulate(inst, 2000)
    assert stopped.converged_at == 127
    assert stopped.cycle_start is None and stopped.cycle_period is None


def test_long_cycling_run_holds_only_its_snapshots():
    # 200k steps on K4: the buffer is the snapshot array, and the copied
    # residuals share the float objects of one period, so beyond the
    # residual list's own pointers only a small constant remains.
    inst = standard_instance(complete_graph(4), 1, 4)
    tracemalloc.start()
    try:
        trace = simulate(inst, 200_000, residual_stop=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.steps == 200_000 and trace.cycle_period == 10
    assert peak <= trace.snapshots.nbytes + 8 * len(trace.residuals) + 2 ** 20


def test_growing_run_holds_only_its_snapshots():
    # 20k steps on the 3x4 grid with a threshold never reached: the buffer
    # starts at 1025 rows and grows in place, so the peak never holds an
    # old buffer beside a new one.
    inst = standard_instance(_grid_graph(3, 4), 1, 12)
    tracemalloc.start()
    try:
        trace = simulate(inst, 20_000, residual_stop=1e-300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.converged_at is None and trace.steps == 20_000
    assert peak <= trace.snapshots.nbytes + 8 * len(trace.residuals) + 2 ** 20


@pytest.mark.parametrize("hook, current",
                         [(sys.setprofile, sys.getprofile),
                          (sys.settrace, sys.gettrace)],
                         ids=["setprofile", "settrace"])
def test_growing_runs_under_a_profile_or_trace_hook(hook, current):
    # A profile or trace hook makes the interpreter hold one more reference
    # to the trajectory buffer while it grows.  C6 (1, 4) grows once it
    # has found its cycle, the 3x4 grid by doubling; each hooked run
    # equals the unhooked one bit for bit.
    for inst, steps in ((standard_instance(cycle_graph(6), 1, 4), 3000),
                        (standard_instance(_grid_graph(3, 4), 1, 12), 2500)):
        plain = simulate(inst, steps, residual_stop=None)
        previous = current()
        hook(lambda frame, event, arg: None)
        try:
            hooked = simulate(inst, steps, residual_stop=None)
        finally:
            hook(previous)
        assert (hooked.cycle_start, hooked.cycle_period) == \
            (plain.cycle_start, plain.cycle_period)
        _assert_same_trace(hooked, (plain.snapshots, plain.residuals,
                                    plain.final, plain.converged_at,
                                    plain.final_distance))


def test_stepped_state_keeps_only_its_horizon():
    # 1000 steps at horizon 4 keep the 4 vectors the outbound tail arcs
    # are read from, and give the reference amplitudes bit for bit.
    inst = standard_instance(complete_graph(4), 1, 4)
    state = TruncatedState.initial(inst, 4)
    for _ in range(1000):
        state = step(state, inst)
    assert len(state.history) <= 4
    want = _reference_simulate(inst, 1000, horizon=4, residual_stop=None)[2]
    assert _same_amplitudes(state.amplitudes(), want.amplitudes())
