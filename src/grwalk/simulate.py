"""Float time-domain simulation of the walk on the graph plus truncated tails.

The constant-inflow dynamics is iterated in double precision: a signed
Grover coin at every internal vertex, free propagation on the tails, and
the deepest inbound tail arc refreshed to the inflow each step so the
tail feeds the graph forever.  With truncation depth L = T + 2 the
missing tail beyond the horizon cannot influence any internal arc within
T steps (amplitudes propagate at speed one), so the trace on the internal
arcs is exact up to float rounding.

Only the internal arcs are stored.  Every inbound tail arc holds the
constant inflow alpha at every step, so a step is psi <- E psi + S alpha
with the source S alpha computed once.  An outbound tail arc at depth d
holds what the boundary coin sent out d + 1 steps earlier; ``amplitudes``
derives it from the internal vector of that earlier state.  The states of
one trajectory share a single list of those vectors, oldest first, so a
state is its own vector, that list and its step index.

Tail vertices are labelled ("t", j, d): depth d >= 1 on the tail attached
to the j-th boundary vertex.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .stationary import coin_sign, operator_entries

# Steps per vectorised residual pass in ``simulate``.
_BLOCK = 64
# Moduli at or above this count as on the unit circle (confined states).
_UNIT_CIRCLE = 1.0 - 1e-9
# An outbound tail arc the inflow has not reached yet.
_ZERO = np.float64(0.0)


class _FloatOperator(NamedTuple):
    """The float dynamics psi <- mat psi + source, and what the boundary
    coins need to send their outflow down the tails."""

    mat: np.ndarray                 # E
    source: np.ndarray              # S alpha
    alpha: np.ndarray               # inflow per tail
    sign: float                     # coin sign eps, exactly +-1
    weights: list                   # 2/deg~(v) per boundary vertex v
    in_arcs: list                   # internal in-arcs of v, neighbour order


def _float_operator(inst):
    """E is float() of every exact entry; S puts the coin weight
    eps 2/deg~(v) of boundary vertex v on its out-arcs."""
    g = inst.graph
    n_arcs = 2 * g.m
    mat = np.zeros((n_arcs, n_arcs))
    for i, j, value in operator_entries(inst):
        mat[i, j] = float(value)
    sign = float(coin_sign(inst.phase))
    weights = [2.0 / inst.tilde_degree(v) for v in inst.boundary]
    unit_sources = np.zeros((n_arcs, inst.r))
    for j, v in enumerate(inst.boundary):
        for x in g.neighbors(v):
            unit_sources[g.arc_index((v, x)), j] = sign * weights[j]
    alpha = np.array([float(a) for a in inst.inflow])
    in_arcs = [[g.arc_index((x, v)) for x in g.neighbors(v)]
               for v in inst.boundary]
    return _FloatOperator(mat, unit_sources @ alpha, alpha, sign, weights,
                          in_arcs)


@dataclass(slots=True)
class TruncatedState:
    """Walker amplitudes on the internal arcs plus tails cut at depth L.

    Only the internal arcs are stored; the tail arcs are derived in
    ``amplitudes`` from the inflow and from earlier internal vectors.
    ``history[:t]`` holds the vectors of the t states before this one,
    oldest first; the states of a trajectory share one list and read only
    its first t entries, of which ``amplitudes`` uses the last ``horizon``.
    """

    instance: object
    horizon: int
    internal: np.ndarray            # indexed by the graph's arc order
    history: list = field(repr=False, compare=False)
    t: int                          # steps taken from the zero start
    operator: tuple = field(repr=False, compare=False)

    @classmethod
    def initial(cls, inst, horizon):
        """The constant-inflow start: alpha_j on every inbound tail arc."""
        if horizon < 1:
            raise ValueError("the tail horizon must be at least 1")
        return cls(inst, horizon, np.zeros(2 * inst.graph.m), [], 0,
                   _float_operator(inst))

    def amplitudes(self):
        """Amplitude of every arc of the truncated tailed graph."""
        g = self.instance.graph
        out = {a: self.internal[i] for i, a in enumerate(g.arcs)}
        op = self.operator
        for j, v in enumerate(self.instance.boundary):
            nodes = [v] + [("t", j, d) for d in range(1, self.horizon + 1)]
            for d in range(self.horizon):
                out[(nodes[d + 1], nodes[d])] = op.alpha[j]
                out[(nodes[d], nodes[d + 1])] = (
                    _boundary_out(op, self.history[self.t - 1 - d], j)
                    if d < self.t else _ZERO)
        return out


def _boundary_out(op, internal, j):
    """What the coin at the j-th boundary vertex sends down its tail from
    a state with internal vector ``internal``: one coin application over
    the internal in-arcs plus the inbound tail arc."""
    entering = op.alpha[j]
    incoming = sum(internal[i] for i in op.in_arcs[j])
    return op.sign * (op.weights[j] * (entering + incoming) - entering)


def step(state, inst):
    """One application of the time evolution: signed Grover coins at the
    internal vertices fed by the constant inflow.  ``inst`` must be the
    state's instance.  The new state appends ``state.internal`` to the
    shared history; a state stepped a second time gives its successor a
    copy of its own t entries instead (see ``TruncatedState``)."""
    op = state.operator
    history = state.history
    if len(history) != state.t:
        history = history[:state.t]
    history.append(state.internal)
    return TruncatedState(inst, state.horizon,
                          op.mat @ state.internal + op.source, history,
                          state.t + 1, op)


@dataclass
class SimulationTrace:
    """Per-step internal snapshots, successive-step residuals, final state."""

    instance: object
    snapshots: list                 # internal-arc vectors, snapshots[0] = step 1
    residuals: list                 # sup-norm of successive differences on A0
    final: TruncatedState
    converged_at: int               # step index, or None if T was exhausted
    final_distance: float           # sup-norm to exact psi_inf, or None

    @property
    def steps(self):
        return len(self.snapshots)


def simulate(inst, steps, horizon=None, exact=None, residual_stop=1e-10):
    """Iterate the truncated dynamics for up to ``steps`` steps.

    Stops early once the internal residual drops below ``residual_stop``
    (pass None to always run the full count).  When ``exact`` (an exact
    stationary ArcField) is given, the final sup-norm distance to it is
    reported.  The snapshots are the final state's history after the zero
    start plus its own internal vector, the same arrays, not copies.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if horizon is None:
        horizon = steps + 2
    state = TruncatedState.initial(inst, horizon)
    residuals = []
    converged_at = None
    while state.t < steps and converged_at is None:
        block = [state]
        for _ in range(min(_BLOCK, steps - state.t)):
            block.append(step(block[-1], inst))
        vectors = np.array([s.internal for s in block])
        res = np.abs(np.diff(vectors, axis=0)).max(axis=1).tolist()
        if residual_stop is not None:
            hit = next((k for k, r in enumerate(res) if r < residual_stop),
                       None)
            if hit is not None:
                del block[hit + 2:], res[hit + 1:]
                converged_at = block[-1].t
        residuals.extend(res)
        state = block[-1]
    del state.history[state.t:]          # vectors of steps past an early stop
    distance = None
    if exact is not None:
        target = np.array([float(x) for x in exact.vector()])
        distance = float(np.max(np.abs(state.internal - target)))
    return SimulationTrace(inst, state.history[1:] + [state.internal],
                           residuals, state, converged_at, distance)


def contraction_rate(inst, residual_stop=1e-10):
    """(rate, steps): the largest |lambda| of the float E strictly inside
    the unit circle, and the steps k with rate**k below ``residual_stop``.
    ``steps`` is None when ``residual_stop`` is None or not positive: the
    residual never drops below such a threshold.

    Eigenvalues on the unit circle belong to confined states, which the
    inflow never excites from the zero start, so ``rate`` bounds how fast
    the residual envelope decays.  This costs an eigendecomposition of a
    2m x 2m matrix; ``simulate`` never calls it.
    """
    moduli = np.abs(np.linalg.eigvals(_float_operator(inst).mat))
    inside = moduli[moduli < _UNIT_CIRCLE]
    rate = float(inside.max()) if inside.size else 0.0
    if residual_stop is None or not residual_stop > 0:
        return rate, None
    if rate == 0.0 or residual_stop >= 1:
        return rate, 1
    return rate, max(1, math.ceil(math.log(residual_stop) / math.log(rate)))


def write_trace_csv(trace, path):
    """Trace export: one row per (step, internal arc), lexicographic arc
    order, with the step's residual repeated per row.

    ``path`` is a file name, or a text file opened with ``newline=""``,
    which is written to and left open."""
    if not hasattr(path, "write"):
        with open(path, "w", newline="") as fh:
            write_trace_csv(trace, fh)
        return
    arcs = trace.instance.graph.arcs
    writer = csv.writer(path)
    writer.writerow(["step", "arc_origin", "arc_terminus",
                     "amplitude", "residual"])
    for k, (snap, res) in enumerate(zip(trace.snapshots, trace.residuals),
                                    start=1):
        for i, (o, t) in enumerate(arcs):
            writer.writerow([k, o, t, repr(float(snap[i])), repr(res)])
