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
derives it from the internal vector of that earlier state, so a state is
its own vector, the vectors before it (oldest first) and its step index.

``simulate`` keeps a trajectory in one float64 buffer, row k the vector
after k steps.  Step 1 goes through the public ``step``; every later row
is the same matrix-vector product and sum written in place, so the rows
are bit for bit what stepping state after state gives, and the one
``TruncatedState`` it builds, at the end, views the buffer as its
history.  Often the float trajectory lands on an exact cycle: at the end
of a block of steps, the last row has the bits of a row p <= 64 steps
earlier.  A step is a function of the bits of its input vector alone, so
from there on every row is the row p before it, and the rest of the run
is copied instead of computed, its residuals repeated.  The comparison is
on the bits, not with ``==``: -0.0 == +0.0, yet the two may lead to
different later vectors, and a NaN never equals itself.

Tail vertices are labelled ("t", j, d): depth d >= 1 on the tail attached
to the j-th boundary vertex.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .stationary import operator_entries

# Steps per vectorised residual pass and cycle check in ``simulate``, and
# the longest period the check finds.
_BLOCK = 64
# Trajectory buffer rows a run that may stop early starts with.
_FIRST_ROWS = 1024
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
    sign = float(inst.phase)
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
    oldest first, of which ``amplitudes`` uses the last ``horizon``: a list
    that the states of a ``step`` trajectory share, reading only its first
    t entries, or the rows of ``simulate``'s trajectory buffer.
    """

    instance: object
    horizon: int
    internal: np.ndarray            # indexed by the graph's arc order
    history: object = field(repr=False, compare=False)  # list or 2-D array
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
    shared history list; a state stepped a second time, or one whose
    history is ``simulate``'s buffer, gives its successor a list of its
    own t entries instead (see ``TruncatedState``)."""
    op = state.operator
    history = state.history
    if not isinstance(history, list) or len(history) != state.t:
        history = list(history[:state.t])
    history.append(state.internal)
    return TruncatedState(inst, state.horizon,
                          op.mat @ state.internal + op.source, history,
                          state.t + 1, op)


@dataclass
class SimulationTrace:
    """Per-step internal snapshots, successive-step residuals, final state.

    ``snapshots`` views the run's one buffer: row k - 1 is the vector after
    step k, and ``final.history`` views the same rows.  From step
    ``cycle_start`` on, the vector of step k + ``cycle_period`` has the
    bits of the vector of step k, so the rows and residuals past the first
    repeat were copied, not computed.  Both are None when the residual
    stopped the run first, or no repeat with a period of at most 64 steps
    showed at the end of a 64-step block.
    """

    instance: object
    snapshots: np.ndarray           # internal-arc vectors, snapshots[0] = step 1
    residuals: list                 # sup-norm of successive differences on A0
    final: TruncatedState
    converged_at: int               # step index, or None if T was exhausted
    final_distance: float           # sup-norm to exact psi_inf, or None
    cycle_start: int = None         # first step of an exact float cycle
    cycle_period: int = None        # its length in steps

    @property
    def steps(self):
        return len(self.snapshots)


def simulate(inst, steps, horizon=None, exact=None, residual_stop=1e-10):
    """Iterate the truncated dynamics for up to ``steps`` steps.

    Stops early once the internal residual drops below ``residual_stop``
    (pass None to always run the full count).  When ``exact`` (an exact
    stationary ArcField) is given, the final sup-norm distance to it is
    reported.  The snapshots and the final state's history are views of
    one buffer; the final internal vector is a copy of its last row.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if horizon is None:
        horizon = steps + 2
    first = step(TruncatedState.initial(inst, horizon), inst)
    op = first.operator
    mat, source = op.mat, op.source
    # A run that cannot stop early fills every row, so it gets them at once.
    rows = steps + 1 if residual_stop is None else min(steps, _FIRST_ROWS) + 1
    buf = np.empty((rows, first.internal.size))
    buf[0] = 0.0
    buf[1] = first.internal
    residuals = []
    converged_at = cycle = None
    t = 0                                   # rows 0 .. t are done
    while t < steps and converged_at is None and cycle is None:
        end = min(t + _BLOCK, steps)
        if end >= len(buf):
            buf = _grown(buf, min(steps + 1, 2 * len(buf)), t)
        # step's product (the same dgemv as ``@``) and sum, in place
        for prev, row in itertools.pairwise(buf[max(t, 1):end + 1]):
            np.dot(mat, prev, row)
            np.add(row, source, row)
        res = np.abs(np.diff(buf[t:end + 1], axis=0)).max(axis=1).tolist()
        hit = _first_below(res, residual_stop)
        if hit is not None:
            del res[hit + 1:]
            end = converged_at = t + hit + 1
        residuals.extend(res)
        t = end
        if converged_at is None:
            cycle = _cycle(buf, t)
    if cycle is not None and t < steps:
        period = cycle[1]
        repeat = residuals[t - period:t]    # those of steps t+1 .. t+period
        hit = _first_below(repeat[:steps - t], residual_stop)
        end = steps if hit is None else t + hit + 1
        converged_at = None if hit is None else end
        if end >= len(buf):
            buf = _grown(buf, end + 1, t)
        _repeat_rows(buf, t, end, period)
        residuals.extend(itertools.islice(itertools.cycle(repeat), end - t))
        t = end
    final = TruncatedState(inst, horizon, buf[t].copy(), buf[:t], t, op)
    distance = None
    if exact is not None:
        target = np.array([float(x) for x in exact.vector()])
        distance = float(np.max(np.abs(final.internal - target)))
    return SimulationTrace(inst, buf[1:t + 1], residuals, final, converged_at,
                           distance, *(cycle or (None, None)))


def _grown(buf, rows, t):
    """A buffer of ``rows`` rows holding the first t + 1 rows of ``buf``."""
    out = np.empty((rows, buf.shape[1]))
    out[:t + 1] = buf[:t + 1]
    return out


def _first_below(residuals, stop):
    """Index of the first residual below ``stop``; None if there is none
    or ``stop`` is None."""
    if stop is None:
        return None
    return next((k for k, r in enumerate(residuals) if r < stop), None)


def _cycle(buf, t):
    """(start, period) when row t has the bits of one of the ``_BLOCK``
    rows before it, else None.  ``period`` is the distance to the nearest
    such row, and ``start`` the first row that the row ``period`` later
    repeats; from ``start`` on, every row repeats."""
    bits = buf[:t + 1].view(np.uint64)
    lo = max(0, t - _BLOCK)
    match = np.flatnonzero((bits[lo:t] == bits[t]).all(axis=1))
    if not match.size:
        return None
    period = t - lo - int(match[-1])
    # The previous block end found no repeat, so the cycle starts within
    # the last two blocks; a repeat, once there, holds for every later row.
    lo = max(0, t - 2 * _BLOCK)
    same = (bits[lo + period:] == bits[lo:t + 1 - period]).all(axis=1)
    return lo + int(np.argmax(same)), period


def _repeat_rows(buf, t, end, period):
    """Rows t + 1 .. end of a trajectory that repeats with ``period`` from
    row t + 1 - period on: each row is the row ``period`` before it.  Each
    slice copied doubles the run of rows in place."""
    src, row = t + 1 - period, t + 1
    while row <= end:
        n = min(row - src, end + 1 - row)
        buf[row:row + n] = buf[src:src + n]
        row += n


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
