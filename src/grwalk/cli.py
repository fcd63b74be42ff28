"""Command-line front end: analyze, rank, simulate, selftest.

Exit codes: 0 success, 1 internal disagreement or failed self-test,
2 input error (unreadable or malformed instance, bad arguments).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .catalog import analyze, rank, selftest
from .graphs import GraphError, parse_instance
from .ratlin import SingularMatrixError, format_rational
from .simulate import contraction_rate, simulate, write_trace_csv
from .stationary import stationary_state


_fr = format_rational          # a rational as an exact-fraction string


def _matrix_strs(m):
    return [[_fr(x) for x in row] for row in m.data]


def _load_instance(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {path}: {reason}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_instance(text)
    except GraphError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _instance_dict(inst):
    return {"n": inst.graph.n,
            "edges": [list(e) for e in inst.graph.edges],
            "boundary": list(inst.boundary),
            "inflow": [_fr(a) for a in inst.inflow],
            "z": inst.phase}


def _out_of_float_range(path, exc):
    print(f"error: {path}: a value is outside the float range ({exc})",
          file=sys.stderr)
    return 2


def cmd_analyze(args):
    inst = _load_instance(args.file)
    if args.simulate is not None and args.simulate < 1:
        print("error: --simulate must be at least 1", file=sys.stderr)
        return 2
    try:
        report = analyze(inst, simulate_steps=args.simulate)
        # Rendered in full before printing, so that a value outside the
        # float range prints nothing but the error.
        text = (json.dumps(_analysis_payload(inst, report), indent=2)
                if args.json else _analysis_text(inst, report))
    except SingularMatrixError as exc:
        print(f"error: stationary solve failed: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        return _out_of_float_range(args.file, exc)
    print(text)
    return 0 if report.ok else 1


def _analysis_payload(inst, report):
    return {
        "instance": _instance_dict(inst),
        "bipartite": report.bipartite,
        "partition": ({"X": sorted(report.partition.X),
                       "Y": sorted(report.partition.Y)}
                      if report.partition else None),
        "odd_cycle": list(report.odd_cycle) if report.odd_cycle else None,
        "psi": [{"origin": a[0], "terminus": a[1], "value": _fr(v),
                 "approx": float(v)}
                for a, v in report.psi.items()],
        "energy": {r.name: (None if r.value is None else _fr(r.value))
                   for r in report.energy_routes},
        "routes_agree": report.routes_agree,
        "beta": [_fr(b) for b in report.beta],
        "sigma": _matrix_strs(report.sigma),
        "classification": report.classification,
        "scattering_ok": report.scattering_ok,
        "audit_ok": report.audit.ok,
        "factors": (None if report.factors is None else {
            "chi1": report.factors.chi1, "chi2": report.factors.chi2,
            "iota1": report.factors.iota1, "iota2": report.factors.iota2,
            "edge_count": report.factors.edge_count}),
        "simulation": report.simulation,
        "ok": report.ok,
    }


def _analysis_text(inst, report):
    out = []
    g = inst.graph
    out.append(f"instance: n={g.n}, edges={list(g.edges)}")
    out.append(f"tails at {list(inst.boundary)}, inflow "
               f"({', '.join(map(_fr, inst.inflow))}), z={inst.phase:+d}")
    if report.bipartite:
        out.append(f"bipartite: X={sorted(report.partition.X)} "
                   f"Y={sorted(report.partition.Y)}")
    else:
        out.append(f"non-bipartite (odd cycle {list(report.odd_cycle)})")
    out.append("stationary state:")
    for a, v in report.psi.items():
        out.append(f"  {a[0]}->{a[1]}  {_fr(v):>10s}  ({float(v):+.6f})")
    out.append("energy:")
    for r in report.energy_routes:
        val = "MISMATCH" if r.value is None else \
            f"{_fr(r.value)} ({float(r.value):.6f})"
        out.append(f"  {r.name:22s} {val}")
    out.append("routes agree" if report.routes_agree else "ROUTE DISAGREEMENT")
    out.append(f"beta = ({', '.join(_fr(b) for b in report.beta)})")
    out.append("sigma =")
    for row in _matrix_strs(report.sigma):
        out.append("  [" + "  ".join(f"{x:>5s}" for x in row) + "]")
    out.append(f"scattering class: {report.classification}")
    if not report.scattering_ok:
        out.append("SCATTERING MISMATCH: sigma is not the orthogonal matrix "
                   "the surface theorem predicts")
    if report.audit.ok:
        out.append("Kirchhoff audit: all laws hold")
    else:
        names = ", ".join(c.name for c in report.audit.failures())
        out.append(f"Kirchhoff audit FAILED: {names}")
    if report.factors is not None:
        f = report.factors
        out.append(f"factors: chi1={f.chi1} chi2={f.chi2} "
                   f"iota1={f.iota1} iota2={f.iota2}")
    if report.simulation is not None:
        s = report.simulation
        status = (f"not converged in {s['steps']} steps"
                  if s["converged_at"] is None
                  else f"converged at step {s['converged_at']}")
        out.append(f"simulation: {status} (predicted {s['predicted_steps']} "
                   f"steps to residual 1e-10), final residual "
                   f"{s['final_residual']:.3e}, distance to exact "
                   f"{s['distance_to_exact']:.3e}, contraction rate "
                   f"{s['contraction_rate']:.4f}")
    return "\n".join(out)


def cmd_rank(args):
    try:
        report = rank(args.n, args.z)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "n": report.n, "z": report.z,
            "configurations": report.configurations,
            "classes": [{"edge_count": r.edge_count,
                         "bipartite": r.bipartite,
                         "comfort": _fr(r.comfort),
                         "approx": float(r.comfort),
                         "scattering": r.label,
                         "members": r.members,
                         "distances": sorted(r.distances),
                         "representative": {
                             "edges": [list(e) for e in r.representative[0].edges],
                             "boundary": list(r.representative[1])}}
                        for r in report.rows],
            "tie_groups": report.tie_groups,
            "class_maxima": [{"edge_count": m.edge_count,
                              "comfort": _fr(m.comfort),
                              "approx": float(m.comfort),
                              "edges": [list(e) for e in m.representative.edges],
                              "boundary": list(m.argmax_pair)}
                             for m in report.class_maxima],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"value classes for n={report.n}, z={report.z:+d} "
          f"({report.configurations} configurations):")
    print(f"{'#':>2s}  {'|E|':>3s}  {'bip':>3s}  {'comfort':>8s}  "
          f"{'approx':>8s}  {'scat':>4s}  {'members':>7s}")
    for i, r in enumerate(report.rows, 1):
        print(f"{i:>2d}  {r.edge_count:>3d}  {'T' if r.bipartite else 'F':>3s}"
              f"  {_fr(r.comfort):>8s}  {float(r.comfort):8.4f}"
              f"  {r.label:>4s}  {r.members:>7d}")
    ranking = []
    for group in report.tie_groups:
        ranking.append("{" + ", ".join(str(i + 1) for i in group) + "}")
    print("comfort ranking (descending, ties braced): " + " > ".join(ranking))
    print("per-shape maxima over boundary pairs:")
    for m in report.class_maxima:
        print(f"  |E|={m.edge_count}  edges={list(m.representative.edges)}  "
              f"max comfort {_fr(m.comfort)} ({float(m.comfort):.4f}) "
              f"at pair {m.argmax_pair}")
    return 0


def _cannot_write(path, exc):
    print(f"error: cannot write {path}: {exc.strerror or exc}",
          file=sys.stderr)
    return 2


def cmd_simulate(args):
    inst = _load_instance(args.file)
    if args.steps < 1:
        print("error: --steps must be at least 1", file=sys.stderr)
        return 2
    # Open --out before the exact solve and the run, so that a path that
    # cannot be written fails at once; any failure after that removes it.
    try:
        out = open(args.out, "w", newline="") if args.out else None
    except OSError as exc:
        return _cannot_write(args.out, exc)
    finished = False
    try:
        exact = stationary_state(inst)
        try:                            # the trace grows with --steps
            trace = simulate(inst, args.steps, exact=exact,
                             residual_stop=args.residual_stop)
        except MemoryError:
            print(f"error: {args.file}: the trace of {args.steps} steps "
                  f"does not fit in memory", file=sys.stderr)
            return 2
        rate, predicted = contraction_rate(inst, args.residual_stop)
        if out:
            with out:
                write_trace_csv(trace, out)
        finished = True
    except OverflowError as exc:
        return _out_of_float_range(args.file, exc)
    except OSError as exc:              # only writing the trace does I/O
        return _cannot_write(args.out, exc)
    finally:
        if out and not finished:
            out.close()
            with contextlib.suppress(OSError):
                os.remove(args.out)
    if out:
        print(f"trace written to {args.out}")
    print(f"steps run: {trace.steps} (requested {args.steps})")
    if trace.converged_at is not None:
        print(f"residual dropped below threshold at step {trace.converged_at}")
    print(f"final residual: {trace.residuals[-1]:.6e}")
    if trace.cycle_period is None:
        print("float trajectory: no exact repeat found")
    else:
        print(f"float trajectory: repeats exactly from step "
              f"{trace.cycle_start} with period {trace.cycle_period}; "
              f"later steps copied, not computed")
    print(f"sup-norm distance to exact stationary state: "
          f"{trace.final_distance:.6e}")
    if predicted is None:
        prediction = (f"no early stop at residual threshold "
                      f"{args.residual_stop:g}")
    else:
        prediction = (f"predicted steps to residual "
                      f"{args.residual_stop:g}: {predicted}")
    print(f"contraction rate: {rate:.4f} (largest |eigenvalue| of E inside "
          f"the unit circle); {prediction}")
    return 0


def cmd_selftest(args):
    results = selftest()
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name:28s} ({r.seconds:6.2f}s)  {r.detail}")
        failed += not r.ok
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grwalk",
        description="Exact analysis and float simulation of Grover walks "
                    "on finite graphs with semi-infinite tails.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full exact analysis of one instance")
    p.add_argument("file", help="instance file")
    p.add_argument("--simulate", type=int, metavar="T", default=None,
                   help="also run the float simulator for up to T steps")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("rank", help="value classes over all connected graphs")
    p.add_argument("--n", type=int, required=True, help="vertex count (2-5)")
    p.add_argument("--z", type=int, choices=(1, -1), default=-1,
                   help="coin phase, +1 or -1")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("simulate", help="float time-domain simulation")
    p.add_argument("file", help="instance file")
    p.add_argument("--steps", type=int, required=True, help="step count")
    p.add_argument("--out", metavar="CSV", default=None,
                   help="write the per-step trace to this CSV file")
    p.add_argument("--residual-stop", type=float, default=1e-10,
                   help="early-stop residual threshold (default 1e-10)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("selftest", help="run every invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
