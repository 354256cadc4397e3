"""Command-line front end.

JSON in, JSON out. Matrices are {"n": int, "data": [[row], ...]}, vectors
{"n": int, "data": [...]}, parallelepipeds {"n": int, "edges": [[edge], ...]}.
Every result carries a run manifest (input hashes, seed, tolerances,
version) so a run can be reproduced byte for byte. A subcommand takes only
the tolerance flags it applies, and the manifest records only those a run
applied; they default to config.DEFAULT_TOLERANCES and must be finite and
>= 0. Input entries must be finite, and output is strict JSON (no NaN or
Infinity).

Exit codes: 0 success, 1 validation error, 2 not converged, 3 bound
violation found by a search.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, check_count, check_tolerance
from .constructors import (
    construct_L_max,
    construct_S_max,
    construct_through_vertex,
)
from .equalizer import equalize_diagonal, equalize_diagonal_barycentric
from .errors import InscribedExtremaError, NotConverged
from .functionals import LOG_MAX, LOG_MIN, bound_L_max, bound_S_max, measure
from .geometry import Ellipsoid, Parallelepiped, is_inscribed
from .oracle import (
    EXPLORER_RESTARTS,
    explore_restricted_schur_horn,
    random_search_global,
    random_search_vertex,
)

SCHEMA = "inscribed-extrema/1"
SYMMETRY_REL_TOL = 1e-12
FUNCTIONAL_NAMES = {"edge": "edge_length", "facet": "facet_area"}
# flag -> ToleranceConfig field; the field is also the argparse dest and the
# manifest key. Each subcommand registers only the flags it applies, so the
# manifest records exactly the tolerances a run applied
TOLERANCE_FLAGS = {
    "--tol-inscribed": "inscribed_tol",
    "--tol-equalizer": "equalizer_tol",
    "--tol-bound-slack": "bound_slack",
}


class CliError(Exception):
    pass


def _read_json(args, name):
    """Parse the input file args.<name>, read once; its SHA-256 goes to the manifest."""
    path = getattr(args, name)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    args.input_sha256[name] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise CliError(f"cannot parse {path}: {exc}")


def _load_array(args, name, key, layout):
    """(n, doc[key]) from the {"n": int, key: layout} file args.<name>; n must be a JSON
    integer and the entries finite."""
    path = getattr(args, name)
    doc = _read_json(args, name)
    try:
        n = doc["n"]
        a = np.asarray(doc[key], dtype=float)
        if type(n) is not int:  # not a bool, a string or a float
            raise TypeError(f"n = {n!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: expected {{'n': int, '{key}': {layout}}} ({exc})")
    if not np.all(np.isfinite(a)):
        raise CliError(f"{path}: entries must be finite numbers")
    return n, a


def _load_matrix(args):
    n, a = _load_array(args, "matrix", "data", "[[...]]")
    if a.shape != (n, n):
        raise CliError(f"{args.matrix}: data shape {a.shape} does not match n={n}")
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_REL_TOL * float(np.max(np.abs(a))):
        raise CliError(f"{args.matrix}: not symmetric")
    return a


def _load_vector(args):
    n, v = _load_array(args, "vertex", "data", "[...]")
    v = v.ravel()
    if v.size != n:
        raise CliError(f"{args.vertex}: vector length {v.size} does not match n={n}")
    return v


def _load_parallelepiped(args):
    n, v = _load_array(args, "parallelepiped", "edges", "[[...]]")
    return Parallelepiped.from_dict({"n": n, "edges": v})


def _manifest(args):
    return {
        "command": args.command,
        "inputs": {
            name: {"path": getattr(args, name), "sha256": args.input_sha256[name]}
            for name in ("matrix", "vertex", "parallelepiped") if name in args.input_sha256
        },
        "seed": getattr(args, "seed", None),
        "tolerances": {
            key: getattr(args, key) for key in TOLERANCE_FLAGS.values() if hasattr(args, key)
        },
        "version": __version__,
    }


def _write_atomic(path, text):
    """Write through a temporary file beside path; no temporary file outlives
    the call, and an OSError becomes a CliError (exit 1)."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".inscribed-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, result, error):
    payload = {"schema": SCHEMA, "manifest": _manifest(args)}
    if error is not None:
        payload["error"] = error
    payload["result"] = result
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise CliError(f"result is not finite, refusing to emit it ({exc})")
    if args.output:
        _write_atomic(args.output, text)
    else:
        print(text)


def _seed(args):
    """The run's seed, 0 when omitted."""
    return 0 if args.seed is None else check_count(args.seed, "--seed")


def _refused(exc, result):
    """Exit 2: the best attempt is reported alongside the reason."""
    return 2, result, {"type": type(exc).__name__, "message": str(exc)}


# Each command returns (exit code, result, error); main() adds the manifest.


def _cmd_bounds(args):
    e = Ellipsoid(_load_matrix(args))
    _, t, k = e.unit_trace()
    # tr A = t 4^k and det A can leave float64 where the bounds do not; log det A cannot
    return 0, {
        "n": e.n,
        "L_max": bound_L_max(e),
        "S_max": bound_S_max(e),
        "tr_A": math.ldexp(t, 2 * k) if math.frexp(t)[1] + 2 * k <= sys.float_info.max_exp else None,
        "tr_C": e.tr_C,
        "det_A": math.exp(e.log_det) if LOG_MIN <= e.log_det <= LOG_MAX else None,
        "log_det_A": e.log_det,
    }, None


def _cmd_construct(args):
    seed = _seed(args)
    e = Ellipsoid(_load_matrix(args))
    functional = FUNCTIONAL_NAMES[args.functional]
    try:
        if args.vertex:
            x0 = _load_vector(args)
            q, cert = construct_through_vertex(
                e, x0, functional=functional, tol=args.equalizer_tol, seed=seed
            )
        elif functional == "edge_length":
            del args.equalizer_tol  # the box applies no tolerance, so the manifest omits it
            q, cert = construct_L_max(e)
        else:
            q, cert = construct_S_max(e, tol=args.equalizer_tol)
    except NotConverged as exc:
        return _refused(exc, {"equalization": exc.report and exc.report.to_dict()})
    return 0, {
        "orthotope": q.to_dict(),
        "parallelepiped": cert.parallelepiped.to_dict(),
        "certificate": cert.to_dict(),
    }, None


def _cmd_verify(args):
    e = Ellipsoid(_load_matrix(args))
    p = _load_parallelepiped(args)
    rep = is_inscribed(e, p, tol=args.inscribed_tol)
    (l, l_bound, l_gap), (s, s_bound, s_gap) = (measure(e, p, f) for f in FUNCTIONAL_NAMES.values())
    return 0, {
        "inscribed": rep.inscribed,
        "max_vertex_residual": rep.max_residual,
        "L": l.value,
        "S": s.value,
        "L_bound": l_bound,
        "S_bound": s_bound,
        "L_gap": l_gap,
        "S_gap": s_gap,
    }, None


def _cmd_search(args):
    seed = _seed(args)
    check_count(args.trials, "--trials", least=1)
    e = Ellipsoid(_load_matrix(args))
    functional = FUNCTIONAL_NAMES[args.functional]
    keep_trace = args.csv_trace is not None
    if args.vertex:
        report = random_search_vertex(
            e, _load_vector(args), functional, args.trials, seed,
            bound_slack=args.bound_slack, keep_trace=keep_trace,
        )
    else:
        report = random_search_global(
            e, functional, args.trials, seed,
            bound_slack=args.bound_slack, keep_trace=keep_trace,
        )
    if keep_trace:
        lines = ["trial,value"]
        lines += [f"{i},{v!r}" for i, v in enumerate(report.trace)]
        _write_atomic(args.csv_trace, "\n".join(lines) + "\n")
    return 3 if report.violations > 0 else 0, report.to_dict(), None


def _cmd_equalize(args):
    seed = _seed(args)
    a = _load_matrix(args)
    if not args.barycentric:
        return 0, equalize_diagonal(a, tol=args.equalizer_tol).to_dict(), None
    try:
        rep = equalize_diagonal_barycentric(
            a, tol=args.equalizer_tol, max_iter=args.max_iter, seed=seed
        )
    except NotConverged as exc:
        return _refused(exc, exc.report and exc.report.to_dict())
    return 0, rep.to_dict(), None


def _cmd_explore_rsh(args):
    seed = _seed(args)
    a = _load_matrix(args)
    y0 = _load_vector(args)
    report = explore_restricted_schur_horn(
        a, y0, FUNCTIONAL_NAMES[args.functional], restarts=args.restarts, seed=seed
    )
    return 0, report.to_dict(), None


def _add_tolerance_flags(sp, *tolerance_flags):
    for flag in tolerance_flags:
        key = TOLERANCE_FLAGS[flag]
        sp.add_argument(flag, dest=key, type=float, default=getattr(DEFAULT_TOLERANCES, key))
    sp.add_argument("--output", default=None, help="write JSON here (atomically) instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inscribed-extrema",
        description="Extremal parallelepipeds inscribed in ellipsoids: "
        "bounds, constructions, searches, diagonal equalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="closed-form L and S bounds for an ellipsoid")
    sp.add_argument("--matrix", required=True)
    _add_tolerance_flags(sp)
    sp.set_defaults(run=_cmd_bounds)

    sp = sub.add_parser("construct", help="build an extremal inscribed parallelepiped")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--functional", choices=("edge", "facet"), required=True)
    sp.add_argument("--vertex", default=None, help="boundary point the all-plus vertex must hit")
    sp.add_argument("--seed", type=int, default=None)
    _add_tolerance_flags(sp, "--tol-equalizer")
    sp.set_defaults(run=_cmd_construct)

    sp = sub.add_parser("verify", help="evaluate a parallelepiped file against an ellipsoid")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--parallelepiped", required=True)
    _add_tolerance_flags(sp, "--tol-inscribed")
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("search", help="random-search certification of the bounds")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--functional", choices=("edge", "facet"), required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--vertex", default=None)
    sp.add_argument("--csv-trace", default=None, help="write per-trial values as CSV")
    _add_tolerance_flags(sp, "--tol-bound-slack")
    sp.set_defaults(run=_cmd_search)

    sp = sub.add_parser("equalize", help="diagonal equalization report")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--barycentric", action="store_true")
    sp.add_argument("--max-iter", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    _add_tolerance_flags(sp, "--tol-equalizer")
    sp.set_defaults(run=_cmd_equalize)

    sp = sub.add_parser(
        "explore-rsh", help="numerical explorer for the restricted diagonal condition"
    )
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--vertex", required=True, help="unit vector y0 (JSON vector file)")
    sp.add_argument("--functional", choices=("edge", "facet"), required=True)
    sp.add_argument("--restarts", type=int, default=EXPLORER_RESTARTS)
    sp.add_argument("--seed", type=int, default=None)
    _add_tolerance_flags(sp)
    sp.set_defaults(run=_cmd_explore_rsh)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.input_sha256 = {}  # filled by _read_json, one digest per input file read
    try:
        for flag, key in TOLERANCE_FLAGS.items():
            check_tolerance(getattr(args, key, 0.0), flag)
        code, result, error = args.run(args)
        _emit(args, result, error)
        return code
    except (CliError, InscribedExtremaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
