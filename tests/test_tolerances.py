"""Tolerances: a public function takes a tolerance keyword only where a CLI
flag or a caller in the package sets it, and it defaults to the
DEFAULT_TOLERANCES field of the same meaning. Fixed tolerances are module
constants. Every such function refuses a negative, NaN or infinite value,
and every public function that takes a seed or a step budget (trials,
restarts, max_iter) refuses a negative one, a fraction and NaN."""

import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from inscribed_extrema import (
    Ellipsoid,
    NonPositiveInput,
    Parallelepiped,
    cli,
    construct_S_max,
    construct_through_vertex,
    construct_vertex_eigen_L,
    construct_vertex_eigen_S,
    equalize_diagonal,
    equalize_diagonal_barycentric,
    explore_restricted_schur_horn,
    is_inscribed,
    random_orthogonal,
    random_search_global,
    random_search_vertex,
)
from inscribed_extrema.config import ToleranceConfig

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "inscribed_extrema"
FIELDS = {f.name for f in fields(ToleranceConfig)}


def _is_tolerance(name):
    return name == "tol" or name.endswith("_tol") or name in FIELDS


def _trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE_DIR.glob("*.py")]


def _public_callables(body, cls=None):
    """(name a caller uses, FunctionDef) for each public function and method
    of a public class; a class's __init__ is called by the class name."""
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _public_callables(node.body, node.name)
        elif isinstance(node, ast.FunctionDef):
            name = cls if node.name == "__init__" else node.name
            if not name.startswith("_"):
                yield name, node


def _tolerance_parameters():
    """(callable, keyword, default node or None) over the whole package."""
    found = []
    for tree in _trees():
        for name, fn in _public_callables(tree.body):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
            pairs = list(zip(positional, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
            found += [(name, a.arg, d) for a, d in pairs if _is_tolerance(a.arg)]
    return found


def _tolerance_keywords_set_by_callers():
    found = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                found |= {(name, kw.arg) for kw in node.keywords if _is_tolerance(kw.arg or "")}
    return found


def test_every_config_field_is_a_cli_flag():
    assert set(cli.TOLERANCE_FLAGS.values()) == FIELDS


def test_tolerance_keywords_are_the_ones_callers_set():
    callables = {name for tree in _trees() for name, _ in _public_callables(tree.body)}
    declared = {(name, arg) for name, arg, _ in _tolerance_parameters()}
    set_by_callers = {hit for hit in _tolerance_keywords_set_by_callers() if hit[0] in callables}
    assert declared == set_by_callers


def test_tolerance_defaults_are_config_fields():
    def from_config(d):
        return (
            isinstance(d, ast.Attribute)
            and isinstance(d.value, ast.Name)
            and d.value.id == "DEFAULT_TOLERANCES"
            and d.attr in FIELDS
        )

    params = _tolerance_parameters()
    assert [f"{name}({arg})" for name, arg, d in params if not from_config(d)] == []


def _entry_points():
    """One call per public function that takes a tolerance, with that tolerance v;
    both vertex routes are called at n = 2 too, where the facet one applies none."""
    m = np.diag([1.0, 4.0, 9.0, 16.0])
    e, e2 = Ellipsoid(m), Ellipsoid(np.diag([1.0, 4.0]))
    x0, x2 = e.B @ np.full(4, 0.5), e2.B @ np.array([0.6, 0.8])
    return {
        "is_inscribed": lambda v: is_inscribed(e, Parallelepiped(np.eye(4)), tol=v),
        "equalize_diagonal": lambda v: equalize_diagonal(m, tol=v),
        "equalize_diagonal_barycentric": lambda v: equalize_diagonal_barycentric(m, tol=v),
        "construct_S_max": lambda v: construct_S_max(e, tol=v),
        "construct_vertex_eigen_S": lambda v: construct_vertex_eigen_S(e, x0, tol=v),
        "construct_vertex_eigen_S n=2": lambda v: construct_vertex_eigen_S(e2, x2, tol=v),
        "construct_vertex_eigen_L": lambda v: construct_vertex_eigen_L(e, x0, tol=v),
        "construct_vertex_eigen_L n=2": lambda v: construct_vertex_eigen_L(e2, x2, tol=v),
        "construct_through_vertex": lambda v: construct_through_vertex(e, x0, "edge_length", tol=v),
        "random_search_global": lambda v: random_search_global(e, "facet_area", 10, 0,
                                                               bound_slack=v),
        "random_search_vertex": lambda v: random_search_vertex(e, x0, "facet_area", 10, 0,
                                                               bound_slack=v),
    }


def test_every_tolerance_taking_function_is_checked_below():
    covered = {name.split()[0] for name in _entry_points()}
    assert covered == {name for name, _, _ in _tolerance_parameters()}


@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_library_refuses_bad_tolerance(entry, value):
    # before the check, a negative tol squared into a loose positive threshold:
    # the barycentric equalizer reported diag(1, 4, 9, 16) converged
    with pytest.raises(NonPositiveInput, match="must be a finite number >= 0"):
        _entry_points()[entry](value)


def _parameters_named(*names):
    """(callable, parameter) for every public callable of the package whose
    parameter is one of names."""
    found = set()
    for tree in _trees():
        for name, fn in _public_callables(tree.body):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            found |= {(name, a.arg) for a in args if a.arg in names}
    return found


def _seeded_entry_points():
    """One n = 4 call per public function that takes a seed, with that seed s;
    each call reaches the seed's use (the facet routes at n = 4 restart the
    barycentric equalizer from seeded frames). The routes that draw nothing
    are called too: at n = 2 and for the edge length."""
    m = np.diag([1.0, 4.0, 9.0, 16.0])
    e, y0 = Ellipsoid(m), np.full(4, 0.5)
    x0 = e.B @ y0
    e2, y2 = Ellipsoid(np.diag([1.0, 4.0])), np.array([0.6, 0.8])
    x2 = e2.B @ y2
    return {
        "construct_vertex_eigen_S n=2": lambda s: construct_vertex_eigen_S(e2, x2, seed=s),
        "construct_through_vertex n=2": lambda s: construct_through_vertex(e2, x2, seed=s),
        "construct_through_vertex edge":
            lambda s: construct_through_vertex(e, x0, "edge_length", seed=s),
        "explore_restricted_schur_horn edge":
            lambda s: explore_restricted_schur_horn(m, y0, "edge_length", seed=s),
        "explore_restricted_schur_horn n=2":
            lambda s: explore_restricted_schur_horn(e2.A, y2, "facet_area", seed=s),
        "random_orthogonal": lambda s: random_orthogonal(4, s),
        "equalize_diagonal_barycentric": lambda s: equalize_diagonal_barycentric(m, seed=s),
        "construct_vertex_eigen_S": lambda s: construct_vertex_eigen_S(e, x0, seed=s),
        "construct_through_vertex": lambda s: construct_through_vertex(e, x0, seed=s),
        "random_search_global": lambda s: random_search_global(e, "facet_area", 10, s),
        "random_search_vertex": lambda s: random_search_vertex(e, x0, "facet_area", 10, s),
        "explore_restricted_schur_horn":
            lambda s: explore_restricted_schur_horn(m, y0, "facet_area", restarts=1, seed=s),
    }


def test_every_seed_taking_function_is_checked_below():
    seeded = {name for name, _ in _parameters_named("seed")}
    assert {name.split()[0] for name in _seeded_entry_points()} == seeded


@pytest.mark.parametrize("entry", sorted(_seeded_entry_points()))
def test_library_refuses_negative_seed(entry):
    # default_rng(-1) raised numpy's ValueError wherever no check came first
    with pytest.raises(NonPositiveInput, match="seed must be >= 0"):
        _seeded_entry_points()[entry](-1)


@pytest.mark.parametrize("value", [1.5, math.nan], ids=["fraction", "nan"])
@pytest.mark.parametrize("entry", sorted(_seeded_entry_points()))
def test_library_refuses_non_integer_seed(entry, value):
    # numpy's TypeError escaped where a draw came first, and the routes that
    # draw nothing returned normally
    with pytest.raises(NonPositiveInput, match="seed must be an integer"):
        _seeded_entry_points()[entry](value)


BUDGET_PARAMETERS = ("trials", "restarts", "max_iter")


def _budget_entry_points():
    """One call per public function that takes a step budget, with that budget b;
    a facet target at n = 4, so the explorer's budget reaches the equalizer."""
    m = np.diag([1.0, 4.0, 9.0, 16.0])
    e, y0 = Ellipsoid(m), np.full(4, 0.5)
    x0 = e.B @ y0
    return {
        ("random_search_global", "trials"): lambda b: random_search_global(e, "facet_area", b, 0),
        ("random_search_vertex", "trials"):
            lambda b: random_search_vertex(e, x0, "facet_area", b, 0),
        ("explore_restricted_schur_horn", "restarts"):
            lambda b: explore_restricted_schur_horn(m, y0, "facet_area", restarts=b),
        ("equalize_diagonal_barycentric", "max_iter"):
            lambda b: equalize_diagonal_barycentric(m, max_iter=b),
    }


def test_every_budget_taking_function_is_checked_below():
    assert set(_budget_entry_points()) == _parameters_named(*BUDGET_PARAMETERS)


@pytest.mark.parametrize("value", [-1, 1.5, math.nan], ids=["negative", "fraction", "nan"])
@pytest.mark.parametrize("entry", sorted(_budget_entry_points()), ids=" ".join)
def test_library_refuses_bad_budget(entry, value):
    # int() made trials=2.7 two trials, restarts=nan returned the identity's
    # residual, and max_iter=2.5 ran
    with pytest.raises(NonPositiveInput, match=f"{entry[1]} must be"):
        _budget_entry_points()[entry](value)


def test_planar_facet_vertex_route_applies_its_tol():
    # S = L in the plane, so the facet route through a vertex is the edge
    # route at the tol it takes; it used to pin at the default and report gap 0
    e = Ellipsoid(np.diag([1.0, 4.0]))
    x0 = np.array([0.6, 1.6]) / math.sqrt(0.6**2 + 1.6**2 / 4.0)
    _, edge = construct_vertex_eigen_L(e, x0, tol=0.9)
    _, facet = construct_vertex_eigen_S(e, x0, tol=0.9)
    assert edge.relative_gap > 0.01
    assert facet.relative_gap == pytest.approx(edge.relative_gap, rel=1e-12)
