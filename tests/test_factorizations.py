"""One factorization per object per request: the CLI decomposes A once, with
np.linalg.eigh, and takes the SVD of a parallelepiped's edge matrix V once.
Every later step reuses what Ellipsoid and Parallelepiped keep."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from inscribed_extrema import Ellipsoid, cli, random_orthogonal

COUNTED = ("eigh", "eigvalsh", "svd")


@pytest.fixture
def factorizations(monkeypatch):
    """Counter of the np.linalg factorizations called while the test runs."""
    seen = Counter()
    for name in COUNTED:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _request_files(tmp_path, n=5):
    rng = np.random.default_rng(7)
    q = random_orthogonal(n, rng)
    a = (q * np.exp(rng.uniform(-2.0, 2.0, n))) @ q.T
    a = 0.5 * (a + a.T)
    y = rng.normal(size=n)
    x0 = Ellipsoid(a).B @ (y / np.linalg.norm(y))
    return (_write(tmp_path / "a.json", {"n": n, "data": a.tolist()}),
            _write(tmp_path / "x0.json", {"n": n, "data": x0.tolist()}))


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["search", "--functional", "edge", "--trials", "300", "--seed", "1"],
    ["search", "--functional", "facet", "--trials", "300", "--seed", "1"],
    ["search", "--functional", "facet", "--trials", "300", "--seed", "1", "--vertex", "X0"],
], ids=["bounds", "search-edge", "search-facet", "search-vertex"])
def test_request_decomposes_a_once(tmp_path, capsys, factorizations, argv):
    m, x0 = _request_files(tmp_path)
    argv = [x0 if arg == "X0" else arg for arg in argv]
    factorizations.clear()
    code, _ = _run(capsys, argv + ["--matrix", m])
    assert code == 0
    assert factorizations == Counter(eigh=1)


@pytest.mark.parametrize("functional", ["edge", "facet"])
def test_global_construct_and_verify_factor_each_object_once(
    tmp_path, capsys, factorizations, functional
):
    m, _ = _request_files(tmp_path)
    factorizations.clear()
    code, out = _run(capsys, ["construct", "--matrix", m, "--functional", functional,
                              "--seed", "2"])
    assert code == 0
    # A once; the SVD of V serves both the certificate and the emitted edges
    assert factorizations == Counter(eigh=1, svd=1)
    pe = _write(tmp_path / "p.json", json.loads(out)["result"]["parallelepiped"])
    factorizations.clear()
    code, out = _run(capsys, ["verify", "--matrix", m, "--parallelepiped", pe])
    assert code == 0
    assert json.loads(out)["result"]["inscribed"]
    assert factorizations == Counter(eigh=1, svd=1)


def _two_decomposition_ellipsoid(a):
    """The attributes as Ellipsoid formed them when it decomposed the
    symmetrized A a second time after the positive-definiteness check."""
    s = 0.5 * a + 0.5 * a.T
    w, q = np.linalg.eigh(s)

    def sym(x):
        return 0.5 * x + 0.5 * x.T

    return {
        "A": s, "eigenvalues": w, "eigenvectors": q, "log_det": float(np.sum(np.log(w))),
        "tr_C": float(np.sum(1.0 / w)), "B": sym((q * np.sqrt(w)) @ q.T), "C": sym((q / w) @ q.T),
    }


def test_ellipsoid_attributes_keep_their_bits():
    rng = np.random.default_rng(23)
    cases = 0
    for n in range(2, 21):
        for k in (-200, -117, -3, 0, 41, 200):
            q = random_orthogonal(n, rng)
            a = (q * np.exp(rng.uniform(-3.0, 3.0, n))) @ q.T * 10.0**k
            e = Ellipsoid(a)
            for name, want in _two_decomposition_ellipsoid(a).items():
                got = getattr(e, name)
                assert np.array_equal(got, want), (n, k, name)
            assert math.isfinite(e.log_det)
            cases += 1
    assert cases >= 100
