"""The package exports exactly the names its submodules list in __all__, and
the private and module-qualified names its docstrings and comments cite exist."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import kspecfun
from kspecfun import cli, errors, identities, kbessel, kgamma, quadrature, summation, wright

MODULES = (errors, identities, kbessel, kgamma, quadrature, summation, wright)

# kspecfun.__all__ before it was built from the submodule lists; none may go
EARLIER_ALL = [
    "BesselParams", "CSV_FIELDS", "CompensatedSum", "DomainError", "IDENTITY_IDS",
    "IdentityReport", "KScale", "NonConvergenceError", "ObParams", "QuadResult",
    "SeriesResult", "VERDICTS", "WrightSpec", "classical_gamma",
    "classical_reduction_check", "convergence_margin", "corollary1_rhs", "corollary3_rhs",
    "eval_gmk_bessel", "eval_k_bessel_first", "eval_k_wright", "eval_pfq", "eval_wright",
    "gmk_bessel_term", "integrate_semi_infinite", "k_gamma", "k_gamma_oracle",
    "k_pochhammer", "log_classical_gamma", "log_k_gamma", "log_k_pochhammer",
    "oberhettinger_closed_form", "oberhettinger_lhs", "phi", "theorem1_lhs",
    "theorem1_rhs_canonical", "theorem1_rhs_paper", "theorem2_lhs",
    "theorem2_rhs_canonical", "theorem2_rhs_paper", "to_record", "verify",
    "wright_pfq_reduction_check", "__version__",
]


def test_no_duplicates():
    assert len(kspecfun.__all__) == len(set(kspecfun.__all__))


def test_all_is_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert kspecfun.__all__ == expected


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(kspecfun, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_names_are_listed_where_defined(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            assert obj.__module__ == module.__name__, name


def test_earlier_names_kept():
    assert len(EARLIER_ALL) == 44
    assert set(EARLIER_ALL) <= set(kspecfun.__all__)
    assert len(kspecfun.__all__) == 49


def test_star_import_binds_all():
    namespace = {}
    exec("from kspecfun import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kspecfun.__all__)


def _cited_names(path):
    """The backticked private (a part starting with _) or dotted names in one
    source file's docstrings and comments."""
    src = path.read_text()
    texts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(src))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(src).readline)
              if tok.type == tokenize.COMMENT]
    names = (m for text in texts for m in re.findall(r"`([A-Za-z_][\w.]*)`", text))
    return [name for name in names if "." in name or re.search(r"(^|\.)_", name)]


def _resolves(name):
    """Whether name is an attribute path from a kspecfun module (its first part, or
    any module for an unqualified path) or from a BesselParams instance."""
    first, *rest = name.split(".")
    modules = {m.__name__.rpartition(".")[2]: m for m in MODULES + (cli,)}
    if first in modules and rest:
        roots, path = [modules[first]], rest
    else:
        roots, path = [*modules.values(), kbessel.BesselParams(1, 0, 1, 1, -1, 1)], [first, *rest]
    for obj in roots:
        for part in path:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


@pytest.mark.parametrize("path", sorted(Path(kspecfun.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_cited_names_resolve(path):
    assert [name for name in _cited_names(path) if not _resolves(name)] == []


def test_cited_names_are_found():
    cited = [name for path in Path(kspecfun.__file__).parent.glob("*.py") for name in _cited_names(path)]
    assert len(cited) >= 29
    assert {"_table", "_rhs_paper", "summation.settle", "kbessel._PlainTable.row"} <= set(cited)
