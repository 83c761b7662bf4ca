"""Import layering: the exact linear algebra, exponential included, and the
polynomial layer sit in the trusted core next to the kernel, below the
search modules."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "liesym"


def _liesym_imports(filename: str) -> set:
    """The liesym modules a source file imports, relative imports
    resolved."""
    out = set()
    for node in ast.walk(ast.parse((PKG / filename).read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                out.add(node.module)
            elif node.module:
                out.add(f"liesym.{node.module}")
            else:
                out.update(f"liesym.{a.name}" for a in node.names)
    return {m for m in out if m == "liesym" or m.startswith("liesym.")}


def test_linalg_imports_only_the_kernel():
    assert _liesym_imports("linalg.py") == {"liesym.expr"}


def test_poly_imports_only_the_kernel():
    assert _liesym_imports("poly.py") == {"liesym.expr"}


def test_reduction_does_not_import_optimal_systems():
    assert "liesym.optimal" not in _liesym_imports("reduction.py")


def _terms_readers(filename: str) -> set:
    """The top-level functions of a source file that read an attribute
    ``terms``, with "<module>" for a read outside any function."""
    out = set()
    for top in ast.parse((PKG / filename).read_text()).body:
        name = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                else "<module>")
        if any(isinstance(n, ast.Attribute) and n.attr == "terms"
               for n in ast.walk(top)):
            out.add(name)
    return out


def test_only_the_kernel_splits_sums():
    # every monomial split goes through expr.split_terms, directly or
    # through poly.to_poly; rendering a sum term by term is the one other
    # reader of Add.terms
    readers = {f.name: _terms_readers(f.name) for f in PKG.glob("*.py")
               if f.name != "expr.py"}
    assert {k: v for k, v in readers.items() if v} == {"dsl.py": {"render"}}
