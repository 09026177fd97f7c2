"""The package and its tests import no undeclared package.  scipy is
often installed next to numpy, but pyproject.toml does not declare it,
so an import of it (most likely in a dense test oracle) would pass
locally and fail on a clean install."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every import of scipy or a submodule of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        lines += [node.lineno for name in names if name.split(".")[0] == "scipy"]
    return lines


def test_the_check_finds_every_form_of_import():
    source = ("import numpy\nimport scipy\nimport os, scipy.linalg as sl\n"
              "from scipy import linalg\nfrom scipy.sparse import csr_matrix\n"
              "def f():\n    import scipy.special\n"
              "from . import scipy_like\nimport scipyx\n")
    assert scipy_imports(source) == [2, 3, 4, 5, 7]


def test_no_module_imports_scipy():
    paths = sorted([*(ROOT / "src" / "ionjump").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 20
    found = [f"{path.relative_to(ROOT)}:{line}" for path in paths
             for line in scipy_imports(path.read_text())]
    assert found == []
