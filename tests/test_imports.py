"""Import hygiene and the product kernel's boundary, checked on the source with ast.

Every module-level import in src/fflattice is used: a name bound by a
module-level import must be read somewhere in that module.  Re-exports
listed in the package's __all__ and __future__ imports are exempt.

Products of residue arrays live in one module, linalg: outside it no module
multiplies with @, calls np.convolve, np.correlate, np.dot or np.matmul, names or
imports numpy's fft, rfft or irfft, or names the overflow tier rule, and linalg
imports no other module of the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "fflattice"


def unused_imports(tree: ast.Module) -> list[str]:
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exempt |= set(ast.literal_eval(node.value))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and name not in exempt]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checker_flags_unused_import():
    tree = ast.parse("import os\nfrom . import a, b\nfrom x import y as z\n"
                     "__all__ = ['b']\nprint(a)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]


KERNEL = "linalg.py"
PRODUCT_CALLS = {"convolve", "correlate", "dot", "matmul"}
TIER_NAMES = {"word_dtype", "blas_dtype", "float_mod", "_accumulator", "_by_digits"}
FFT_NAMES = {"fft", "rfft", "irfft"}


def kernel_leaks(tree: ast.Module) -> list[str]:
    """Products and uses of the tier rule in a module other than the kernel."""
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            leaks.append((node.lineno, node.col_offset, "@"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in PRODUCT_CALLS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            leaks.append((node.lineno, node.col_offset, f"np.{node.func.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr in TIER_NAMES | FFT_NAMES:
            leaks.append((node.lineno, node.col_offset, node.attr))
        elif isinstance(node, ast.Name) and node.id in TIER_NAMES | FFT_NAMES:
            leaks.append((node.lineno, node.col_offset, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            leaks += [(node.lineno, node.col_offset, f"import {alias.name}") for alias in node.names
                      if FFT_NAMES & set(alias.name.split("."))]
    return [f"line {line}: {what}" for line, _, what in sorted(leaks)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != KERNEL),
                         ids=lambda p: p.name)
def test_products_only_in_the_kernel(path):
    assert kernel_leaks(ast.parse(path.read_text())) == []


def test_kernel_imports_no_package_module():
    tree = ast.parse((SRC / KERNEL).read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.level or node.module == "fflattice")]


def test_import_leaves_numpy_fft_unloaded():
    # the FFT route loads numpy.fft on its first call, not at import (numpy 2
    # loads it lazily; numpy 1 at its own import, which fflattice cannot change)
    code = ("import sys, numpy; eager = 'numpy.fft' in sys.modules; import fflattice.cli; "
            "print(eager or 'numpy.fft' not in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True).stdout
    assert out.strip() == "True"


def test_checker_flags_products_outside_the_kernel():
    tree = ast.parse('"""One np.convolve, then R @ c, in prose."""\n'
                     "import numpy as np\n"
                     "c = np.convolve(a, b) % p\n"
                     "d = (R @ c) % p\n"
                     "e = np.dot(a, b) + np.matmul(a, b)\n"
                     "d @= c\n"
                     "t = fppoly.word_dtype(3, p) or linalg.float_mod(c, p)\n"
                     "u = np.add(a, b) * a\n"
                     "w = np.correlate(a, b[::-1], 'full')\n")
    assert kernel_leaks(tree) == ["line 3: np.convolve", "line 4: @", "line 5: np.dot",
                                  "line 5: np.matmul", "line 6: @", "line 7: word_dtype",
                                  "line 7: float_mod", "line 9: np.correlate"]


def test_checker_flags_fft_products_outside_the_kernel():
    tree = ast.parse("import numpy as np\n"
                     "import numpy.fft as F\n"
                     "from numpy.fft import irfft\n"
                     "from numpy import fft\n"
                     "c = np.fft.irfft(np.fft.rfft(a, n) ** 2, n)\n"
                     "d = irfft(F.fft(a)) + fftconvolve(a, b)\n")
    assert kernel_leaks(tree) == ["line 2: import numpy.fft", "line 3: import irfft",
                                  "line 4: import fft", "line 5: fft", "line 5: irfft",
                                  "line 5: fft", "line 5: rfft", "line 6: irfft", "line 6: fft"]
