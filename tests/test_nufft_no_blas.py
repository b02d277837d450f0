"""The NUFFT pass makes no matrix product.

Its blocks run on a pool of one worker per CPU, so CPU spent beside the
workers comes out of wall time.  A matrix product big enough for a
threaded BLAS wakes a BLAS helper thread, which then spins on the core a
worker needs: when the plan's deconvolution factors came from a
(NUFFT_BLOCK/2 + 1) x 32 matrix-vector product, the helper burned
0.13-0.16 s of CPU in the 0.3 s after one plan (process CPU minus the
caller's thread CPU, 2-core x86 VM with OpenBLAS), against none for the
same sum as an einsum.  A product that slips back in would pass every
other test, so this one reads the NUFFT functions' syntax trees.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zel" / "prime_poly.py"
NUFFT_FUNCTIONS = ("_fine_position", "_nufft_plan", "_es_transform",
                   "_half_grid_spread", "_nufft_buffers", "_spread",
                   "_nufft_transform", "_nufft_amplitudes", "_nufft_blocks")
PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _products(tree: ast.AST, names):
    """(function, line, what) for each matrix product in the named
    functions: an @ (or @=), or a call of np.dot, np.matmul, np.inner,
    np.vdot or np.tensordot, as a module function or an array method."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in names:
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.MatMult):
                yield fn.name, node.lineno, "@"
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    f.id if isinstance(f, ast.Name) else None
                if name in PRODUCTS:
                    yield fn.name, node.lineno, name


def test_nufft_functions_found():
    tree = ast.parse(SRC.read_text(), filename=str(SRC))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert set(NUFFT_FUNCTIONS) <= defined


def test_no_matrix_product_in_nufft_pass():
    tree = ast.parse(SRC.read_text(), filename=str(SRC))
    found = list(_products(tree, NUFFT_FUNCTIONS))
    assert not found, f"matrix products in the NUFFT pass: {found}"


@pytest.mark.parametrize("body,want", [
    ("    return np.cos(arg) @ w\n", "@"),
    ("    z @= m\n", "@"),
    ("    return np.dot(a, b)\n", "dot"),
    ("    return a.dot(b)\n", "dot"),
    ("    return np.tensordot(a, b, 1)\n", "tensordot"),
])
def test_guard_sees_a_product(body, want):
    snippet = ("def _nufft_plan(arg, w):\n" + body
               + "def other(a, b):\n    return a @ b\n")
    found = list(_products(ast.parse(snippet), NUFFT_FUNCTIONS))
    assert [(fn, what) for fn, _, what in found] == [("_nufft_plan", want)]


def test_guard_passes_einsum():
    snippet = 'def _nufft_plan(c, w):\n    return np.einsum("kz,z->k", c, w)\n'
    assert not list(_products(ast.parse(snippet), NUFFT_FUNCTIONS))
