import ast
from pathlib import Path

import numpy as np
import pytest

import smrd
from smrd.fourier import fft2c, ifft2c, norm2, real_inner


def dft2c_brute(x):
    """Independent O(N^2) centered orthonormal DFT (even sizes)."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for k in range(h):
        for l in range(w):
            acc = 0.0 + 0.0j
            for m in range(h):
                for n in range(w):
                    phase = (k - h // 2) * (m - h // 2) / h + (l - w // 2) * (n - w // 2) / w
                    acc += x[m, n] * np.exp(-2j * np.pi * phase)
            out[k, l] = acc / np.sqrt(h * w)
    return out


def idft2c_brute(x):
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for m in range(h):
        for n in range(w):
            acc = 0.0 + 0.0j
            for k in range(h):
                for l in range(w):
                    phase = (k - h // 2) * (m - h // 2) / h + (l - w // 2) * (n - w // 2) / w
                    acc += x[k, l] * np.exp(2j * np.pi * phase)
            out[m, n] = acc / np.sqrt(h * w)
    return out


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_constant_image_concentrates_at_center():
    c = 0.7 - 0.2j
    img = np.full((8, 8), c)
    ksp = fft2c(img)
    assert abs(ksp[4, 4] - 8 * c) < 1e-12
    ksp[4, 4] = 0
    assert np.max(np.abs(ksp)) < 1e-12


def test_norm_preserved():
    rng = np.random.default_rng(0)
    x = random_complex(rng, (16, 16))
    assert np.linalg.norm(fft2c(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert np.linalg.norm(ifft2c(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_fft2c_matches_brute_force_dft():
    rng = np.random.default_rng(1)
    x = random_complex(rng, (4, 4))
    assert np.max(np.abs(fft2c(x) - dft2c_brute(x))) < 1e-10


def test_ifft2c_matches_brute_force_inverse():
    rng = np.random.default_rng(2)
    x = random_complex(rng, (4, 4))
    assert np.max(np.abs(ifft2c(x) - idft2c_brute(x))) < 1e-10


def test_round_trip():
    rng = np.random.default_rng(3)
    x = random_complex(rng, (12, 10))
    assert np.max(np.abs(ifft2c(fft2c(x)) - x)) < 1e-12
    assert np.max(np.abs(fft2c(ifft2c(x)) - x)) < 1e-12


def test_centered_impulse_inverts_to_ones():
    h = w = 8
    ksp = np.zeros((h, w), dtype=complex)
    ksp[h // 2, w // 2] = np.sqrt(h * w)
    img = ifft2c(ksp)
    assert np.max(np.abs(img - 1.0)) < 1e-12


def test_zero_sized_rejected():
    with pytest.raises(ValueError):
        fft2c(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        ifft2c(np.zeros((4, 0)))


def test_linearity():
    rng = np.random.default_rng(4)
    x = random_complex(rng, (8, 8))
    z = random_complex(rng, (8, 8))
    a, b = 1.3 - 0.4j, -0.2 + 2.1j
    lhs = fft2c(a * x + b * z)
    rhs = a * fft2c(x) + b * fft2c(z)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_transform_adjointness():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = random_complex(rng, (8, 8))
        y = random_complex(rng, (8, 8))
        lhs = np.vdot(fft2c(x), y)
        rhs = np.vdot(x, ifft2c(y))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_inner_norm():
    rng = np.random.default_rng(6)
    x = random_complex(rng, (5, 5))
    v = real_inner(x, x)
    assert v >= 0
    assert v == norm2(x)
    assert v == pytest.approx(np.vdot(x, x).real, rel=1e-12)


def test_inner_conjugate_symmetry():
    # Re<a, b> = Re<b, a>, the real part of the complex inner product
    rng = np.random.default_rng(7)
    a = random_complex(rng, (6, 6))
    b = random_complex(rng, (6, 6))
    assert real_inner(a, b) == real_inner(b, a)
    assert real_inner(a, b) == pytest.approx(np.vdot(a, b).real, rel=1e-12)


def test_inner_orthogonal_supports():
    a = np.array([[1 + 1j, 0.0]])
    b = np.array([[0.0, 2.0]])
    assert real_inner(a, b) == 0


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        real_inner(np.zeros((2, 2)), np.zeros((2, 3)))


# products that numpy may hand to BLAS, whose summation order (and so whose
# bits) can change with the BLAS thread count
NP_PRODUCTS = {"vdot", "dot", "inner", "matmul", "tensordot"}
LINALG_PRODUCTS = {"norm", "multi_dot"}


def optimized_einsum(node):
    """True for an einsum call whose `optimize` is anything but a literal
    False (or may be, through `**kwargs`): an optimized path calls tensordot."""
    name = ast.unparse(node.func)
    if name not in ("einsum", "np.einsum", "numpy.einsum"):
        return False
    return any(kw.arg in ("optimize", None)
               and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
               for kw in node.keywords)


def blas_products(source):
    """(line, expression) of each BLAS-backed product in `source`: `@`,
    any `.dot`, numpy's products, `linalg.norm`, `linalg.multi_dot` and an
    optimized `einsum`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call) and optimized_einsum(node):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if (node.attr == "dot" or (owner in ("np", "numpy") and node.attr in NP_PRODUCTS)
                    or (owner.endswith("linalg") and node.attr in LINALG_PRODUCTS)):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in NP_PRODUCTS | LINALG_PRODUCTS:
                    yield node.lineno, alias.name


def test_blas_product_scan_sees_every_form():
    source = ("a @ b\nc @= d\nx.dot(y)\nnp.vdot(a, b)\nnp.dot(a, b)\nnp.inner(a, b)\n"
              "numpy.matmul(a, b)\nnp.linalg.norm(a)\nfrom numpy import vdot\n"
              "from numpy.linalg import norm\nnp.einsum('i,i', a, b, optimize=True)\n"
              "einsum('i,i', a, b, optimize='greedy')\nnp.einsum('i,i', a, b, **opts)\n"
              "np.linalg.multi_dot([a, b])\nfrom numpy.linalg import multi_dot\n"
              # none of these may be flagged
              "np.einsum('i,i', a, b)\nnp.einsum('i,i', a, b, optimize=False)\n"
              "@dataclass\nclass C: pass\n")
    assert sorted(line for line, _ in blas_products(source)) == list(range(1, 16))


def test_no_blas_reduction_in_the_package():
    # every reduction goes through real_inner, whose bits do not depend on
    # the BLAS thread count
    found = [(path.name, line, expr)
             for path in sorted(Path(smrd.__file__).parent.glob("*.py"))
             for line, expr in blas_products(path.read_text())]
    assert found == []
