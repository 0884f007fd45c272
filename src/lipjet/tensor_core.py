"""Symmetric multilinear forms on R^d with values in R^m.

A degree-l form is stored densely as a coefficient tensor of shape
(d,)*l + (m,). Tensor powers of R^d carry the Euclidean norm extended
from the inner product, so the operator norm of a form is the spectral
norm of its d^l-by-m coefficient matrix.
"""

from __future__ import annotations

import itertools

import numpy as np

# Dense storage cap: d^l may not exceed this.
MAX_DENSE = 100_000

# Constructor-level symmetry tolerance (relative).
SYM_TOL = 1e-12


class SymForm:
    """A symmetric l-linear form from (R^d)^l to R^m.

    Coefficients are symmetrized (group average over the l input axes)
    on construction. Input that deviates from symmetry by more than
    ``sym_tol`` in relative terms is rejected.
    """

    __slots__ = ("degree", "dim", "codim", "coeffs")

    def __init__(self, degree, dim, codim, coeffs, sym_tol=SYM_TOL):
        degree = int(degree)
        dim = int(dim)
        codim = int(codim)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if dim < 1 or codim < 1:
            raise ValueError("dim and codim must be at least 1")
        if dim**degree > MAX_DENSE:
            raise ValueError(
                f"dense storage cap exceeded: {dim}^{degree} > {MAX_DENSE}"
            )
        arr = np.asarray(coeffs, dtype=float)
        want = (dim,) * degree + (codim,)
        if arr.size != dim**degree * codim:
            raise ValueError(
                f"coefficient count {arr.size} does not match d^l*m = "
                f"{dim ** degree * codim}"
            )
        arr = arr.reshape(want)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")

        sym = _symmetrize(arr, degree)
        scale_ref = float(np.max(np.abs(arr))) if arr.size else 0.0
        if scale_ref > 0.0:
            drift = float(np.max(np.abs(arr - sym))) / scale_ref
            if drift > sym_tol:
                raise ValueError(
                    f"coefficients are not symmetric: relative deviation "
                    f"{drift:.3e} exceeds tolerance {sym_tol:.1e}"
                )
        sym.setflags(write=False)

        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "coeffs", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SymForm is immutable")

    @classmethod
    def zero(cls, degree, dim, codim):
        return cls(degree, dim, codim, np.zeros((dim,) * degree + (codim,)))

    def flat(self):
        """Coefficients as a (d^l, m) matrix in row-major index order."""
        return self.coeffs.reshape(self.dim**self.degree, self.codim)

    def __add__(self, other):
        self._check_like(other)
        return SymForm(self.degree, self.dim, self.codim, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_like(other)
        return SymForm(self.degree, self.dim, self.codim, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return SymForm(self.degree, self.dim, self.codim, self.coeffs * float(c))

    __rmul__ = __mul__

    def _check_like(self, other):
        if not isinstance(other, SymForm):
            raise TypeError("expected a SymForm")
        if (other.degree, other.dim, other.codim) != (self.degree, self.dim, self.codim):
            raise ValueError("form shapes do not match")

    def __repr__(self):
        return (
            f"SymForm(degree={self.degree}, dim={self.dim}, "
            f"codim={self.codim})"
        )


def _symmetrize(arr, degree):
    """Average arr over all permutations of its first ``degree`` axes."""
    if degree < 2:
        return np.array(arr, dtype=float)
    acc = np.zeros_like(arr)
    count = 0
    for perm in itertools.permutations(range(degree)):
        acc += np.transpose(arr, perm + (degree,))
        count += 1
    return acc / count


def apply_form(form, vectors):
    """Evaluate form[v_1 (x) ... (x) v_l], returning a vector in R^m."""
    vectors = list(vectors)
    if len(vectors) != form.degree:
        raise ValueError(
            f"expected {form.degree} vectors, got {len(vectors)}"
        )
    cur = form.coeffs
    for v in vectors:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != form.dim:
            raise ValueError("vector length does not match form dimension")
        # contract the leading axis against v
        cur = np.tensordot(v, cur, axes=(0, 0))
    return cur


def contract(form, direction, times):
    """Fix ``times`` slots of the form to ``direction``.

    Returns the symmetric form of degree (l - times). Which slots are
    fixed is immaterial by symmetry.
    """
    times = int(times)
    if times < 0 or times > form.degree:
        raise ValueError(
            f"contraction count {times} out of range [0, {form.degree}]"
        )
    if times == 0:
        return form
    v = np.asarray(direction, dtype=float).reshape(-1)
    if v.shape[0] != form.dim:
        raise ValueError("direction length does not match form dimension")
    cur = form.coeffs
    for _ in range(times):
        cur = np.tensordot(v, cur, axes=(0, 0))
    return SymForm(form.degree - times, form.dim, form.codim, cur)


def _op_norms(stack):
    """Operator norm of each form in a stack of shape (n,) + (d,)*l + (m,).

    The norm is the largest singular value of the form's (d^l, m)
    matrix. For m = 1 that is the Euclidean norm of the coefficients.
    Otherwise each matrix B is first divided by its largest |entry| s,
    which keeps coefficients near 1e+-150 and beyond from overflowing or
    underflowing when squared; the norm is s times the Euclidean norm of
    a single row, or s * sqrt(lambda_max) of the smaller of B^T B and
    B B^T.
    """
    n, m = stack.shape[0], stack.shape[-1]
    if m == 1:
        return np.linalg.norm(stack.reshape(n, -1), axis=1)
    mat = stack.reshape(n, -1, m)
    s = np.abs(mat).max(axis=(1, 2))
    mat = mat / np.where(s > 0.0, s, 1.0)[:, None, None]
    rows = mat.shape[1]
    if rows == 1:
        return s * np.linalg.norm(mat[:, 0], axis=1)
    gram = mat.transpose(0, 2, 1) @ mat if m <= rows else mat @ mat.transpose(0, 2, 1)
    return s * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def op_norm(form):
    """Operator norm: largest singular value of the (d^l, m) matrix."""
    return float(_op_norms(form.coeffs[None])[0])

