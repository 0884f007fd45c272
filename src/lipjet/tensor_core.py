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

# Below this norm the sum of squares leaves the normal range and loses precision.
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


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

        sym, drift = _symmetrize(arr[None], degree)
        if drift[0] > sym_tol:
            raise ValueError(
                f"coefficients are not symmetric: relative deviation "
                f"{drift[0]:.3e} exceeds tolerance {sym_tol:.1e}"
            )
        self._fill(degree, dim, codim, sym[0])

    @classmethod
    def _view(cls, dim, coeffs):
        """A form over coefficients already known symmetric and finite: no
        checks and no copy (the array is made read-only)."""
        form = object.__new__(cls)
        form._fill(coeffs.ndim - 1, dim, coeffs.shape[-1], coeffs)
        return form

    def _fill(self, degree, dim, codim, coeffs):
        coeffs.setflags(write=False)
        for name, value in zip(self.__slots__, (degree, dim, codim, coeffs)):
            object.__setattr__(self, name, value)

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


def _symmetrize(stack, degree):
    """Average each form of a stack (n,) + (d,)*degree + (m,) over all
    permutations of its input axes.

    Returns the symmetric stack and each form's largest deviation from
    it relative to its largest |entry| (0 for a zero form).
    """
    if degree < 2:
        return np.array(stack, dtype=float), np.zeros(len(stack))
    acc = np.zeros_like(stack)
    perms = list(itertools.permutations(range(1, degree + 1)))
    for perm in perms:
        acc += np.transpose(stack, (0,) + perm + (degree + 1,))
    sym = acc / len(perms)
    flat = stack.reshape(len(stack), -1)
    ref = np.abs(flat).max(axis=1)
    dev = np.abs(flat - sym.reshape(len(stack), -1)).max(axis=1)
    return sym, dev / np.where(ref > 0.0, ref, 1.0)


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
    matrix. For m = 1 that is the Euclidean norm of the coefficients;
    only forms whose sum of squares overflows or leaves the normal
    range are first divided by their largest |entry| s. For m > 1 every
    matrix B is divided by its s, which keeps coefficients near
    1e+-150 and beyond from overflowing or underflowing when squared;
    the norm is s times the Euclidean norm of a single row, or
    s * sqrt(lambda_max) of the smaller of B^T B and B B^T.
    """
    n, m = stack.shape[0], stack.shape[-1]
    if m == 1:
        flat = stack.reshape(n, -1)
        with np.errstate(over="ignore"):  # overflowing rows are redone below
            norms = np.linalg.norm(flat, axis=1)
        redo = np.flatnonzero((norms < _SQRT_TINY) | (norms == np.inf))
        if flat[redo].any():
            s = np.abs(flat[redo]).max(axis=1)
            keep = (s > 0.0) & (s < np.inf)  # zero rows and rows holding inf or NaN keep their norm
            redo, s = redo[keep], s[keep]
            norms[redo] = s * np.linalg.norm(flat[redo] / s[:, None], axis=1)
        return norms
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

