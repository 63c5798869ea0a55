"""Dense linear-algebra primitives shared by pruning and the attention oracle.

All numerics are 64-bit floats and matrices are row-major. The cosine kernel
behind similarity_matrix, pruning.prune_images and the simulate drivers reads
each token matrix twice and never copies it: one BLAS dot per row computes the
row norms, then one GEMM multiplies the unit-scaled query rows by the raw
tokens, and the t x n result is divided by the token norms and clipped in
place. The query is scaled once (unit_rows) and reused for every image
(cosine_to_unit). Its two halves are _checked_tokens (every check, and the
row norms) and _unit_cosines (GEMM, division, clip): prune_images runs the
first for every image in a thread pool, then the second in the calling
thread, with the checks, and so the errors, in the same order.

With stack=True the kernel also takes stacks: a (k, n, d) stack of token
matrices against a (k, t, d) stack of queries, one per matrix; a query they
share is broadcast to such a stack. numpy's matmul makes one GEMM per
matrix, on the same strides as the 2-D call, so every slice of a stacked
result is bit for bit the 2-D call on that slice. The simulate drivers score
a chunk of instances this way; similarity_matrix and prune_images take 2-D
matrices only, checked by the kernel's own shape check.

Each check is one reduction over the row norms of a whole matrix or stack,
and its diagnostic runs only when that fails. A NaN or infinite entry makes
its row norm non-finite, so the exact np.isfinite scan runs only when the
largest norm is not finite, and the first (near-)zero row is sought only when
the smallest norm is below ZERO_NORM_EPS. A row of finite entries whose
squared norm overflows passes the scan, has an infinite norm and scores 0.
"""

from __future__ import annotations

import numbers
import operator
from decimal import Decimal

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, KOutOfRangeError, NonFiniteError, ZeroNormError

# Norms below this are treated as zero; normalizing them would amplify noise.
ZERO_NORM_EPS = 1e-12


def _shape_checked(values, ndims: tuple[int, ...], name: str) -> np.ndarray:
    """The one shape rule: numbers in one of ndims dimensions, then at least one entry.

    Returns values as a float64 array, never copied if it already is one.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name} must be a rectangular array of numbers") from exc
    if arr.ndim not in ndims:
        allowed = " or ".join(f"{ndim}-D" for ndim in ndims)
        raise DimensionMismatchError(f"{name} must be {allowed}, got shape {arr.shape}")
    if arr.size < 1:
        raise EmptyInputError(f"{name} must have at least one entry, got shape {arr.shape}")
    return arr


def as_finite_array(values, ndims: tuple[int, ...], name: str) -> np.ndarray:
    """Coerce to a finite float64 array in one of ndims dimensions, with at least one entry.

    Raises DimensionMismatchError unless an array of numbers in one of ndims
    dimensions, then EmptyInputError, then NonFiniteError.
    """
    arr = _shape_checked(values, ndims, name)
    _require_finite(arr, name)
    return arr


def _require_finite(values: np.ndarray, name: str) -> None:
    """The one finiteness rule: raise NonFiniteError for a NaN or infinite entry."""
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise NonFiniteError(f"{name} contains NaN or infinite entries")


def _as_index(value, name: str) -> int:
    """The one integer rule for a k, position, index, count or seed: an int or
    numpy integer (operator.index) as an int; anything else raises KOutOfRangeError."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise KOutOfRangeError(f"{name} must be an integer, got {value!r}") from exc


def _is_real(value) -> bool:
    """The one real-number rule for a ratio or a decay factor: numbers.Real,
    a Decimal that is not NaN, or a numpy scalar or 0-d array whose item is
    one (bool included)."""
    # float first: an isinstance check against the numbers.Real ABC is slow on a float.
    if isinstance(value, (float, numbers.Real)):
        return True
    if isinstance(value, Decimal):  # a Decimal NaN signals when compared
        return not value.is_nan()
    return getattr(value, "ndim", None) == 0 and _is_real(value.item())


def _as_seed(value) -> int:
    """The one seed rule: an integer (_as_index) of at least 0, else KOutOfRangeError."""
    if (seed := _as_index(value, "seed")) < 0:
        raise KOutOfRangeError(f"seed must be >= 0, got {seed}")
    return seed


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array with at least one entry."""
    return as_finite_array(v, (1,), name)


def _as_matrix(m, name: str) -> np.ndarray:
    """m as a 2-D float64 array with at least one row and column (no finiteness scan)."""
    return _shape_checked(m, (2,), name)


def as_embedding(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row and column."""
    return as_finite_array(m, (2,), name)


def _rows_and_norms(m, name: str, stack: bool) -> tuple[np.ndarray, np.ndarray]:
    """m as a 2-D float64 matrix, or with stack a 2-D matrix or 3-D stack of
    them (never copied if it already is one), and its row norms, shaped
    m.shape[:-1].

    Raises DimensionMismatchError or EmptyInputError for a bad shape, then
    NonFiniteError.
    """
    arr = _shape_checked(m, (2, 3) if stack else (2,), name)
    norms = np.sqrt(np.vecdot(arr, arr))
    if not np.maximum.reduce(norms, axis=None) < np.inf:
        _require_finite(arr, name)
    return arr, norms


def _require_nonzero(norms: np.ndarray, name: str) -> None:
    if np.minimum.reduce(norms, axis=None) < ZERO_NORM_EPS:
        *stack, row = np.unravel_index(int(np.flatnonzero(norms < ZERO_NORM_EPS)[0]), norms.shape)
        where = "".join(f"[{int(i)}]" for i in stack)
        raise ZeroNormError(f"{name}{where} row {int(row)} has (near-)zero norm")


def unit_rows(H, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The query rows of H scaled to unit norm, and H's row norms.

    H is a (t, d) query or, with stack, a (k, t, d) stack of queries. Checks H's shape and
    finiteness. A (near-)zero row is reported by cosine_to_unit, after the
    token matrix has passed its shape, finiteness and width checks, so errors
    keep that order; until then the row is scaled by 1 / ZERO_NORM_EPS and
    never used.
    """
    arr, norms = _rows_and_norms(H, "H", stack)
    return arr / np.maximum(norms, ZERO_NORM_EPS)[..., None], norms


def cosine_to_unit(
    query: tuple[np.ndarray, np.ndarray], V, name: str = "V", stack: bool = False
) -> np.ndarray:
    """Cosine similarity of every query row against every row of V.

    query is unit_rows(H). V is a (n, d) matrix, giving (t, n), or, with
    stack, a (k, n, d) stack, giving (k, t, n) against a (k, t, d) stack of
    queries. Errors come in the order shape, finiteness, width (and a query
    stack that V's stack does not match), then zero norm (H before V).
    """
    return _unit_cosines(query[0], *_checked_tokens(query, V, name, stack))


def _checked_tokens(query, V, name: str, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The check-and-norm half of cosine_to_unit: V and its row norms, after
    every check cosine_to_unit makes, in its order."""
    unit, query_norms = query
    tokens, norms = _rows_and_norms(V, name, stack)
    if unit.shape[-1] != tokens.shape[-1]:
        raise DimensionMismatchError(
            f"embedding width mismatch: {unit.shape[-1]} vs {tokens.shape[-1]}"
        )
    if unit.shape[:-2] != tokens.shape[:-2]:
        raise DimensionMismatchError(
            f"a token stack needs a stack of as many queries, got queries {unit.shape} for tokens {tokens.shape}"
        )
    _require_nonzero(query_norms, "H")
    _require_nonzero(norms, name)
    return tokens, norms


def _unit_cosines(unit: np.ndarray, tokens: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The GEMM half of cosine_to_unit: unit rows against checked tokens and their norms."""
    sims = unit @ tokens.mT
    sims /= norms[..., None, :]
    # An infinite norm means a finite row whose squared norm overflowed; it
    # scores 0. The division alone gives inf / inf = NaN where the GEMM
    # overflowed too.
    if np.maximum.reduce(norms, axis=None) == np.inf:
        np.copyto(sims, 0.0, where=np.isinf(norms)[..., None, :])
    return np.maximum(np.minimum(sims, 1.0, out=sims), -1.0, out=sims)


def similarity_matrix(H, V) -> np.ndarray:
    """Cosine similarity of every row of H against every row of V.

    H and V must be 2-D. Entry (t, j) is the cosine of the angle between H[t]
    and V[j]; the result is clamped entrywise to [-1, 1] to absorb rounding.
    """
    return cosine_to_unit(unit_rows(H), V)


def embedding_from_json(obj: dict) -> np.ndarray:
    """Parse the shared {rows, dim, data} JSON object into a matrix. As in the
    config leaf rules, rows and dim must be JSON integers and data's entries
    JSON numbers: 2.0, "2" and true are refused, not converted."""
    try:
        rows, dim, data = obj["rows"], obj["dim"], obj["data"]
        if type(rows) is not int or type(dim) is not int or any(type(x) not in (int, float) for x in data):
            raise TypeError("rows, dim or a data entry has the wrong JSON type")
        flat = np.asarray(data, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(
            "embedding JSON must be an object with integer rows and dim and a list of numbers as data"
        ) from exc
    if rows < 1 or dim < 1 or flat.ndim != 1 or flat.size != rows * dim:
        raise DimensionMismatchError(
            f"need rows, dim >= 1 and rows*dim data values, got rows={rows}, dim={dim} "
            f"and {flat.size} values"
        )
    return as_embedding(flat.reshape(rows, dim), "embedding JSON")
