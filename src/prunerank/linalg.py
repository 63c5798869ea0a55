"""Dense linear-algebra primitives shared by pruning and the attention oracle.

All numerics are 64-bit floats and matrices are row-major. The cosine kernel
behind similarity_matrix, pruning.prune_images and the simulate drivers reads
each token matrix twice and never copies it: one BLAS dot per row computes the
row norms, then one GEMM multiplies the unit-scaled query rows by the raw
tokens, and the t x n result is divided by the token norms and clipped in
place. The query is scaled once (unit_rows) and reused for every image
(cosine_to_unit).

Finiteness rule: a NaN or infinite entry makes its row norm non-finite, so
when every norm is finite the matrix is too, and the exact np.isfinite scan
runs only when some norm is not. A row of finite entries whose squared norm
overflows passes that scan, has an infinite norm and scores 0.
"""

from __future__ import annotations

import operator

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


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array with at least one entry."""
    return as_finite_array(v, (1,), name)


def _as_matrix(m, name: str) -> np.ndarray:
    """m as a 2-D float64 array with at least one row and column (no finiteness scan)."""
    return _shape_checked(m, (2,), name)


def as_embedding(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row and column."""
    return as_finite_array(m, (2,), name)


def _rows_and_norms(m, name: str) -> tuple[np.ndarray, np.ndarray]:
    """m as a 2-D float64 array (never copied if it already is one) and its row norms.

    Raises DimensionMismatchError or EmptyInputError for a bad shape, then
    NonFiniteError.
    """
    arr = _as_matrix(m, name)
    norms = np.sqrt(np.vecdot(arr, arr))
    if not np.isfinite(norms).all():
        _require_finite(arr, name)
    return arr, norms


def _require_nonzero(norms: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(norms < ZERO_NORM_EPS)
    if bad.size:
        raise ZeroNormError(f"{name} row {int(bad[0])} has (near-)zero norm")


def unit_rows(H) -> tuple[np.ndarray, np.ndarray]:
    """The query rows of H scaled to unit norm, and H's row norms.

    Checks H's shape and finiteness. A (near-)zero row is reported by
    cosine_to_unit, after the token matrix has passed its shape, finiteness
    and width checks, so errors keep that order; until then the row is scaled
    by 1 / ZERO_NORM_EPS and never used.
    """
    arr, norms = _rows_and_norms(H, "H")
    return arr / np.maximum(norms, ZERO_NORM_EPS)[:, None], norms


def cosine_to_unit(query: tuple[np.ndarray, np.ndarray], V, name: str = "V") -> np.ndarray:
    """Cosine similarity of every query row against every row of V.

    query is unit_rows(H). Errors come in the order shape, finiteness, width,
    then zero norm (H before V).
    """
    unit, query_norms = query
    tokens, norms = _rows_and_norms(V, name)
    if unit.shape[1] != tokens.shape[1]:
        raise DimensionMismatchError(
            f"embedding width mismatch: {unit.shape[1]} vs {tokens.shape[1]}"
        )
    _require_nonzero(query_norms, "H")
    _require_nonzero(norms, name)
    sims = unit @ tokens.T
    sims /= norms
    # An infinite norm means a finite row whose squared norm overflowed; it
    # scores 0. The division alone gives inf / inf = NaN where the GEMM
    # overflowed too.
    sims[:, np.isinf(norms)] = 0.0
    return np.clip(sims, -1.0, 1.0, out=sims)


def similarity_matrix(H, V) -> np.ndarray:
    """Cosine similarity of every row of H against every row of V.

    Entry (t, j) is the cosine of the angle between H[t] and V[j]; the result
    is clamped entrywise to [-1, 1] to absorb rounding.
    """
    return cosine_to_unit(unit_rows(H), V)


def embedding_from_json(obj: dict) -> np.ndarray:
    """Parse the shared {rows, dim, data} JSON object into a matrix."""
    try:
        rows = int(obj["rows"])
        dim = int(obj["dim"])
        flat = np.asarray(obj["data"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatchError(
            "embedding JSON must be an object with integer rows and dim and a list of numbers as data"
        ) from exc
    if rows < 1 or dim < 1 or flat.ndim != 1 or flat.size != rows * dim:
        raise DimensionMismatchError(
            f"need rows, dim >= 1 and rows*dim data values, got rows={rows}, dim={dim} "
            f"and {flat.size} values"
        )
    return as_embedding(flat.reshape(rows, dim), "embedding JSON")
