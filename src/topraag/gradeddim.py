"""Graded dimension bookkeeping over Q with three value kinds: exact finite
naturals, countably-infinite, and unknown.

Unknown never silently resolves: it absorbs through sums and products except
against a hard zero, which annihilates (a zero-dimensional space tensored
with anything is zero).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceCap

# sb_homology stores one entry per degree 1..n, about 170 bytes each
MAX_SB_DEGREE = 1_000_000


class _Marker:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


INF = _Marker("inf")
UNKNOWN = _Marker("unknown")


def dim_add(a, b):
    if a == 0:
        return b
    if b == 0:
        return a
    if a is INF or b is INF:
        return INF
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return a + b


def dim_mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    if a is INF or b is INF:
        return INF
    return a * b


class GradedDim:
    """Map degree -> dimension, with a default for unlisted degrees."""

    def __init__(self, dims: dict | None = None, default=0):
        self.dims = {}
        for k, v in (dims or {}).items():
            self.dims[int(k)] = v
        self.default = default
        for k, v in self.dims.items():
            if k < 0:
                raise ValueError("degrees are non-negative")
            _check_value(v)
        _check_value(default)

    def __getitem__(self, degree: int):
        return self.dims.get(degree, self.default)

    def support_bound(self) -> int:
        explicit = max(self.dims, default=0)
        return explicit

    def __eq__(self, other):
        if not isinstance(other, GradedDim):
            return NotImplemented
        top = max(self.support_bound(), other.support_bound())
        if self.default != other.default:
            return False
        return all(self[d] == other[d] for d in range(top + 1))

    def __repr__(self):
        bits = ", ".join(f"{d}: {self[d]!r}" for d in sorted(self.dims))
        return f"GradedDim({{{bits}}}, default={self.default!r})"

    def to_json(self):
        def enc(v):
            if v is INF:
                return "inf"
            if v is UNKNOWN:
                return "unknown"
            return v

        return {
            "dims": {str(d): enc(v) for d, v in sorted(self.dims.items())},
            "default": enc(self.default),
        }

    @classmethod
    def from_json(cls, data):
        def dec(v):
            if v == "inf":
                return INF
            if v == "unknown":
                return UNKNOWN
            return int(v)

        return cls(
            {int(k): dec(v) for k, v in data.get("dims", {}).items()},
            default=dec(data.get("default", 0)),
        )


def _check_value(v):
    if v is INF or v is UNKNOWN:
        return
    if isinstance(v, int) and v >= 0:
        return
    raise ValueError(f"bad graded dimension value {v!r}")


def kunneth(a: GradedDim, b: GradedDim) -> GradedDim:
    """Degreewise convolution c_n = sum_p a_p * b_{n-p}; over Q there is no
    torsion correction term."""
    top = a.support_bound() + b.support_bound()
    dims = {}
    for n in range(top + 1):
        total = 0
        for p in range(n + 1):
            total = dim_add(total, dim_mul(a[p], b[n - p]))
        dims[n] = total
    if a.default == 0 and b.default == 0:
        default = 0
    else:
        default = UNKNOWN
    return GradedDim(dims, default=default)


def is_q_acyclic(a: GradedDim) -> bool:
    """Degree 0 equal to 1 and every higher degree known to vanish."""
    if a[0] != 1:
        return False
    if a.default != 0:
        return False
    return all(a[d] == 0 for d in range(1, a.support_bound() + 1))


def sb_homology(n: int) -> GradedDim:
    """Dimension table of the n-th generalised Bieri-Stallings group over a
    Q-acyclic base: countably-infinite in degree n+1, zero above, and the
    degrees 1..n are genuinely undetermined at this level."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_SB_DEGREE:
        raise ResourceCap(f"sb homology degree {n} exceeds {MAX_SB_DEGREE}")
    dims = {0: 1, n + 1: INF}
    for d in range(1, n + 1):
        dims[d] = UNKNOWN
    return GradedDim(dims, default=0)


def hnn_euler(chi_U, chi_O, stable_letters: int) -> Fraction:
    """Euler characteristic of an HNN extension with the given number of
    stable letters: chi(U) - |X| * chi(O).  Caller asserts both inputs come
    from bounded, finite-dimensional homology."""
    return Fraction(chi_U) - stable_letters * Fraction(chi_O)


def euler_characteristic(a: GradedDim) -> Fraction:
    """Alternating sum of a bounded, fully known table."""
    if a.default != 0:
        raise ValueError("euler characteristic needs finite support")
    total = Fraction(0)
    for d in range(a.support_bound() + 1):
        v = a[d]
        if v is INF or v is UNKNOWN:
            raise ValueError("euler characteristic needs finite known dimensions")
        total += Fraction((-1) ** d * v)
    return total
