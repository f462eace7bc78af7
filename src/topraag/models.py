"""Computable models of a monomorphism phi: O -> U between a group U and a
subgroup O <= U.

Two families are supported:

* ``FiniteModel``    -- U a permutation group of small degree, O a subgroup,
                        phi given by images of O's generators; mul, inv and
                        left_split are lookups in per-model tables that fill
                        on first use, keyed by the permutation tuples, with
                        the generic ``BaseModel.left_split`` scan as their
                        reference; ``TrivialModel`` (U = {1}) is the
                        finite model of degree 0;
* ``ShiftModel``     -- U = Z under addition, phi = multiplication by m >= 2,
                        so O = U and phi(U) = mZ is proper.

All arithmetic is exact.  The regime phi(O) strictly inside O with O != U is
reachable only through ShiftModel: a finite model always has |phi(O)| = |O|.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ModelError, NotInDomain, NotShrinkingModel, ResourceCap

INFINITE = math.inf
# a finite model lists U and O element by element and keys its tables by them
MAX_GROUP_ORDER = 100_000

Perm = tuple[int, ...]


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles) -> Perm:
    out = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a] = b
    return tuple(out)


def _closure(generators, mul, identity):
    elems = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = mul(x, g)
            if y not in elems:
                if len(elems) >= MAX_GROUP_ORDER:
                    raise ResourceCap(f"finite model group exceeds {MAX_GROUP_ORDER} elements")
                elems.add(y)
                frontier.append(y)
    return elems


class BaseModel:
    """Uniform element interface; subclasses fix the element type."""

    kind = "base"

    # -- group operations ------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- subgroup structure ----------------------------------------------
    def in_O(self, u) -> bool:
        raise NotImplementedError

    def in_phiO(self, u) -> bool:
        raise NotImplementedError

    def phi(self, w):
        raise NotImplementedError

    def phi_inv(self, v):
        raise NotImplementedError

    def phi_power(self, w, e: int):
        """phi^e(w): e steps of phi (or -e of phi_inv) from w, raising
        NotInDomain at the first step that leaves the domain.  The loop is
        the reference for every model's faster form."""
        step = self.phi if e > 0 else self.phi_inv
        for _ in range(abs(e)):
            w = step(w)
        return w

    def transversal_R(self):
        """Representatives of the right cosets O\\U, identity included."""
        raise NotImplementedError

    def decompose(self, u):
        """u = omega * u_hat with omega in O and u_hat in the transversal."""
        raise NotImplementedError

    def left_transversal(self, k: int):
        """Representatives of the left cosets U / phi^k(O); k = 0 gives U/O."""
        raise NotImplementedError

    def left_split(self, u, sign):
        """(rep, conj) with u * t^sign = rep * t^sign * conj for a generator t
        and rep a representative of U/phi(O) (sign +1) or U/O (sign -1)."""
        for rep in self.left_transversal(1 if sign == 1 else 0):
            w = self.mul(self.inv(rep), u)
            if sign == 1 and self.in_phiO(w):
                return rep, self.phi_inv(w)
            if sign == -1 and self.in_O(w):
                return rep, self.phi(w)
        raise AssertionError("left transversal failed to cover U")

    def index_O(self):
        raise NotImplementedError

    def index_phiO(self):
        raise NotImplementedError

    @property
    def is_automorphic(self) -> bool:
        raise NotImplementedError

    @property
    def is_shrinking(self) -> bool:
        raise NotImplementedError

    def phi_depth(self, u):
        raise NotShrinkingModel(f"phi_depth needs O = U with phi shrinking, not {self.kind}")

    # -- serialization ----------------------------------------------------
    def format_u(self, u) -> str:
        raise NotImplementedError

    def parse_u(self, token: str):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class FiniteModel(BaseModel):
    kind = "finite"

    def __init__(self, degree, u_gens, o_gens, phi_images, coset_reps=None):
        if degree < 0:
            raise ModelError(f"finite model field 'degree' must be >= 0, got {degree}")
        self.degree = degree
        ident = perm_identity(degree)
        u_gens = [tuple(g) for g in u_gens]
        o_gens = [tuple(g) for g in o_gens]
        phi_images = [tuple(g) for g in phi_images]
        for p in u_gens + o_gens + phi_images:
            if sorted(p) != list(range(degree)):
                raise ModelError(f"not a permutation of degree {degree}: {p}")
        self.u_gens = u_gens
        self.o_gens = o_gens
        self.phi_images = phi_images
        self.U = frozenset(_closure(u_gens, perm_mul, ident))
        self.O = frozenset(_closure(o_gens, perm_mul, ident))
        if not self.O <= self.U:
            raise ModelError("O is not a subgroup of U")
        if not set(phi_images) <= self.U:
            raise ModelError("phi images must lie in U")
        if len(phi_images) != len(o_gens):
            raise ModelError("need one phi image per O generator")
        self.phi_table = self._extend_phi()
        self.phiO = frozenset(self.phi_table.values())
        if len(self.phiO) != len(self.O):
            raise ModelError("phi is not injective")
        self._automorphic = self.phiO == self.O
        self.phi_inv_table = {v: w for w, v in self.phi_table.items()}
        self._R = self._right_transversal(coset_reps)
        self._reps_given = coset_reps is not None
        # u = omega * r for every omega in O and r in R, each u once
        self._decomposition = {perm_mul(w, r): (w, r) for r in self._R for w in self.O}
        self._left = {}
        # Arithmetic tables over U, keyed by the permutation itself.  inv is
        # |U| entries; a mul row and the left_split memo fill on first use,
        # so construction does no per-pair work.  A key that is missing from
        # _inv is not an element of U.
        self._identity = ident
        self._inv = {u: perm_inv(u) for u in self.U}
        self._mul = {u: {} for u in self.U}
        self._split = {}
        self._powers = {}                # e -> {w: phi^e(w)}, filled on use

    def _extend_phi(self):
        # extend gen |-> image multiplicatively over all of O, failing if
        # the assignment is not a well-defined homomorphism
        ident = perm_identity(self.degree)
        table = {ident: ident}
        frontier = [ident]
        while frontier:
            w = frontier.pop()
            for g, img in zip(self.o_gens, self.phi_images):
                x = perm_mul(w, g)
                y = perm_mul(table[w], img)
                if x in table:
                    if table[x] != y:
                        raise ModelError("phi images do not define a homomorphism")
                else:
                    table[x] = y
                    frontier.append(x)
        if len(table) != len(self.O):
            raise ModelError("O generators do not generate O")
        return table

    def _right_transversal(self, coset_reps):
        # right cosets O\U; canonical rep = lexicographically least member
        cosets = {}
        for u in self.U:
            key = frozenset(perm_mul(w, u) for w in self.O)
            cosets.setdefault(key, []).append(u)
        if coset_reps is None:
            reps = sorted(min(members) for members in cosets.values())
        else:
            reps = [tuple(r) for r in coset_reps]
            for r in reps:
                if r not in self.U:
                    raise ModelError(f"coset_reps entry {list(r)} is not a permutation in U")
            keys = {frozenset(perm_mul(w, r) for w in self.O) for r in reps}
            if len(keys) != len(cosets) or len(reps) != len(cosets):
                raise ModelError("explicit coset_reps is not a right transversal")
            if perm_identity(self.degree) not in reps:
                raise ModelError("transversal must contain the identity")
        return tuple(reps)

    # -- BaseModel interface ----------------------------------------------
    def identity(self):
        return self._identity

    def mul(self, a, b):
        try:
            return self._mul[a][b]
        except (KeyError, TypeError):
            pass
        for u in (a, b):
            if not self._is_element(u):
                raise NotInDomain(f"{u!r} is not in U")
        c = self._mul[a][b] = perm_mul(a, b)
        return c

    def inv(self, a):
        try:
            return self._inv[a]
        except (KeyError, TypeError):
            raise NotInDomain(f"{a!r} is not in U") from None

    def _is_element(self, u) -> bool:
        try:
            return u in self._inv
        except TypeError:  # unhashable, so not a permutation tuple
            return False

    def in_O(self, u):
        return u in self.O

    def in_phiO(self, u):
        return u in self.phiO

    def phi(self, w):
        try:
            return self.phi_table[w]
        except KeyError:
            raise NotInDomain(f"{w} is not in O") from None

    def phi_inv(self, v):
        try:
            return self.phi_inv_table[v]
        except KeyError:
            raise NotInDomain(f"{v} is not in phi(O)") from None

    def phi_power(self, w, e):
        # memo of the loop, which stays the reference; a failure is not stored
        try:
            return self._powers[e][w]
        except (KeyError, TypeError):
            pass
        out = self._powers.setdefault(e, {})[w] = BaseModel.phi_power(self, w, e)
        return out

    def transversal_R(self):
        return self._R

    def decompose(self, u):
        try:
            return self._decomposition[u]
        except KeyError:
            raise NotInDomain(f"{u} is not in U") from None

    def phi_k_O(self, k: int) -> frozenset:
        if k <= 0 or self.is_automorphic:
            return self.O
        if k == 1:
            return self.phiO
        # iterating phi needs phi(O) <= O, which a finite model only has
        # when phi(O) = O
        raise NotInDomain("phi^k(O) with k >= 2 needs phi(O) = O on finite models")

    def left_split(self, u, sign):
        # memo of the generic scan, which stays the reference
        key = (u, sign)
        try:
            return self._split[key]
        except (KeyError, TypeError):
            pass
        out = self._split[key] = BaseModel.left_split(self, u, sign)
        return out

    def left_transversal(self, k: int):
        if k not in self._left:
            sub = self.phi_k_O(k)
            cosets = {}
            for u in sorted(self.U):
                key = frozenset(perm_mul(u, w) for w in sub)
                cosets.setdefault(key, u)
            self._left[k] = tuple(sorted(cosets.values()))
        return self._left[k]

    def index_O(self):
        return len(self.U) // len(self.O)

    def index_phiO(self):
        return len(self.U) // len(self.phiO)

    @property
    def is_automorphic(self):
        return self._automorphic

    @property
    def is_shrinking(self):
        return False

    def format_u(self, u):
        return "perm[" + ",".join(str(i) for i in u) + "]"

    def parse_u(self, token):
        if not token.startswith("perm[") or not token.endswith("]"):
            raise ModelError(f"bad permutation token {token!r}")
        body = token[5:-1]
        p = tuple(int(x) for x in body.split(",")) if body else ()
        if sorted(p) != list(range(self.degree)):
            raise ModelError(f"{token!r} is not a permutation of degree {self.degree}")
        if p not in self.U:
            raise ModelError(f"{token!r} is not an element of U")
        return p

    def to_json(self):
        out = {
            "kind": "finite",
            "degree": self.degree,
            "U_gens": [list(g) for g in self.u_gens],
            "O_gens": [list(g) for g in self.o_gens],
            "phi_images": [list(g) for g in self.phi_images],
        }
        if self._reps_given:
            # a chosen transversal changes the ball, so it is part of the model
            out["coset_reps"] = [list(r) for r in self._R]
        return out


class ShiftModel(BaseModel):
    kind = "shift"

    def __init__(self, m: int):
        if m < 2:
            raise ModelError("shift factor m must be >= 2")
        self.m = m

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def in_O(self, u):
        return True

    def in_phiO(self, u):
        return u % self.m == 0

    def phi(self, w):
        return self.m * w

    def phi_inv(self, v):
        if v % self.m:
            raise NotInDomain(f"{v} is not divisible by {self.m}")
        return v // self.m

    def phi_power(self, w, e):
        if e >= 0:
            return w * self.m**e
        q, r = divmod(w, self.m**-e)
        if r:
            # the loop names the first quotient that m does not divide
            return BaseModel.phi_power(self, w, e)
        return q

    def transversal_R(self):
        return (0,)

    def decompose(self, u):
        return u, 0

    def left_transversal(self, k: int):
        return tuple(range(self.m**k))

    def left_split(self, u, sign):
        # the base scan in closed form: u = (u mod m) + m * conj for sign +1,
        # and U/O has the one representative 0
        if sign == 1:
            rep = u % self.m
            return rep, (u - rep) // self.m
        return 0, self.m * u

    def index_O(self):
        return 1

    def index_phiO(self):
        return self.m

    @property
    def is_automorphic(self):
        return False

    @property
    def is_shrinking(self):
        return True

    def phi_depth(self, u):
        """Largest j with u in phi^j(U); the m-adic valuation of u."""
        if u == 0:
            return INFINITE
        d = 0
        while u % self.m == 0:
            u //= self.m
            d += 1
        return d

    # -- the normal closure Z[1/m] ------------------------------------------
    def scale(self, e: int):
        """m^e exactly: conjugation by an Artin element of exponent e
        multiplies a value of the normal closure by this."""
        return self.m**e if e >= 0 else Fraction(1, self.m**-e)

    def spell(self, n) -> tuple[int, int]:
        """(k, u) with n = u / m^k and k >= 0 least, so k = 0 or m does not
        divide u: the spelling s^-k u s^k that keys and output use."""
        d = n.denominator
        k, power = 0, 1
        while power % d:
            # d divides m^k for some k iff it does for k = bit length of d
            if k == d.bit_length():
                raise NotInDomain(f"{n} is not in Z[1/{self.m}]")
            k, power = k + 1, power * self.m
        return k, n.numerator * (power // d)

    def latitude(self, n):
        """sup{ e : n lies in s^e U s^-e = m^e Z }; +inf only for 0."""
        k, u = self.spell(n)
        return self.phi_depth(u) - k

    def format_u(self, u):
        return str(u)

    def parse_u(self, token):
        return int(token)

    def to_json(self):
        return {"kind": "shift", "m": self.m}


class TrivialModel(FiniteModel):
    """U = {1}: the finite model of degree 0, whose group is the plain RAAG
    and whose complex is its standard (Salvetti) cube complex.  Only the
    spelling of its one element and its JSON differ from FiniteModel."""

    kind = "trivial"

    def __init__(self):
        super().__init__(0, [], [], [])

    def format_u(self, u):
        return "1"

    def parse_u(self, token):
        if token != "1":
            raise ModelError(f"trivial model only has the element '1', got {token!r}")
        return ()

    def to_json(self):
        return {"kind": "trivial"}


def model_from_config(cfg: dict) -> BaseModel:
    if not isinstance(cfg, dict):
        raise ModelError(f"model must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")

    def need(key):
        if key not in cfg:
            raise ModelError(f"{kind} model needs {key!r}")
        return cfg[key]

    def need_int(key):
        value = need(key)
        # JSON integers only: int() would truncate 2.9 and parse "3", and
        # bool is a subclass of int
        if isinstance(value, bool) or not isinstance(value, int):
            raise ModelError(f"{kind} model field {key!r} must be an integer, got {value!r}")
        return value

    def need_perms(key):
        value = need(key)
        if not isinstance(value, list) or not all(
            isinstance(p, list) and all(isinstance(i, int) for i in p) for p in value
        ):
            msg = f"{kind} model field {key!r} must be a list of integer lists, got {value!r}"
            raise ModelError(msg)
        return value

    if kind == "shift":
        return ShiftModel(need_int("m"))
    if kind == "trivial":
        return TrivialModel()
    if kind == "finite":
        return FiniteModel(
            need_int("degree"),
            need_perms("U_gens"),
            need_perms("O_gens"),
            need_perms("phi_images"),
            coset_reps=None if cfg.get("coset_reps") is None else need_perms("coset_reps"),
        )
    raise ModelError(f"unknown model kind {kind!r}")


def model_from_json(path) -> BaseModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))


def s3_a3_model() -> FiniteModel:
    """U = S3 as permutations of {0,1,2}, O = A3, phi = identity."""
    s3 = [perm_from_cycles(3, [[0, 1]]), perm_from_cycles(3, [[0, 1, 2]])]
    a3 = [perm_from_cycles(3, [[0, 1, 2]])]
    return FiniteModel(3, s3, a3, a3)
