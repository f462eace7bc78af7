import itertools
import math
import random
from fractions import Fraction

import pytest

from topraag import models
from topraag.errors import ModelError, NotInDomain, NotShrinkingModel, ResourceCap
from test_engine_contract import F20
from topraag.models import (
    BaseModel,
    FiniteModel,
    ShiftModel,
    TrivialModel,
    model_from_config,
    perm_from_cycles,
    perm_identity,
    perm_inv,
    perm_mul,
    s3_a3_model,
)

S3A3 = s3_a3_model()


def test_perm_helpers():
    p = perm_from_cycles(3, [[0, 1, 2]])
    assert p == (1, 2, 0)
    assert perm_mul(p, perm_inv(p)) == perm_identity(3)


def test_s3_a3_structure():
    assert len(S3A3.U) == 6
    assert len(S3A3.O) == 3
    assert S3A3.is_automorphic
    assert not S3A3.is_shrinking
    assert S3A3.index_O() == 2
    assert S3A3.index_phiO() == 2


def test_decompose_exhaustive_oracle():
    # u = omega * u_hat with omega in O, u_hat in R: unique, by full scan
    for u in sorted(S3A3.U):
        omega, u_hat = S3A3.decompose(u)
        assert omega in S3A3.O and u_hat in S3A3.transversal_R()
        assert perm_mul(omega, u_hat) == u
        candidates = [
            (w, r)
            for w in S3A3.O
            for r in S3A3.transversal_R()
            if perm_mul(w, r) == u
        ]
        assert candidates == [(omega, u_hat)]


def test_decompose_is_bijection():
    pairs = {S3A3.decompose(u) for u in S3A3.U}
    assert len(pairs) == len(S3A3.U)


def test_decompose_with_explicit_transversal():
    # the spec's worked example uses R = {e, (12)}
    t12 = perm_from_cycles(3, [[0, 1]])
    m = FiniteModel(
        3,
        S3A3.u_gens,
        S3A3.o_gens,
        S3A3.phi_images,
        coset_reps=[perm_identity(3), t12],
    )
    assert m.decompose(t12) == (perm_identity(3), t12)
    c3 = perm_from_cycles(3, [[0, 1, 2]])
    assert m.decompose(c3) == (c3, perm_identity(3))


def _decompose_by_scan(model, u):
    # the transversal scan the decomposition table replaced
    for r in model.transversal_R():
        omega = perm_mul(u, perm_inv(r))
        if omega in model.O:
            return omega, r
    raise AssertionError("transversal failed to cover U")


C3 = perm_from_cycles(3, [[0, 1, 2]])
T12 = perm_from_cycles(3, [[0, 1]])
DECOMPOSE_MODELS = {
    "s3a3": S3A3,
    # phi = inversion on O = A3
    "inversion": FiniteModel(3, S3A3.u_gens, [C3], [perm_inv(C3)]),
    # phi(O) != O
    "general": FiniteModel(3, S3A3.u_gens, [T12], [perm_from_cycles(3, [[0, 2]])]),
    "explicit-reps": FiniteModel(
        3, S3A3.u_gens, S3A3.o_gens, S3A3.phi_images, coset_reps=[perm_identity(3), T12]
    ),
    # U = A3, so the transpositions lie outside U
    "a3": FiniteModel(3, [C3], [C3], [C3]),
}


@pytest.mark.parametrize("model", DECOMPOSE_MODELS.values(), ids=DECOMPOSE_MODELS.keys())
def test_decompose_table_matches_transversal_scan(model):
    for u in sorted(model.U):
        assert model.decompose(u) == _decompose_by_scan(model, u)
    outside = [p for p in itertools.permutations(range(3)) if p not in model.U]
    for u in outside + [(0, 1, 2, 3), (0, 0, 1), ()]:
        with pytest.raises(NotInDomain):
            model.decompose(u)


def test_phi_apply_unapply():
    sm = ShiftModel(2)
    assert sm.phi(3) == 6
    assert sm.phi_inv(6) == 3
    with pytest.raises(NotInDomain):
        sm.phi_inv(3)
    c3 = perm_from_cycles(3, [[0, 1, 2]])
    assert S3A3.phi(c3) == c3


def _power_or_error(power, w, e):
    try:
        return power(w, e)
    except NotInDomain as exc:
        return NotInDomain, str(exc)


# phi the identity, an inversion, of order 4 (F20), phi(O) != O (where
# phi^2 leaves the domain), and the trivial model
PHI_POWER_MODELS = {
    "s3a3": S3A3,
    "inversion": DECOMPOSE_MODELS["inversion"],
    "f20": F20,
    "general": DECOMPOSE_MODELS["general"],
    "trivial": TrivialModel(),
}


@pytest.mark.parametrize("model", PHI_POWER_MODELS.values(), ids=PHI_POWER_MODELS.keys())
def test_phi_power_matches_the_loop_on_O(model):
    domain = sorted(model.O)
    for e in range(-6, 7):
        for w in domain:
            want = _power_or_error(lambda w, e: BaseModel.phi_power(model, w, e), w, e)
            # twice, so a memoised value and a failure that was not stored are both read
            for _ in range(2):
                assert _power_or_error(model.phi_power, w, e) == want


@pytest.mark.parametrize("m", [2, 3])
def test_shift_phi_power_matches_the_loop(m):
    model = ShiftModel(m)
    samples = list(range(-30, 31)) + [m**6, -(m**5), 5 * m**4, m**3 + 1, -7 * m**2]
    refused = 0
    for e in range(-6, 7):
        for w in samples:
            want = _power_or_error(lambda w, e: BaseModel.phi_power(model, w, e), w, e)
            assert _power_or_error(model.phi_power, w, e) == want
            refused += isinstance(want, tuple)
    assert refused  # the non-divisible cases are in the sample


def test_phi_homomorphism_and_injectivity():
    for a in S3A3.O:
        for b in S3A3.O:
            assert S3A3.phi(perm_mul(a, b)) == perm_mul(S3A3.phi(a), S3A3.phi(b))
    assert len({S3A3.phi(w) for w in S3A3.O}) == len(S3A3.O)


def test_bad_phi_rejected():
    # sending the 3-cycle to a transposition is not a homomorphism extension
    t12 = perm_from_cycles(3, [[0, 1]])
    with pytest.raises(ModelError):
        FiniteModel(3, S3A3.u_gens, S3A3.o_gens, [t12])


def test_non_subgroup_rejected():
    t12 = perm_from_cycles(3, [[0, 1]])
    with pytest.raises(ModelError):
        FiniteModel(3, [perm_from_cycles(3, [[0, 1, 2]])], [t12], [t12])


# a short entry, and a three-coset transversal of O = 1 in U = A3 whose
# transpositions lie outside U
BAD_COSET_REPS = {
    "short": (S3A3.u_gens, S3A3.o_gens, [[0, 1, 2], [1, 0]], [1, 0]),
    "outside-U": ([perm_from_cycles(3, [[0, 1, 2]])], [], [[0, 1, 2], [1, 0, 2], [0, 2, 1]], [1, 0, 2]),
}


@pytest.mark.parametrize("u_gens, o_gens, reps, bad", BAD_COSET_REPS.values(), ids=BAD_COSET_REPS.keys())
def test_coset_reps_outside_U_rejected(u_gens, o_gens, reps, bad):
    with pytest.raises(ModelError) as err:
        FiniteModel(3, u_gens, o_gens, o_gens, coset_reps=reps)
    assert str(err.value) == f"coset_reps entry {bad} is not a permutation in U"


def test_shift_model_basics():
    sm = ShiftModel(2)
    assert sm.index_O() == 1 and sm.index_phiO() == 2
    assert sm.is_shrinking and not sm.is_automorphic
    assert sm.decompose(5) == (5, 0)
    assert sm.transversal_R() == (0,)
    assert sm.left_transversal(1) == (0, 1)
    assert sm.left_transversal(2) == (0, 1, 2, 3)


def test_trivial_model():
    tm = TrivialModel()
    assert tm.decompose(()) == ((), ())
    assert tm.index_O() == 1 and tm.index_phiO() == 1
    assert tm.is_automorphic
    # the finite model of degree 0, spelled "1" and written as its kind alone
    assert isinstance(tm, FiniteModel) and tm.degree == 0
    assert tm.U == tm.O == tm.phiO == {()}
    assert tm.format_u(()) == "1" and tm.parse_u("1") == ()
    assert tm.to_json() == {"kind": "trivial"}
    with pytest.raises(ModelError, match="trivial model only has the element '1', got 'perm\\[\\]'"):
        tm.parse_u("perm[]")


def test_spell():
    sm = ShiftModel(2)
    assert sm.spell(Fraction(6, 2)) == (0, 3)
    assert sm.spell(5) == (0, 5)
    assert sm.spell(Fraction(8, 2**3)) == (0, 1)
    assert sm.spell(Fraction(0, 2**2)) == (0, 0)
    assert sm.spell(Fraction(1, 2)) == (1, 1)
    # Fraction reduces 3/6 to 1/2; over m = 6 it is still spelled 3 / 6^1
    assert ShiftModel(6).spell(Fraction(3, 6)) == (1, 3)
    with pytest.raises(NotInDomain):
        sm.spell(Fraction(1, 3))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_spell_round_trip(m):
    sm = ShiftModel(m)
    rng = random.Random(m)
    for _ in range(1000):
        n = Fraction(rng.randint(-40, 40), m ** rng.randint(0, 4))
        k, u = sm.spell(n)
        assert Fraction(u, m**k) == n
        assert k == 0 or u % m


def test_spell_idempotent_and_group_law():
    sm = ShiftModel(3)
    val = lambda pair: Fraction(pair[1], sm.m ** pair[0])
    rng = random.Random(0)
    for _ in range(1000):
        p = Fraction(rng.randint(-40, 40), sm.m ** rng.randint(0, 4))
        assert sm.spell(val(sm.spell(p))) == sm.spell(p)
        # the spelling is injective, the group law is addition and the inverse
        # negates u; scale(e) is m^e exactly
        q = Fraction(rng.randint(-40, 40), sm.m ** rng.randint(0, 4))
        assert val(sm.spell(p + q)) == val(sm.spell(p)) + val(sm.spell(q))
        if p != q:
            assert sm.spell(p) != sm.spell(q)
        k, u = sm.spell(p)
        assert sm.spell(-p) == (k, -u)
        e = rng.randint(-4, 4)
        assert sm.scale(e) == Fraction(sm.m) ** e
        assert p * sm.scale(e) * sm.scale(-e) == p


def test_phi_depth():
    sm2 = ShiftModel(2)
    assert sm2.phi_depth(6) == 1
    assert sm2.phi_depth(5) == 0
    assert ShiftModel(3).phi_depth(27) == 3
    assert sm2.phi_depth(0) == math.inf
    with pytest.raises(NotShrinkingModel):
        S3A3.phi_depth(perm_identity(3))
    with pytest.raises(NotShrinkingModel):
        TrivialModel().phi_depth(())


def test_model_from_config():
    assert isinstance(model_from_config({"kind": "shift", "m": 2}), ShiftModel)
    assert isinstance(model_from_config({"kind": "trivial"}), TrivialModel)
    m = model_from_config(
        {
            "kind": "finite",
            "degree": 3,
            "U_gens": [[1, 0, 2], [1, 2, 0]],
            "O_gens": [[1, 2, 0]],
            "phi_images": [[1, 2, 0]],
        }
    )
    assert m.is_automorphic
    with pytest.raises(ModelError):
        model_from_config({"kind": "nope"})
    with pytest.raises(ModelError):
        model_from_config({"kind": "shift", "m": 1})


# S9 = <(0 1), (0 1 ... 8)> has 362,880 elements
S9_CONFIG = {
    "kind": "finite",
    "degree": 9,
    "U_gens": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]],
    "O_gens": [],
    "phi_images": [],
}


def test_group_closure_is_capped(monkeypatch):
    with pytest.raises(ResourceCap, match="^finite model group exceeds 100000 elements$"):
        model_from_config(S9_CONFIG)
    # the cap counts elements: a group of exactly the cap loads, one more raises
    monkeypatch.setattr(models, "MAX_GROUP_ORDER", 6)
    assert len(model_from_config(S3A3.to_json()).U) == 6
    monkeypatch.setattr(models, "MAX_GROUP_ORDER", 5)
    with pytest.raises(ResourceCap, match="^finite model group exceeds 5 elements$"):
        model_from_config(S3A3.to_json())


def test_parse_format_tokens():
    assert S3A3.parse_u("perm[1,0,2]") == (1, 0, 2)
    assert S3A3.format_u((1, 0, 2)) == "perm[1,0,2]"
    sm = ShiftModel(2)
    assert sm.parse_u("-3") == -3
    with pytest.raises(ModelError):
        S3A3.parse_u("perm[9,9,9]")
