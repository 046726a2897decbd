"""Record semantics: the frozen records refuse assignment and compare and
hash by value; mutable records compare by value and stay unhashable."""

import copy
import pickle

import pytest

from mazurtate.arith import ModInt
from mazurtate.cli import Check, RunReport
from mazurtate.curves import CatalogError, EulerFactor, curve_by_label
from mazurtate.groupring import DirichletCharacter
from mazurtate.modsym import EigenSymbol, build_space, eigen_symbol
from mazurtate.oracle import LValueOracle
from mazurtate.padic import IwasawaInvariants, PadicThetaTower
from mazurtate.qexp import TorsionPoint


def _frozen_pairs():
    """(x, y): equal values built separately, one pair per frozen record class."""
    plus = eigen_symbol(build_space(11), curve_by_label("11a1"), 1)
    return [
        (ModInt(3, 7), ModInt(10, 7)),
        (EulerFactor(5, (1, -1, 5)), EulerFactor(5, (1, -1, 5))),
        (DirichletCharacter(5, (1,)), DirichletCharacter(5, (1,))),
        (plus, plus._replace()),
        (TorsionPoint(1, 2, 5), TorsionPoint(6, -3, 5)),
        tuple(LValueOracle("11a1", 0.25, 1.27, 1e-13, 40, 1) for _ in range(2)),
    ]


@pytest.mark.parametrize("x, y", _frozen_pairs(), ids=lambda v: type(v).__name__)
def test_frozen_records_are_values(x, y):
    assert x is not y
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert not hasattr(x, "__dict__")
    for name in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y
    shallow, deep, pickled = copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))
    assert shallow == x and hash(shallow) == hash(x)
    for twin in (deep, pickled):
        assert type(twin) is type(x) and repr(twin) == repr(x)
        # a deep copy of an EigenSymbol holds a new space, and spaces compare by identity
        assert twin == x or isinstance(x, EigenSymbol)


def test_equality_needs_the_same_class():
    assert ModInt(1, 5) != 1 and ModInt(1, 5) != ModInt(1, 7)
    assert TorsionPoint(1, 2, 5) != TorsionPoint(1, 3, 5)
    assert DirichletCharacter(5, (1,)) != DirichletCharacter(5, (3,))


def test_replace_builds_a_new_validated_record():
    x = ModInt(3, 7)
    assert x._replace(residue=9) == ModInt(2, 7) and x == ModInt(3, 7)
    with pytest.raises(ValueError, match="level"):
        TorsionPoint(1, 2, 5)._replace(level=0)


def test_mutable_records_compare_by_value_and_are_unhashable():
    report = RunReport("curve", {"label": "11a1"})
    assert report.outputs == {} and report.checks == [] and report.timing is None
    assert RunReport("curve", {}).outputs is not RunReport("curve", {}).outputs
    assert Check("c", "pass") == Check("c", "pass") != Check("c", "fail")
    with pytest.raises(TypeError):
        hash(Check("c", "pass"))
    report.timing = 1.5
    assert report.timing == 1.5
    with pytest.raises(AttributeError):
        report.extra = 1


def test_records_bind_arguments_to_fields():
    assert Check("c", "pass") == Check(name="c", status="pass", witness=None)
    assert Check("c", status="fail", witness="w").witness == "w"
    tower = PadicThetaTower("11a1", 3, 2, ModInt(1, 9), {}, ModInt(0, 9), 1)
    assert tower.variant == "A" and tower._replace(variant="B").variant == "B"
    for bad in (("c",), ("c", "pass", "w", "extra")):
        with pytest.raises(TypeError):
            Check(*bad)
    with pytest.raises(TypeError):
        Check("c", "pass", colour="red")
    with pytest.raises(TypeError):
        Check("c", "pass", name="d")


def test_mutable_records_copy_and_pickle_through_init():
    report = RunReport("curve", {"label": "11a1"}, checks=[Check("c", "pass")])
    curve = curve_by_label("37a1")
    curve.ap(5)
    for x in (report, curve):
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x) and twin == x
    assert copy.deepcopy(curve).ap_cache is not curve.ap_cache
    bad = copy.copy(curve)
    bad.ap_cache = {5: 99}  # |a_5| > 2 sqrt 5: the rebuilt record refuses it
    with pytest.raises(CatalogError, match="Hasse"):
        copy.copy(bad)


def test_repr_names_every_field():
    assert repr(Check("c", "fail", "w")) == "Check(name='c', status='fail', witness='w')"
    inv = IwasawaInvariants(0, 1, 3, 4, True)
    assert repr(inv) == (
        "IwasawaInvariants(lambda_=0, mu=1, layer=3, precision=4, stable=True, "
        "component_invariants={}, unstable_components=(), "
        "normalization='integral-normalized')"
    )
    assert repr(ModInt(3, 7)) == "3 mod 7" and repr(TorsionPoint(1, 2, 5)) == "(1/5, 2/5)"
