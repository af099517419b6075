"""Value classes: validation, immutability, equality, hashing and repr, and
the report bytes built from them."""

import hashlib
import io
import re
from fractions import Fraction

import pytest

from fqlattice.cfrac import CfExpansion, ConvergentTable, cf_expand, convergents
from fqlattice.field import Ideal, get_field, poly_from_text
from fqlattice.haar import BoxSpec, Mat2
from fqlattice.harness import (Report, RunConfig, run_bijection, run_joint,
                               to_json)
from fqlattice.lattice import BijectionResult, DomainCell, SphereCell
from fqlattice.laurent import rat

F2 = get_field(2)
F3 = get_field(3)


def _values():
    """(class, a builder of one instance) for every immutable value class."""
    f = rat(poly_from_text(F2, "Y+1"), poly_from_text(F2, "Y^3+Y+1"))
    return [
        (Ideal, lambda: Ideal(poly_from_text(F3, "2Y+1"))),
        (CfExpansion, lambda: cf_expand(f)),
        (ConvergentTable, lambda: convergents(cf_expand(f))),
        (BoxSpec, lambda: BoxSpec(2, Fraction(1, 3), Fraction(1, 2))),
        (Mat2, lambda: Mat2.identity(F3)),
        (SphereCell, lambda: SphereCell(F3, (1, 2), (0, 1))),
        (DomainCell, lambda: DomainCell(F3, 3, (2, 0))),
        (BijectionResult, lambda: BijectionResult(3, 3, True, (), ())),
        (RunConfig, lambda: RunConfig(q=3, ideal="Y", experiment="joint")),
    ]


VALUES = pytest.mark.parametrize("cls,build", _values(),
                                 ids=lambda v: getattr(v, "__name__", ""))


class TestValidation:
    def test_ideal_rejects_zero(self):
        with pytest.raises(ValueError, match="^ideal generator must be nonzero$"):
            Ideal(F3.zero)

    def test_ideal_is_stored_by_its_monic_generator(self):
        ideal = Ideal(poly_from_text(F3, "2Y+1"))
        assert ideal.gen == poly_from_text(F3, "Y+2") and ideal.gen.is_monic()
        assert ideal == Ideal(gen=poly_from_text(F3, "Y+2"))
        assert Ideal(F3.one).gen == F3.one

    @pytest.mark.parametrize("x,y", [((), ()), ((1,), (0, 1)), ((1, 0), (1,))])
    def test_sphere_cell_needs_digits_of_one_positive_length(self, x, y):
        with pytest.raises(ValueError,
                           match="^digit tuples must share a positive length$"):
            SphereCell(F2, x, y)

    def test_sphere_cell_off_the_sphere(self):
        with pytest.raises(ValueError, match="^cell lies outside the unit sphere$"):
            SphereCell(F2, (0, 1), (0, 0))

    @pytest.mark.parametrize("depth,digits", [(0, ()), (2, ()), (2, (0, 1)), (1, (0,))])
    def test_domain_cell_needs_depth_minus_one_digits(self, depth, digits):
        with pytest.raises(ValueError, match="^need depth-1 digits for a depth cell$"):
            DomainCell(F2, depth, digits)

    def test_keywords_and_defaults(self):
        cell = SphereCell(field=F2, x_digits=(1,), y_digits=(1,))
        assert cell == SphereCell(F2, (1,), (1,)) and cell.depth == 1
        assert DomainCell(field=F2, depth=1, digits=()).id_text() == "-"
        assert RunConfig() == RunConfig(2, None, 1, 3, 1, 2, "1", "count",
                                        False, 10 ** 8, 8)


class TestContract:
    @VALUES
    def test_immutable(self, cls, build):
        value = build()
        first = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(AttributeError):
            value.extra = 1

    @VALUES
    def test_equal_values_hash_equal(self, cls, build):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in cls._fields))

    @VALUES
    def test_repr_names_the_fields(self, cls, build):
        value = build()
        assert type(value) is cls
        assert repr(value) == f"{cls.__name__}(" + ", ".join(
            f"{f}={getattr(value, f)!r}" for f in cls._fields) + ")"

    def test_report_is_mutable_with_fresh_warnings(self):
        a = Report(RunConfig(), [], {})
        b = Report(RunConfig(), [], {})
        a.warnings.append("w")
        a.points = []
        assert b.warnings == [] and (a.points, b.points) == ([], None)


@pytest.mark.parametrize("runner,cfg,digest", [
    (run_joint, dict(experiment="joint", q=3, n_min=0, n_max=2, ideal="Y",
                     depth_m=2, depth_mp=2),
     "0fd5eafb5c845e4c00a66342b4f204c4a7b007fe0ae04948c6bbafd02730779f"),
    (run_joint, dict(experiment="joint", q=2, n_min=1, n_max=4, depth_mp=3,
                     dump=True),
     "7cd8fea950d3a7a2cc2fcda653adbd75c7df4810fdd2f8b289b8957f1ee47fcb"),
    (run_bijection, dict(experiment="bijection", q=3, n_max=1, ideal="Y+1"),
     "0021aaaed0771d47665eb4325688b9d6c432f552b6af68449c07e9970f8564ff"),
], ids=["joint-q3", "joint-q2-dump", "bijection-q3"])
def test_json_report_digest(runner, cfg, digest):
    # SHA-256 with the build line masked, recorded while the value classes
    # were frozen dataclasses
    stream = io.StringIO()
    to_json(runner(RunConfig(**cfg)), stream)
    text = stream.getvalue()
    masked = re.sub(r'^  "build": .*$', '  "build": "*",', text, flags=re.MULTILINE)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest
