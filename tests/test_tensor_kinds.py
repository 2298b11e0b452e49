"""Every consumer of a tensor argument checks its kind as well as its degree.

A vector field and a 1-form have the same degree and the same components, so
a degree check alone reads one as the other: Gr(pi) = {pi^# alpha + alpha}
and Gr(omega) = {X + i_X omega} are different objects.  Each row passes the
other kind at the right degree and expects the `DegreeError` of the one check
`fields.expect`, which names the consumer.
"""

import re

import pytest

from diraclab._numeric import FlowConfig
from diraclab.dirac import GaugeTransform, GeneralizedSection
from diraclab.errors import DegreeError, ShapeError
from diraclab.fields import (Chart, PolyKForm, PolyKVector, PolyScalar, apply_vector,
                             coordinate_form, coordinate_vector, expect, lie_derivative,
                             vector_bracket)
from diraclab.poisson import (PoissonBivector, TimePolyForm, euler_linearize, moser_verify,
                              sharp_apply)
from diraclab.realization import RealizationConfig, default_spray, invariant_vector_fields

R2 = Chart(2, ("x", "y"))
X, Y = R2.coordinates()
ONE = PolyScalar.constant(R2, 1)
DX, DY = coordinate_form(R2, 0), coordinate_form(R2, 1)
EX, EY = coordinate_vector(R2, 0), coordinate_vector(R2, 1)
PI = PoissonBivector(PolyKVector(R2, 2, {(0, 1): X}))  # x d/dx ^ d/dy
COARSE = FlowConfig(step=0.05)

# consumer -> (the name its error gives, a call that passes the other kind)
KIND_TABLE = {
    "apply_vector": ("apply_vector", lambda: apply_vector(DX, X * X)),
    "lie_derivative": ("lie_derivative", lambda: lie_derivative(DX, X * Y)),
    "vector_bracket": ("vector_bracket", lambda: vector_bracket(EX, DY)),
    "sharp_apply": ("sharp_apply", lambda: sharp_apply(PI, EX)),
    "PoissonBivector": ("PoissonBivector",
                        lambda: PoissonBivector(PolyKForm(R2, 2, {(0, 1): X}))),
    "GeneralizedSection": ("GeneralizedSection X", lambda: GeneralizedSection(DX, EX)),
    "GaugeTransform": ("GaugeTransform",
                       lambda: GaugeTransform(PolyKVector(R2, 2, {(0, 1): ONE}))),
    # a 1-form whose components read as the Euler field x d/dx + y d/dy
    "euler_linearize": ("euler_linearize", lambda: euler_linearize(
        PolyKForm(R2, 1, {(0,): X + X * Y, (1,): Y}), [(0.1, 0.2)], COARSE)),
    "invariant_vector_fields": ("invariant fields", lambda: invariant_vector_fields(
        default_spray(PI), EX, (0.1, 0.2, 0.05, 0.0), RealizationConfig(step=0.05), beta=DY)),
    "moser_verify": ("moser_verify a_t", lambda: moser_verify(
        PoissonBivector(PolyKVector(R2, 2, {(0, 1): ONE})),
        TimePolyForm({0: PolyKVector(R2, 1, {(1,): X})}), [0.5], [(0.1, 0.2)], COARSE)),
}


@pytest.mark.parametrize("consumer", sorted(KIND_TABLE))
def test_the_other_kind_is_refused(consumer):
    who, call = KIND_TABLE[consumer]
    with pytest.raises(DegreeError, match=f"^{re.escape(who)}: expected"):
        call()


@pytest.mark.parametrize("T, cls, degree, message", [
    (DX, PolyKVector, 1, "f: expected a degree-1 multivector (kind=vector), "
                         "got a 1-form (kind=form)"),
    (EX, PolyKForm, 2, "f: expected a 2-form (kind=form), "
                       "got a degree-1 multivector (kind=vector)"),
    (X, PolyKForm, 1, "f: expected a 1-form (kind=form), got a PolyScalar"),
    (TimePolyForm({0: PolyKForm(R2, 2, {})}), PolyKForm, 1,
     "f: expected a 1-form (kind=form), got a 2-form (kind=form)"),
])
def test_the_message_says_what_was_wanted_and_what_came(T, cls, degree, message):
    with pytest.raises(DegreeError) as e:
        expect(T, cls, degree, "f")
    assert str(e.value) == message


def test_a_family_keeps_the_kind_of_its_zero_coefficients():
    # the zero coefficient is dropped, but its kind and degree still decide
    family = TimePolyForm({0: PolyKVector(R2, 1, {}), 1: PolyKVector(R2, 1, {(0,): X})})
    assert family.kind is PolyKVector and list(family.coeffs) == [1]
    expect(family, PolyKVector, 1, "f")
    with pytest.raises(DegreeError):
        expect(TimePolyForm({0: PolyKVector(R2, 1, {})}), PolyKForm, 1, "f")


def test_a_family_has_one_kind():
    with pytest.raises(ShapeError, match="share chart, kind and degree"):
        TimePolyForm({0: DX, 1: EX})
