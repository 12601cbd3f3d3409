"""Malformed input at every public boundary raises a TopmonadsError.

Every public function that takes a point, a point name, a mask of points or
an object that lives on a space is called with an out-of-range index, a
negative index, an unknown name and an object from another space of the
same size (discrete(2) against Sierpinski space), wherever its signature
admits that kind of input.  Each call must raise a subclass of
TopmonadsError: no IndexError, KeyError, bare ValueError or TypeError, no
endless loop, and no result.  A hit table must be one bool per open, and a
measure needs a T0 space, where every subset is Borel.  A weight or value
must be an element of [0, oo]: a negative number, a string outside the
rational grammar, or None raises a MalformedValue.  So does a law-run
setting out of range: GenConfig's seed not an int, its max_points below 0,
its instance_count or weight_denominator_bound below 1 or not an int, or an
allow_infinity that is not a bool.  So does a difference that would be
negative, and a division by 0 or oo raises a ZeroDenominator.  P's operations take valuations of mass
one and raise NotNormalized on any other.  The opens form of a space document names the
malformed part in a fixed message: an opens value or an open that is not a
list, and a name that is not a point, unhashable ones included.  A
preorder entry that is not a pair raises a NotAPreorder.

Left out, because their inputs are bare bit-masks that no space checks:
spaces.bits, popcount and upsets_of_up_masks, and hyperspace's
inclusion_up_masks and inclusion_downsets.  The predicates is_open and
is_closed answer False for a mask with bits outside the points, which is
the right answer, and require_open raises.
"""

import pytest

from topmonads import cli
from topmonads import hyperspace as hy
from topmonads import lawcheck as lc
from topmonads import probability as pb
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads.cli import MalformedDocument
from topmonads.errors import (
    InvalidValue, NotNormalized, ShapeMismatch, TopmonadsError, ZeroDenominator
)
from topmonads.extrat import INF, ONE, ZERO, ExtRat, ext

S = sp.sierpinski()
D = sp.discrete(2)  # the other space: two points, like S
P = sp.product(S, S)
OUT, NEG, NAME = 7, -1, "zz"

nu = va.valuation_from_weights(S, (ext("1/2"), ext("1/2")))
nu_d = va.valuation_from_weights(D, (ext("1/2"), ext("1/2")))
g = va.LowerSemiFn(S, (ZERO, ONE))
g_d = va.LowerSemiFn(D, (ZERO, ONE))
c = hy.unit_sigma(S, 1)
c_d = hy.unit_sigma(D, 1)
hx = hy.build_hyperspace(S)
f = sp.identity_map(S)
f_d = sp.identity_map(D)
xi = va.SimpleSecondOrder(S, ((ONE, nu),))
xi_d = va.SimpleSecondOrder(D, ((ONE, nu_d),))
k = va.delta_kernel(S)
m = pb.extend_to_measure(nu)
p = pb.ProbValuation(S, nu.weights)
joins = hy.join_algebra_map(S)


def space_doc(opens):
    return {"schema": 1, "points": list(S.points), "opens": opens}


CALLS = {
    # spaces
    "FiniteSpace.index name": lambda: S.index(NAME),
    "FiniteSpace.mask_of name": lambda: S.mask_of([NAME]),
    "FiniteSpace.require_point out": lambda: S.require_point(OUT),
    "FiniteSpace.require_point negative": lambda: S.require_point(NEG),
    "FiniteSpace.require_point name": lambda: S.require_point(NAME),
    "FiniteSpace.require_point object": lambda: S.require_point(c),
    "FiniteSpace.leq out": lambda: S.leq(OUT, 0),
    "FiniteSpace.leq negative": lambda: S.leq(0, NEG),
    "FiniteSpace.leq name": lambda: S.leq(NAME, 0),
    "FiniteSpace.mask_names out": lambda: S.mask_names(1 << OUT),
    "FiniteSpace.mask_names negative": lambda: S.mask_names(NEG),
    "FiniteSpace.closure out": lambda: S.closure(1 << OUT),
    "FiniteSpace.closure negative": lambda: S.closure(NEG),
    "FiniteSpace.require_open out": lambda: S.require_open(1 << OUT),
    "FiniteSpace.require_open negative": lambda: S.require_open(NEG),
    "from_opens out": lambda: sp.from_opens(S.points, [0, 1 << OUT, 3]),
    "from_opens negative": lambda: sp.from_opens(S.points, [0, NEG, 3]),
    "from_preorder name": lambda: sp.from_preorder(S.points, [(NAME, "0")]),
    "from_preorder one-entry pair": lambda: sp.from_preorder(("a",), [("a",)]),
    "from_preorder three-entry pair": lambda: sp.from_preorder(("a",), [("a", "a", "a")]),
    "from_preorder pair not a sequence": lambda: sp.from_preorder(("a",), [5]),
    "ContinuousMap out": lambda: sp.ContinuousMap(S, S, (OUT, 1)),
    "ContinuousMap negative": lambda: sp.ContinuousMap(S, S, (0, NEG)),
    "ContinuousMap name": lambda: sp.ContinuousMap(S, S, (NAME, 1)),
    "compose object": lambda: sp.compose(f_d, f),
    "constant_map out": lambda: sp.constant_map(S, S, OUT),
    "constant_map negative": lambda: sp.constant_map(S, S, NEG),
    "Product.pair out": lambda: P.pair(0, OUT),
    "Product.pair negative": lambda: P.pair(NEG, 0),
    "Product.split out": lambda: P.split(OUT),
    "Product.split negative": lambda: P.split(NEG),
    "Product.rectangle out": lambda: P.rectangle(1 << OUT, 1),
    "Product.rectangle negative": lambda: P.rectangle(1, NEG),
    "Product.rectangle empty negative": lambda: P.rectangle(0, NEG),
    "le_2cell object": lambda: sp.le_2cell(f, f_d),
    "way_below out": lambda: sp.way_below(S, 1 << OUT, 3),
    "way_below negative": lambda: sp.way_below(S, 2, NEG),
    "subspace out": lambda: sp.subspace(S, 1 << OUT),
    "subspace negative": lambda: sp.subspace(S, NEG),
    # hyperspace
    "ClosedSet out": lambda: hy.ClosedSet(S, 1 << OUT),
    "ClosedSet negative": lambda: hy.ClosedSet(S, NEG),
    "ClosedSet name": lambda: hy.ClosedSet(S, NAME),
    "closed_of_mask out": lambda: hy.closed_of_mask(S, 1 << OUT),
    "closed_of_mask negative": lambda: hy.closed_of_mask(S, NEG),
    "Hyperspace.point_of out": lambda: hx.point_of(1 << OUT),
    "Hyperspace.point_of negative": lambda: hx.point_of(NEG),
    "Hyperspace.point_of name": lambda: hx.point_of(NAME),
    "Hyperspace.closed_of out": lambda: hx.closed_of(OUT),
    "Hyperspace.closed_of negative": lambda: hx.closed_of(NEG),
    "Hyperspace.hit_mask out": lambda: hx.hit_mask(1 << OUT),
    "Hyperspace.hit_mask negative": lambda: hx.hit_mask(NEG),
    "hit out": lambda: hy.hit(c, 1 << OUT),
    "hit negative": lambda: hy.hit(c, NEG),
    "HitFunctional None": lambda: hy.HitFunctional(S, None),
    "HitFunctional ints": lambda: hy.HitFunctional(S, (0, 1, 1)),
    "HitFunctional.value out": lambda: hy.functional_of_closed(c).value(1 << OUT),
    "HitFunctional.value negative": lambda: hy.functional_of_closed(c).value(NEG),
    "unit_sigma out": lambda: hy.unit_sigma(S, OUT),
    "unit_sigma negative": lambda: hy.unit_sigma(S, NEG),
    "unit_sigma name": lambda: hy.unit_sigma(S, NAME),
    "push_closed object": lambda: hy.push_closed(f, c_d),
    "mult_union out": lambda: hy.mult_union(hx, 1 << OUT),
    "mult_union negative": lambda: hy.mult_union(hx, NEG),
    "mult_union name": lambda: hy.mult_union(hx, NAME),
    "mult_union object": lambda: hy.mult_union(hx, c),
    "unit_closure_membership object": lambda: hy.unit_closure_membership(S, c_d),
    "strength_H out": lambda: hy.strength_H(P, OUT, c),
    "strength_H negative": lambda: hy.strength_H(P, NEG, c),
    "strength_H object": lambda: hy.strength_H(P, 0, c_d),
    "costrength_H out": lambda: hy.costrength_H(P, c, OUT),
    "costrength_H negative": lambda: hy.costrength_H(P, c, NEG),
    "costrength_H object": lambda: hy.costrength_H(P, c_d, 0),
    "product_closed object": lambda: hy.product_closed(P, c, c_d),
    "marginals object": lambda: hy.marginals(P, c),
    "join_of_closed out": lambda: hy.join_of_closed(S, 1 << OUT),
    "join_of_closed negative": lambda: hy.join_of_closed(S, NEG),
    # valuations
    "valuation_from_weights name": lambda: va.valuation_from_weights(S, {NAME: 1}),
    "Valuation negative": lambda: va.Valuation(S, (-1, 1)),
    "Valuation string": lambda: va.Valuation(S, ("x", 1)),
    "validate_valuation None": lambda: va.validate_valuation(S, (None, 1, 1)),
    "validate_valuation out": lambda: va.validate_valuation(S, {0: 0, 1: 1, 1 << OUT: 1}),
    "validate_valuation negative": lambda: va.validate_valuation(S, {0: 0, 1: 1, NEG: 1}),
    "unit_delta out": lambda: va.unit_delta(S, OUT),
    "unit_delta negative": lambda: va.unit_delta(S, NEG),
    "unit_delta name": lambda: va.unit_delta(S, NAME),
    "Valuation.value out": lambda: nu.value(1 << OUT),
    "Valuation.value negative": lambda: nu.value(NEG),
    "LowerSemiFn.__call__ out": lambda: g(OUT),
    "LowerSemiFn.__call__ negative": lambda: g(NEG),
    "LowerSemiFn.__call__ name": lambda: g(NAME),
    "indicator out": lambda: va.indicator(S, 1 << OUT),
    "indicator negative": lambda: va.indicator(S, NEG),
    "compose_lsc object": lambda: va.compose_lsc(g_d, f),
    "integrate object": lambda: va.integrate(nu, g_d),
    "pushforward object": lambda: va.pushforward(f, nu_d),
    "SimpleSecondOrder object": lambda: va.SimpleSecondOrder(S, ((ONE, nu_d),)),
    "pairing_with_evaluation object": lambda: lc.pairing_with_evaluation(xi, g_d),
    "Kernel object": lambda: va.Kernel(S, S, (nu, nu_d)),
    "Kernel.__call__ out": lambda: k(OUT),
    "Kernel.__call__ negative": lambda: k(NEG),
    "Kernel.__call__ name": lambda: k(NAME),
    "kleisli_compose object": lambda: va.kleisli_compose(k, va.delta_kernel(D)),
    "strength_V out": lambda: va.strength_V(P, OUT, nu),
    "strength_V negative": lambda: va.strength_V(P, NEG, nu),
    "strength_V object": lambda: va.strength_V(P, 0, nu_d),
    "costrength_V out": lambda: va.costrength_V(P, nu, OUT),
    "costrength_V negative": lambda: va.costrength_V(P, nu, NEG),
    "costrength_V object": lambda: va.costrength_V(P, nu_d, 0),
    "product_valuation object": lambda: va.product_valuation(nu, nu_d, P),
    "theta_membership out": lambda: va.theta_membership(nu, 1 << OUT, 0),
    "theta_membership negative": lambda: va.theta_membership(nu, NEG, 0),
    "big_theta_membership object": lambda: va.big_theta_membership(nu, g_d, 0),
    "portmanteau_witness object": lambda: va.portmanteau_witness(nu_d, g, 0),
    "order_checks out": lambda: va.order_checks(nu, nu, [(0, 0), (1, 1), (0, OUT)]),
    "order_checks negative": lambda: va.order_checks(nu, nu, [(0, 0), (1, 1), (NEG, 1)]),
    "order_checks name": lambda: va.order_checks(nu, nu, [(0, 0), (1, 1), (NAME, 1)]),
    "order_checks object": lambda: va.order_checks(nu, nu_d),
    # probability
    "FiniteMeasure non-T0": lambda: pb.FiniteMeasure(sp.indiscrete(2), (ext("1/3"), ext("2/3"))),
    "FiniteMeasure negative": lambda: pb.FiniteMeasure(S, (-1, 2)),
    "FiniteMeasure.measure_of out": lambda: m.measure_of(1 << OUT),
    "FiniteMeasure.measure_of negative": lambda: m.measure_of(NEG),
    "integrate_measure object": lambda: va.integrate(m, g_d),
    "product_measure object": lambda: pb.product_measure(p, pb.ProbValuation(D, nu_d.weights), P),
    "product_measure mass 2": lambda: pb.product_measure(va.valuation_from_weights(S, (ONE, ONE)), p, P),
    # support
    "support_test_lsc object": lambda: lc.support_test_lsc(nu, g_d),
    "algebra_evaluate object": lambda: su.algebra_evaluate(S, joins, nu_d),
    "algebra_evaluate short": lambda: su.algebra_evaluate(S, joins[:1], nu),
    "algebra_evaluate out": lambda: su.algebra_evaluate(S, (*joins[:2], OUT), nu),
    "algebra_evaluate negative": lambda: su.algebra_evaluate(S, (*joins[:2], NEG), nu),
    "algebra_evaluate name": lambda: su.algebra_evaluate(S, (*joins[:2], NAME), nu),
    # lawcheck
    "supp_naturality object": lambda: lc.supp_naturality(f, nu_d),
    "supp_mult object": lambda: lc.supp_mult(S, hx, xi_d.atoms),
    "supp_product_squares object": lambda: lc.supp_product_squares(P, nu, nu_d),
    # the algebra, certificate and subbasis laws keep the labels of the
    # library checks they replaced: check_H_algebra is h_algebra,
    # check_certificate certificate_is_sound, a_topology_membership
    # p_subbasis_restricts and induced_V_algebra transfer_laws
    "check_H_algebra out": lambda: lc.h_algebra(S, hx, (0, OUT, 1)),
    "check_H_algebra negative": lambda: lc.h_algebra(S, hx, (0, NEG, 1)),
    "check_H_algebra name": lambda: lc.h_algebra(S, hx, (0, NAME, 1)),
    "h_algebra object": lambda: lc.h_algebra(D, hx, joins),
    "join_characterization object": lambda: lc.join_characterization(D, hx, joins),
    "check_certificate out": lambda: lc.certificate_is_sound(g, 0, [(ONE, 1 << OUT, ZERO)]),
    "check_certificate negative": lambda: lc.certificate_is_sound(g, 0, [(ONE, NEG, ZERO)]),
    "check_certificate object": lambda: lc.certificate_is_sound(g, 0, [(ONE, 2, ext("1/4"))], nu_d),
    "a_topology_membership out": lambda: lc.p_subbasis_restricts(p, 1 << OUT, 0),
    "a_topology_membership negative": lambda: lc.p_subbasis_restricts(p, NEG, 0),
    "induced_V_algebra out": lambda: lc.transfer_laws(S, (0, OUT, 1), ()),
    "induced_V_algebra object": lambda: lc.transfer_laws(S, joins, [xi_d]),
    "GenConfig seed string": lambda: lc.GenConfig(seed="42"),
    "GenConfig seed float": lambda: lc.GenConfig(seed=2.5),
    "GenConfig seed bool": lambda: lc.GenConfig(seed=True),
    "GenConfig max_points negative": lambda: lc.GenConfig(max_points=NEG),
    "GenConfig max_points float": lambda: lc.GenConfig(max_points=2.5),
    "GenConfig instance_count zero": lambda: lc.GenConfig(instance_count=0),
    "GenConfig instance_count negative": lambda: lc.GenConfig(instance_count=NEG),
    "GenConfig instance_count bool": lambda: lc.GenConfig(instance_count=True),
    "GenConfig weight_denominator_bound zero": lambda: lc.GenConfig(weight_denominator_bound=0),
    "GenConfig weight_denominator_bound negative": lambda: lc.GenConfig(weight_denominator_bound=NEG),
    "GenConfig weight_denominator_bound float": lambda: lc.GenConfig(weight_denominator_bound=2.5),
    "GenConfig weight_denominator_bound string": lambda: lc.GenConfig(weight_denominator_bound="8"),
    "GenConfig allow_infinity string": lambda: lc.GenConfig(allow_infinity="no"),
    # extrat arithmetic
    "ExtRat.__sub__ negative": lambda: ExtRat(1) - ExtRat(2),
    "ExtRat.__truediv__ zero": lambda: ONE / ZERO,
    "ExtRat.__truediv__ infinity": lambda: ONE / INF,
    # cli
    "parse_space opens not a list": lambda: cli.parse_space(space_doc("0")),
    "parse_space open not a list": lambda: cli.parse_space(space_doc([[], "1"])),
    "parse_space name": lambda: cli.parse_space(space_doc([[], [NAME]])),
    "parse_space unhashable name": lambda: cli.parse_space(space_doc([[], ["1", ["1"]]])),
}


@pytest.mark.parametrize("call", list(CALLS), ids=list(CALLS))
def test_malformed_input_raises_a_library_error(call):
    with pytest.raises(TopmonadsError):
        CALLS[call]()


@pytest.mark.parametrize("call", ["closed_of_mask out", "closed_of_mask negative"])
def test_closed_of_mask_rejects_bits_outside_the_points(call):
    with pytest.raises(ShapeMismatch):
        CALLS[call]()


def test_product_measure_of_mass_two_is_not_normalized():
    with pytest.raises(NotNormalized):
        CALLS["product_measure mass 2"]()


PARSE_SPACE_MESSAGES = {
    "parse_space opens not a list": "opens must be a JSON array, got '0'",
    "parse_space open not a list": "open must be a JSON array, got '1'",
    "parse_space name": "open mentions unknown point 'zz'",
    "parse_space unhashable name": "open mentions unknown point ['1']",
}


@pytest.mark.parametrize("call", list(PARSE_SPACE_MESSAGES))
def test_parse_space_names_the_malformed_open(call):
    with pytest.raises(MalformedDocument) as info:
        CALLS[call]()
    assert str(info.value) == PARSE_SPACE_MESSAGES[call]


def test_extrat_arithmetic_keeps_its_messages():
    with pytest.raises(InvalidValue, match="^1 - 2 would be negative$"):
        CALLS["ExtRat.__sub__ negative"]()
    for call in ("ExtRat.__truediv__ zero", "ExtRat.__truediv__ infinity"):
        with pytest.raises(ZeroDenominator, match="^division by zero or infinity$"):
            CALLS[call]()


def test_parse_space_reads_a_name_listed_twice_once():
    assert cli.parse_space(space_doc([[], ["1", "1"], ["0", "1", "0"]])) == S
