import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metastable.henson as h
from metastable import (
    Constant,
    EmptyRate,
    FormulaSyntaxError,
    MetastableError,
    NonpositiveDelta,
    NonpositiveRadius,
    RealQuantifier,
    SequenceSpec,
    SortMismatch,
    UnassignedVariable,
    UnknownSymbol,
    affine_sampling,
    check_rate,
)
from metastable.generators import (
    random_finite_structure,
    random_formula,
    random_rational,
    random_tail_sequence,
)
from metastable.henson.parser import MAX_NESTING


def one_sort_signature():
    return h.Signature(sorts=("X",), constants={"b": "X"}, anchors={"X": "a"})


def two_point_structure(dist=F(1)):
    sig = one_sort_signature()
    data = h.line_sort({"pa": 0, "pb": dist}, anchor="pa")
    return sig, h.FiniteStructure(sig, {"X": data}, {"a": "pa", "b": "pb"})


def two_sort_signature():
    return h.Signature(sorts=("X", "Y"),
                       functions={"f": (("X",), "Y"), "g": (("Y",), "R"),
                                  "h": (("X", "Y"), "R")},
                       constants={"a": "X", "b": "Y"})


def depth(phi) -> int:
    """Connectives and quantifiers on the longest path, plus the atom."""
    if isinstance(phi, (h.And, h.Or)):
        return 1 + max(depth(phi.left), depth(phi.right))
    if isinstance(phi, (h.Exists, h.Forall)):
        return 1 + depth(phi.body)
    return 1


def real_app(func, *args):
    return h.App(func, args, h.REAL)


xX, xY, yY = h.Var("x", "X"), h.Var("x", "Y"), h.Var("y", "Y")
aX, bY = h.Const("a", "X"), h.Const("b", "Y")
NO_DEFAULT = ("cannot infer a variable sort; the signature has no unique "
              "non-real sort")

# parsed trees and refusals over two_sort_signature(); the refusals pin the
# order in which syntax, symbols, sorts and applications are checked
TWO_SORT_TREES = [
    # a free variable typed by a later atom
    ("(d(x, x) <= 1 & h(x, b) >= 0)",
     h.And(h.AtomLe(real_app("d", xX, xX), 1),
           h.AtomGe(real_app("h", xX, bY), 0))),
    # d(x, y) resolved by a later use
    ("(d(x, y) <= 1 & g(y) >= 0)",
     h.And(h.AtomLe(real_app("d", xY, yY), 1),
           h.AtomGe(real_app("g", yY), 0))),
    # a binder shadowing a free variable of another sort
    ("(g(x) <= 1 & E 1 x. h(x, b) <= 1)",
     h.And(h.AtomLe(real_app("g", xY), 1),
           h.Exists(1, xX, h.AtomLe(real_app("h", xX, bY), 1)))),
    # the constant a, then a bound variable named a
    ("(h(a, b) <= 0 & E 1 a. g(a) <= 1)",
     h.And(h.AtomLe(real_app("h", aX, bY), 0),
           h.Exists(1, h.Var("a", "Y"),
                    h.AtomLe(real_app("g", h.Var("a", "Y")), 1)))),
    # a function's range types the other side of d
    ("E 1 x. d(f(x), y) <= 1",
     h.Exists(1, xX, h.AtomLe(real_app("d", h.App("f", (xX,), "Y"), yY), 1))),
    ("add(x, g(b)) >= 1/2",
     h.AtomGe(real_app("add", h.Var("x", h.REAL), real_app("g", bY)),
              F(1, 2))),
]

TWO_SORT_REFUSALS = [
    ("((d(x, y) <= 1 & g(y) >= 0) & h(x, b) <= 1)", SortMismatch,
     "metric applied across different sorts"),
    ("(g(x) <= 1 & h(x, b) <= 1)", SortMismatch,
     "variable used at sorts 'Y' and 'X' (near position 13)"),
    ("d(x, y) <= 1", SortMismatch, NO_DEFAULT),
    ("d(x, x) <= 1", SortMismatch, NO_DEFAULT),
    ("h(x) <= 1", SortMismatch, "h takes 2 arguments, got 1"),
    # sorts are solved before any application is checked
    ("f(x, y) <= 1", SortMismatch, NO_DEFAULT),
    ("d(x) <= 1", SortMismatch, "d takes two arguments"),
    ("d(a, b, a) <= 1", SortMismatch, "d takes two arguments"),
    ("(d(x) <= 1 & g(a) <= 1)", SortMismatch, "d takes two arguments"),
    # constraints are taken in the order their applications close
    ("(g(x) <= 1 & (h(x, b) <= 1 & d(y) <= 1))", SortMismatch,
     "variable used at sorts 'Y' and 'X' (near position 14)"),
    ("g(b) <= 1 )", FormulaSyntaxError, "trailing input (at position 10)"),
    # the end of input is checked before sorts
    ("(g(x) <= 1 & h(x, b) <= 1) )", FormulaSyntaxError,
     "trailing input (at position 27)"),
    # an unknown symbol is refused where its application closes
    ("k(x) <= 1 )", UnknownSymbol, "function 'k' not in the signature"),
]


def nested_text(formula_levels, app_levels: int):
    """A formula text that opens one level per entry of formula_levels ("E",
    "A", "&" or "|"), then app_levels abs applications around h(x), and
    the position at which each level, h(x) last, opens."""
    text, close, opens = "", "", []
    for op in formula_levels:
        opens.append(len(text))
        text += f"{op} 1 x. " if op in "EA" else "("
        close = (f" {op} 1 <= 1)" if op in "&|" else "") + close
    for _ in range(app_levels):
        opens.append(len(text))
        text += "abs("
    opens.append(len(text))
    return text + "h(x)" + ")" * app_levels + " <= 2" + close, opens


NESTING_SHAPES = {
    # levels - 1 openers, then the application h(x)
    "quantifiers": lambda n: nested_text(("EA" * n)[:n - 1], 0),
    "connectives": lambda n: nested_text(("&|" * n)[:n - 1], 0),
    "applications": lambda n: nested_text("", n - 1),
    "mixed": lambda n: nested_text(("E&A|" * n)[:n // 2], n - 1 - n // 2),
}


class TestParser:
    def test_single_atom(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("d(x, a) <= 1/2", sig)
        assert isinstance(phi, h.AtomLe)
        assert phi.bound == F(1, 2)
        assert phi.term == h.apply(sig, "d", h.Var("x", "X"), h.Const("a", "X"))

    def test_equality_abbreviation_shape(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("(d(x,a) <= 1 & d(x,a) >= 1)", sig)
        assert isinstance(phi, h.And)
        assert isinstance(phi.left, h.AtomLe) and isinstance(phi.right, h.AtomGe)

    def test_nested_quantifiers(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("E 2 x. A 1 y. d(x,y) <= 3", sig)
        assert isinstance(phi, h.Exists) and phi.radius == 2
        assert isinstance(phi.body, h.Forall) and phi.body.radius == 1
        assert isinstance(phi.body.body, h.AtomLe)

    def test_syntax_error_position(self):
        sig, _ = two_point_structure()
        with pytest.raises(FormulaSyntaxError) as err:
            h.parse_formula("d(x, a) <=", sig)
        assert err.value.position == 10

    def test_unknown_symbol(self):
        sig, _ = two_point_structure()
        with pytest.raises(UnknownSymbol):
            h.parse_formula("g(x) <= 1", sig)

    def test_sort_mismatch(self):
        sig = h.Signature(sorts=("X",), functions={"s": (("X",), "R")},
                          constants={"a": "X"})
        with pytest.raises(SortMismatch):
            h.parse_formula("d(s(a), a) <= 1", sig)

    def test_nonpositive_radius(self):
        sig, _ = two_point_structure()
        with pytest.raises(NonpositiveRadius):
            h.parse_formula("E 0 x. d(x,a) <= 1", sig)

    def test_real_metric_allowed(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("d(1/2, 2) <= 2", sig)
        assert phi.term.sort == h.REAL

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_roundtrip(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        text = h.format_formula(phi)
        assert h.parse_formula(text, M.signature) == phi

    @pytest.mark.parametrize("text,tree", TWO_SORT_TREES)
    def test_two_sort_inference(self, text, tree):
        assert h.parse_formula(text, two_sort_signature()) == tree

    @pytest.mark.parametrize("text,cls,message", TWO_SORT_REFUSALS)
    def test_two_sort_refusals(self, text, cls, message):
        with pytest.raises(MetastableError) as err:
            h.parse_formula(text, two_sort_signature())
        assert type(err.value) is cls and str(err.value) == message

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_nesting_limit(self, shape):
        # at MAX_NESTING every walker runs under the default recursion
        # limit; the level past it is refused at its first token
        limit = MAX_NESTING
        sig = h.Signature(sorts=("X",), functions={"h": (("X",), h.REAL)},
                          anchors={"X": "a"})
        M = h.FiniteStructure(sig, {"X": h.discrete_sort(["p"])},
                              {"a": "p", "h": {("p",): 1}})
        text, opens = NESTING_SHAPES[shape](limit)
        assert len(opens) == limit
        phi = h.parse_formula(text, sig)
        assert h.satisfies(M, phi, {"x": "p"})
        assert h.approx_satisfies(M, phi, {"x": "p"})
        assert h.format_formula(phi) == text
        assert h.format_formula(h.weak_negation(h.weak_negation(phi))) == text
        assert h.free_vars(phi) <= {("x", "X")}
        text, opens = NESTING_SHAPES[shape](limit + 1)
        with pytest.raises(FormulaSyntaxError) as err:
            h.parse_formula(text, sig)
        assert str(err.value) == (f"nesting deeper than MAX_NESTING = {limit} "
                                  f"(at position {opens[limit]})")


class TestEvalTerm:
    def test_literal(self):
        sig, M = two_point_structure()
        assert h.eval_term(M, h.Lit(F(3, 4)), {}) == F(3, 4)

    def test_metric_identity(self):
        sig, M = two_point_structure()
        t = h.parse_formula("d(a, a) <= 0", sig).term
        assert h.eval_term(M, t, {}) == 0

    def test_rational_arithmetic(self):
        sig = h.Signature(sorts=("X",), constants={"a": "X"},
                          functions={"c1": ((), "R"), "c2": ((), "R")})
        data = h.discrete_sort(["p"])
        M = h.FiniteStructure(sig, {"X": data},
                              {"a": "p", "c1": 2, "c2": 5})
        phi = h.parse_formula("abs(sub(c1, c2)) <= 3", sig)
        assert h.eval_term(M, phi.term, {}) == 3

    def test_unassigned_variable(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("d(x, a) <= 1", sig)
        with pytest.raises(UnassignedVariable):
            h.satisfies(M, phi)


class TestSatisfies:
    def test_exists_closed_ball(self):
        sig, M = two_point_structure()
        assert h.satisfies(M, h.parse_formula("E 1 x. d(x, a) >= 1", sig))

    def test_forall_open_ball(self):
        sig, M = two_point_structure()
        assert h.satisfies(M, h.parse_formula("A 1 x. d(x, a) <= 0", sig))

    def test_tautology(self):
        sig, M = two_point_structure()
        assert h.satisfies(M, h.parse_formula("0 <= 0", sig))

    def test_real_quantifier_rejected(self):
        sig, M = two_point_structure()
        phi = h.Exists(1, h.Var("t", h.REAL), h.AtomLe(h.Var("t", h.REAL), 0))
        for call in (h.satisfies, h.critical_values):
            with pytest.raises(RealQuantifier, match=r"\(infinite balls\)"):
                call(M, phi)

    def test_quantifier_over_a_missing_sort(self):
        sig, M = two_point_structure()
        phi = h.Forall(1, h.Var("y", "Y"), h.AtomLe(h.Lit(0), 1))
        for call in (h.satisfies, h.critical_values, h.satisfaction_gap):
            with pytest.raises(SortMismatch, match="structure has no sort 'Y'"):
                call(M, phi)

    def test_free_variable_assignment(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("d(x, a) >= 1", sig)
        assert h.satisfies(M, phi, {"x": "pb"})
        assert not h.satisfies(M, phi, {"x": "pa"})

    def test_bound_variable_shadows_free(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("(d(x,a) >= 1 & E 1 x. d(x,a) <= 0)", sig)
        # left conjunct sees the assignment; right rebinds x to the ball
        assert h.satisfies(M, phi, {"x": "pb"})
        assert not h.satisfies(M, phi, {"x": "pa"})

    def test_nested_shadowing(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("E 1 x. (d(x,a) >= 1 & E 1 x. d(x,a) <= 0)", sig)
        assert h.satisfies(M, phi)

    def test_approx_with_free_variables(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("d(x, a) <= 1", sig)
        assert h.approx_satisfies(M, phi, {"x": "pb"})
        sig2, M2 = two_point_structure(F(1001, 1000))
        phi2 = h.parse_formula("d(x, a) <= 1", sig2)
        assert not h.approx_satisfies(M2, phi2, {"x": "pb"})


class TestOneBinder:
    """The certificate behind approximate satisfaction reads the assignment
    that satisfies reads."""

    @pytest.mark.parametrize("text, env", [
        ("add(r, h(b)) <= 1", {"r": "1/2"}),
        ("add(r, h(b)) <= 1", {"r": 3}),
        ("add(r, h(b)) <= 1", {"r": "x"}),
        ("add(r, h(b)) <= 1", {"r": 0.5}),
        ("d(x, a) <= 1", {"x": "p1"}),
        ("d(x, a) <= 1", {"x": "zz"}),
        ("E 1 y. d(x, y) <= 1", {"x": "zz"}),
        ("d(x, a) <= 1", {"r": "1"}),
        ("(d(x, a) <= 1 & d(y, a) <= 1)", {}),
        ("(max(r, h(x)) >= 1/2 | d(x, a) <= 0)", {"x": "p2", "r": "x"}),
    ])
    def test_certificate_binds_as_satisfies(self, text, env):
        M = random_finite_structure(random.Random(8), 3)
        phi = h.parse_formula(text, M.signature)

        def outcome(call):
            try:
                call(M, phi, env)
            except (MetastableError, ValueError) as err:
                return type(err), str(err)
            return None

        assert outcome(h.critical_values) == outcome(h.satisfies)
        assert outcome(h.satisfaction_gap) == outcome(h.satisfies)

    def test_string_and_int_rationals_are_values(self):
        M = random_finite_structure(random.Random(2), 3)
        phi = h.parse_formula("max(r, h(b)) <= 1", M.signature)
        assert h.critical_values(M, phi, {"r": "1/2"}) == \
            h.critical_values(M, phi, {"r": F(1, 2)})
        assert F(3) in h.critical_values(M, phi, {"r": 3})
        assert h.satisfaction_gap(M, phi, {"r": "7/3"}) == \
            h.satisfaction_gap(M, phi, {"r": F(7, 3)})

    def test_quantifier_leaves_the_outer_value(self):
        # every x in the ball satisfies the left conjunct, and h(p0) = 2
        # differs from h(p1) = 0, so a leaked binding changes both answers
        M = random_finite_structure(random.Random(2), 3)
        env = {"x": "p0"}

        def parse(text):
            return h.parse_formula(text, M.signature)

        assert h.satisfies(M, parse("(A 4 x. h(x) >= 0 & h(x) >= 1)"), env)
        assert h.critical_values(M, parse("(E 4 x. 0 <= 1 & h(x) <= 9)"), env) \
            == h.critical_values(M, parse("(h(x) <= 9 & E 4 x. 0 <= 1)"), env)


def recursive_free_vars(phi) -> frozenset:
    """The recursive definition free_vars had: a frozenset per node."""
    def term_vars(t) -> set:
        if isinstance(t, h.Var):
            return {(t.name, t.sort)}
        if isinstance(t, h.App):
            return set().union(*map(term_vars, t.args))
        return set()

    if isinstance(phi, (h.AtomLe, h.AtomGe)):
        return frozenset(term_vars(phi.term))
    if isinstance(phi, (h.And, h.Or)):
        return recursive_free_vars(phi.left) | recursive_free_vars(phi.right)
    return frozenset(v for v in recursive_free_vars(phi.body)
                     if v != (phi.var.name, phi.var.sort))


# x, y and z at either sort, so that binders shadow names at the same sort
# and at the other one; terms are not sort-checked, free_vars reads names
VARIABLES = st.builds(h.Var, st.sampled_from("xyz"), st.sampled_from("XY"))
TERMS = st.recursive(
    VARIABLES | st.sampled_from([aX, bY, h.Lit(1)]),
    lambda args: st.builds(lambda f, a, b: real_app(f, a, b),
                           st.sampled_from(["d", "h", "add"]), args, args),
    max_leaves=4)
FORMULAS = st.recursive(
    st.builds(lambda node, t, r: node(real_app("abs", t), r),
              st.sampled_from([h.AtomLe, h.AtomGe]), TERMS, st.integers(0, 2)),
    lambda kids: (st.builds(h.And, kids, kids) | st.builds(h.Or, kids, kids)
                  | st.builds(h.Exists, st.just(1), VARIABLES, kids)
                  | st.builds(h.Forall, st.just(2), VARIABLES, kids)),
    max_leaves=10)


class TestFreeVars:
    @settings(max_examples=300, deadline=None)
    @given(phi=FORMULAS)
    @example(phi=h.And(h.AtomLe(real_app("d", xX, xX), 1),
                       h.Exists(1, xX, h.AtomLe(real_app("d", xX, aX), 1))))
    @example(phi=h.Exists(1, xX, h.AtomLe(real_app("g", xY), 1)))
    @example(phi=h.Exists(1, xX, h.Or(h.Forall(1, xY, h.AtomLe(
        real_app("h", xX, xY), 1)), h.AtomGe(real_app("g", xY), 0))))
    def test_matches_the_recursive_definition(self, phi):
        assert h.free_vars(phi) == recursive_free_vars(phi)


class TestApproximationRelation:
    def test_atom_le(self):
        t = h.Lit(F(0))
        assert h.is_approximation(h.AtomLe(t, 1), h.AtomLe(t, F(3, 2)))
        assert not h.is_approximation(h.AtomLe(t, 1), h.AtomLe(t, 1))
        assert not h.is_approximation(h.AtomLe(t, 1), h.AtomGe(t, 2))

    def test_atom_ge(self):
        t = h.Lit(F(0))
        assert h.is_approximation(h.AtomGe(t, 1), h.AtomGe(t, F(1, 2)))
        assert not h.is_approximation(h.AtomGe(t, 1), h.AtomGe(t, 2))

    def test_forall_radius_decreases(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("A 1 x. d(x,a) <= 1", sig)
        psi_wrong = h.Forall(2, phi.var, h.AtomLe(phi.body.term, 2))
        assert not h.is_approximation(phi, psi_wrong)
        psi_right = h.Forall(F(1, 2), phi.var, h.AtomLe(phi.body.term, 2))
        assert h.is_approximation(phi, psi_right)

    def test_strict_at_every_node(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("(d(a,a) <= 1 & d(b,b) <= 1)", sig)
        half_relaxed = h.And(h.relax(phi.left, 1), phi.right)
        assert not h.is_approximation(phi, half_relaxed)


class TestRelax:
    def test_additive_shift(self):
        t = h.Lit(F(0))
        assert h.relax(h.AtomLe(t, 1), F(1, 4)) == h.AtomLe(t, F(5, 4))

    def test_forall_clamp(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("A 1 x. d(x,a) <= 1", sig)
        relaxed = h.relax(phi, F(3, 4))
        assert relaxed.radius == F(1, 2)

    def test_nonpositive_delta(self):
        with pytest.raises(NonpositiveDelta):
            h.relax(h.AtomLe(h.Lit(0), 1), 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_relax_is_approximation(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        delta = random_rational(rng, 0, 2, 16) + F(1, 32)
        assert h.is_approximation(phi, h.relax(phi, delta))


class TestWeakNegation:
    def test_atom_rows(self):
        t = h.Lit(F(0))
        assert h.weak_negation(h.AtomLe(t, 1)) == h.AtomGe(t, 1)
        assert h.weak_negation(h.AtomGe(t, 1)) == h.AtomLe(t, 1)

    def test_de_morgan_row(self):
        t = h.Lit(F(0))
        phi = h.And(h.AtomLe(t, 1), h.AtomGe(t, 0))
        assert h.weak_negation(phi) == h.Or(h.AtomGe(t, 1), h.AtomLe(t, 0))

    def test_quantifier_rows(self):
        sig, _ = two_point_structure()
        phi = h.parse_formula("A 1 x. d(x,a) <= 1", sig)
        wn = h.weak_negation(phi)
        assert isinstance(wn, h.Exists) and wn.radius == phi.radius

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_involution(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        assert h.weak_negation(h.weak_negation(phi)) == phi


class TestApproxSatisfies:
    def test_boundary_distance(self):
        sig, M = two_point_structure()
        phi = h.parse_formula("E 1 x. d(x,a) >= 1", sig)
        assert h.satisfies(M, phi) and h.approx_satisfies(M, phi)

    def test_just_over_boundary(self):
        sig, M = two_point_structure(F(1001, 1000))
        phi = h.parse_formula("d(b, a) <= 1", sig)
        assert not h.satisfies(M, phi) and not h.approx_satisfies(M, phi)

    def test_tautology(self):
        sig, M = two_point_structure()
        assert h.approx_satisfies(M, h.parse_formula("0 <= 0", sig))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_discrete_implies_approx(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        if h.satisfies(M, phi):
            assert h.approx_satisfies(M, phi)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_gap_delta_stability(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        g = h.satisfaction_gap(M, phi)
        d1 = g * F(rng.randint(1, 7), 8)
        d2 = g * F(rng.randint(1, 7), 8)
        assert h.satisfies(M, h.relax(phi, d1)) == h.satisfies(M, h.relax(phi, d2))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_negation_dichotomy(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        g = h.satisfaction_gap(M, phi)
        counter = h.weak_negation(h.relax(phi, g / 2))
        assert h.approx_satisfies(M, phi) != h.approx_satisfies(M, counter)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_every_approximation_satisfied(self, seed):
        # approximate satisfaction must imply truth of arbitrary
        # approximations, not just uniform relaxations
        def perturb(rng, phi):
            shift = lambda: random_rational(rng, 0, 1, 16) + F(1, 64)
            if isinstance(phi, h.AtomLe):
                return h.AtomLe(phi.term, phi.bound + shift())
            if isinstance(phi, h.AtomGe):
                return h.AtomGe(phi.term, phi.bound - shift())
            if isinstance(phi, h.And):
                return h.And(perturb(rng, phi.left), perturb(rng, phi.right))
            if isinstance(phi, h.Or):
                return h.Or(perturb(rng, phi.left), perturb(rng, phi.right))
            if isinstance(phi, h.Exists):
                return h.Exists(phi.radius + shift(), phi.var,
                                perturb(rng, phi.body))
            return h.Forall(phi.radius * F(rng.randint(1, 15), 16), phi.var,
                            perturb(rng, phi.body))

        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        if h.approx_satisfies(M, phi):
            for _ in range(5):
                psi = perturb(rng, phi)
                assert h.is_approximation(phi, psi)
                assert h.satisfies(M, psi)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_approximation_duality(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi = random_formula(rng, M.signature)
        if rng.random() < 0.7:
            psi = h.relax(phi, random_rational(rng, 0, 1, 8) + F(1, 16))
        else:
            psi = random_formula(rng, M.signature)
        forward = h.is_approximation(phi, psi)
        dual = h.is_approximation(h.weak_negation(psi), h.weak_negation(phi))
        assert forward == dual


class TestXiFormulas:
    def test_pair_enumeration_deduplicated(self):
        eta = affine_sampling(1)
        xi = h.xi_formula(eta, 3, F(1, 2))
        assert h.format_formula(xi) == "d(s(c3), s(c4)) <= 1/2"

    def test_weak_negation_matches(self):
        eta = affine_sampling(2)
        assert h.weak_negation(h.xi_formula(eta, 1, F(1, 3))) == \
            h.wneg_xi(eta, 1, F(1, 3))

    def test_singleton_disjunction(self):
        eta = affine_sampling(1)
        assert h.xi_E(eta, {4}, 1) == h.xi_formula(eta, 4, 1)

    def test_empty_rate(self):
        with pytest.raises(EmptyRate):
            h.xi_E(affine_sampling(1), set(), 1)

    def test_singleton_window_tautological(self):
        from metastable import explicit_sampling

        singleton = explicit_sampling({2: (2,)})
        xi = h.xi_formula(singleton, 2, 0)
        assert h.format_formula(xi) == "d(s(c2), s(c2)) <= 0"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_dropping_reflexive_pairs_preserves_semantics(self, seed):
        from itertools import combinations_with_replacement

        rng = random.Random(seed)
        seq = random_tail_sequence(rng, max_prefix=3, max_period=2)
        eta = affine_sampling(rng.randint(1, 2))
        i = rng.randint(0, 4)
        t = random_rational(rng, 0, 2, 8)
        _, M = h.encode_sequence_window(seq, eta.max_index(i))

        def atom(j, jp):
            term = h.apply(
                M.signature, "d",
                h.apply(M.signature, "s", h.Const(f"c{j}", "D")),
                h.apply(M.signature, "s", h.Const(f"c{jp}", "D")),
            )
            return h.AtomLe(term, t)

        window = eta.eta(i)
        full = h.conj([
            atom(j, jp) for j, jp in combinations_with_replacement(window, 2)
        ])
        lean = h.xi_formula(eta, i, t)
        assert h.satisfies(M, lean) == h.satisfies(M, full)
        assert h.approx_satisfies(M, lean) == h.approx_satisfies(M, full)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), w=st.integers(1, 2))
    def test_logic_agrees_with_check_rate(self, seed, w):
        rng = random.Random(seed)
        seq = random_tail_sequence(rng, max_prefix=4, max_period=3)
        eta = affine_sampling(w)
        E = frozenset(rng.sample(range(6), rng.randint(1, 3)))
        eps = random_rational(rng, 0, 2, 8)
        cap = max(eta.max_index(i) for i in E)
        _, M = h.encode_sequence_window(seq, cap)
        m_star = min(
            max(seq.value(j) for j in eta.eta(i)) -
            min(seq.value(j) for j in eta.eta(i))
            for i in E
        )
        grid = [eps + F(1, 7), eps + F(1, 2)]
        if m_star > eps:
            grid.append((eps + m_star) / 2)
        for eps_prime in grid:
            assert h.approx_satisfies(M, h.xi_E(eta, E, eps_prime)) == \
                (m_star <= eps_prime)
        assert all(
            h.approx_satisfies(M, h.xi_E(eta, E, e)) for e in grid
        ) == check_rate(seq, eps, eta, E)

    def test_100_point_window(self):
        # 4950 conjuncts per window: folded to the right, they would nest
        # past the default recursion limit of every formula walker
        rng = random.Random(100)
        seq = SequenceSpec(
            prefix=(F(-1),) + tuple(random_rational(rng, 0, 1, 16)
                                    for _ in range(100)),
            tail=Constant())
        eta, E = affine_sampling(99), (0, 1)
        sig, M = h.encode_sequence_window(seq, 100)
        osc = [max(map(seq.value, eta.eta(i))) - min(map(seq.value, eta.eta(i)))
               for i in E]
        assert osc[1] < osc[0]
        t, step = osc[0], F(1, 64)
        xi, wneg = h.xi_formula(eta, 0, t), h.wneg_xi(eta, 0, t)
        assert depth(xi) == depth(wneg) == math.ceil(math.log2(4950)) + 1
        assert h.weak_negation(xi) == wneg
        assert h.parse_formula(h.format_formula(xi), sig) == xi
        for phi, holds in ((xi, True), (wneg, True),
                           (h.xi_formula(eta, 0, t - step), False)):
            assert h.satisfies(M, phi) == h.approx_satisfies(M, phi) == holds
        for eps in (osc[1] - step, osc[1]):
            rate = h.xi_E(eta, E, eps)
            assert depth(rate) == math.ceil(math.log2(2 * 4950)) + 1
            assert h.satisfies(M, rate) == h.approx_satisfies(M, rate) == \
                check_rate(seq, eps, eta, E) == (osc[1] <= eps)

class TestStructureValidation:
    def test_metric_axioms_enforced(self):
        with pytest.raises(ValueError):
            h.SortData(("p", "q"), {("p", "p"): 0, ("q", "q"): 0,
                                    ("p", "q"): 1, ("q", "p"): 2}, "p")
        with pytest.raises(ValueError):
            h.SortData(("p", "q"), {("p", "p"): 0, ("q", "q"): 0,
                                    ("p", "q"): 0, ("q", "p"): 0}, "p")

    def test_triangle_enforced(self):
        with pytest.raises(ValueError):
            h.SortData(
                ("p", "q", "r"),
                {("p", "p"): 0, ("q", "q"): 0, ("r", "r"): 0,
                 ("p", "q"): 1, ("q", "p"): 1,
                 ("q", "r"): 1, ("r", "q"): 1,
                 ("p", "r"): 5, ("r", "p"): 5},
                "p",
            )

    def test_total_table_enforced(self):
        sig = h.Signature(sorts=("X",), functions={"s": (("X",), "R")},
                          constants={"a": "X"})
        data = h.discrete_sort(["p", "q"])
        with pytest.raises(SortMismatch):
            h.FiniteStructure(sig, {"X": data}, {"a": "p", "s": {("p",): 1}})

    @pytest.mark.parametrize("key", ["p|p", "zz"])
    def test_table_key_outside_the_domain(self, key):
        # a key of the wrong arity, or a label that is not a point
        doc = {"sorts": {"X": {"points": ["p"], "metric": [["0"]],
                               "anchor": "p"}},
               "functions": {"f": {"domain": ["X"], "range": "X",
                                   "table": {"p": "p", key: "p"}}}}
        with pytest.raises(SortMismatch, match=r"'f' table key \(" +
                           ", ".join(f"'{a}'" for a in key.split("|"))):
            h.structure_from_json(doc)
        del doc["functions"]["f"]["table"][key]
        assert h.structure_from_json(doc).interp("f", ("p",)) == "p"

    def test_bar_in_an_argument_label(self):
        # table keys join argument labels with "|", so such a label could
        # not be read back
        sig = h.Signature(sorts=("X",), functions={"f": (("X",), "X")},
                          constants={"e": "X"})
        data = h.discrete_sort(["a|b", "c"], anchor="c")
        M = h.FiniteStructure(sig, {"X": data}, {
            "e": "a|b", "f": {("a|b",): "c", ("c",): "c"}})
        with pytest.raises(ValueError,
                           match=r"^cannot write 'f': .* 'a\|b' contains"):
            h.structure_to_json(M)
        # a label that no table key holds is written and read back
        sig = h.Signature(sorts=("X",), constants={"e": "X"})
        M = h.FiniteStructure(sig, {"X": data}, {"e": "a|b"})
        again = h.structure_from_json(h.structure_to_json(M))
        assert again.points("X") == ("a|b", "c")
        assert again.interp("e", ()) == "a|b"

    def test_anchor_constant_must_denote_anchor(self):
        sig = h.Signature(sorts=("X",), anchors={"X": "a"})
        data = h.discrete_sort(["p", "q"], anchor="p")
        h.FiniteStructure(sig, {"X": data}, {"a": "p"})
        with pytest.raises(SortMismatch):
            h.FiniteStructure(sig, {"X": data}, {"a": "q"})

    def test_json_roundtrip(self):
        rng = random.Random(5)
        M = random_finite_structure(rng)
        again = h.structure_from_json(h.structure_to_json(M))
        phi_text = "(d(b, a) <= 2 & h(b) >= -2)"
        phi = h.parse_formula(phi_text, M.signature)
        phi2 = h.parse_formula(phi_text, again.signature)
        assert h.satisfies(M, phi) == h.satisfies(again, phi2)
        assert h.approx_satisfies(M, phi) == h.approx_satisfies(again, phi2)


def with_free_variables(rng, M, count=2):
    """A random formula over M with free variables x0.. and an assignment
    of points to them."""
    env = {f"x{k}": "X" for k in range(count)}
    phi = random_formula(rng, M.signature, depth=3, env=env)
    points = M.points("X")
    return phi, {name: rng.choice(points) for name in env}


def table_sort(data):
    """The table-kind sort read back from structure_to_json's matrix."""
    M = h.FiniteStructure(h.Signature(sorts=("X",)), {"X": data})
    spec = h.structure_to_json(M)["sorts"]["X"]
    pts = spec["points"]
    return h.SortData(pts, {(a, b): spec["metric"][i][j]
                            for i, a in enumerate(pts)
                            for j, b in enumerate(pts)}, spec["anchor"])


def three_kinds():
    coords = {"p": 0, "q": F(1, 3), "r": 2}
    return [h.discrete_sort(coords, anchor="p"),
            h.line_sort(coords, anchor="p"),
            table_sort(h.line_sort(coords, anchor="p"))]


class TestSortKinds:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_approx_is_the_gap_decision(self, seed):
        # the old decision: satisfaction of the relaxation at half the gap
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        phi, a = with_free_variables(rng, M)
        g = h.satisfaction_gap(M, phi, a)
        assert h.approx_satisfies(M, phi, a) == \
            h.satisfies(M, h.relax(phi, g / 2), a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_computed_metric_equals_its_table(self, seed):
        # a line or a discrete sort, half the time each
        data = random_finite_structure(random.Random(seed), 7).sorts["X"]
        labels = data.points
        table = table_sort(data)
        assert table.metric is not None and data.metric is None
        assert all(data.d(a, b) == table.d(a, b)
                   for a in labels for b in labels)
        sig = h.Signature(sorts=("X",))
        phi = h.parse_formula("0 <= 0", sig)
        assert h.critical_values(h.FiniteStructure(sig, {"X": data}), phi) \
            == h.critical_values(h.FiniteStructure(sig, {"X": table}), phi)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_json_roundtrip_keeps_verdicts(self, seed):
        rng = random.Random(seed)
        M = random_finite_structure(rng)
        again = h.structure_from_json(h.structure_to_json(M))
        phi, a = with_free_variables(rng, M)
        assert h.satisfies(M, phi, a) == h.satisfies(again, phi, a)

    def test_first_triangle_witness(self):
        # (p, q, s) and (p, r, s) both fail; p-q-s comes first in a-b-c order
        pts = ("p", "q", "r", "s")
        d = {("p", "q"): 1, ("p", "r"): F(1, 2), ("p", "s"): 3,
             ("q", "r"): 1, ("q", "s"): F(3, 2), ("r", "s"): F(3, 2)}
        table = {(a, a): 0 for a in pts}
        for (a, b), v in d.items():
            table[(a, b)] = table[(b, a)] = v
        with pytest.raises(ValueError, match=r"fails at \('p','q','s'\)"):
            h.SortData(pts, table, "p")
        table[("p", "s")] = table[("s", "p")] = F(5, 2)
        with pytest.raises(ValueError, match=r"fails at \('p','r','s'\)"):
            h.SortData(pts, table, "p")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), values=st.lists(
        st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 3)]),
        min_size=1, max_size=2, unique=True), seed=st.integers(0, 10**6))
    def test_table_check_matches_literal_triangles(self, n, values, seed):
        # one off-diagonal value c (c <= c + c) or two, such as {1, 3}
        rng = random.Random(seed)
        pts = tuple(f"p{i}" for i in range(n))
        d = {(a, a): F(0) for a in pts}
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                d[(a, b)] = d[(b, a)] = rng.choice(values)
        witness = next(((a, b, c) for a in pts for b in pts for c in pts
                        if d[(a, c)] > d[(a, b)] + d[(b, c)]), None)
        if len(set(d.values())) <= 2:
            assert witness is None
        if witness is None:
            assert h.SortData(pts, d, "p0").metric == d
        else:
            a, b, c = witness
            with pytest.raises(ValueError) as info:
                h.SortData(pts, d, "p0")
            assert str(info.value) == \
                f"triangle inequality fails at ({a!r},{b!r},{c!r})"

    def test_line_coordinates_distinct(self):
        with pytest.raises(ValueError):
            h.line_sort({"p": 1, "q": F(2, 2)})

    def test_encode_500_points(self):
        seq = random_tail_sequence(random.Random(3), max_prefix=500)
        start = time.perf_counter()
        _, M = h.encode_sequence_window(seq, 499)
        assert time.perf_counter() - start < 0.5
        assert len(M.points("D")) == 500

    def test_load_60_point_line_table(self):
        data = h.line_sort({f"p{i}": F(i * i, 7) for i in range(60)})
        doc = json.loads(json.dumps(h.structure_to_json(h.FiniteStructure(
            h.Signature(sorts=("X",)), {"X": data}))))
        start = time.perf_counter()
        M = h.structure_from_json(doc)
        assert time.perf_counter() - start < 0.5
        assert M.metric("X", "p3", "p59") == F(59 * 59 - 9, 7)

    def test_load_one_value_tables(self):
        # every discrete sort is written as such a table; at 240 points an
        # O(n^3) triangle check alone takes about a second
        for n in (60, 240):
            data = h.discrete_sort([f"p{i}" for i in range(n)])
            doc = json.loads(json.dumps(h.structure_to_json(
                h.FiniteStructure(h.Signature(sorts=("X",)), {"X": data}))))
            start = time.perf_counter()
            M = h.structure_from_json(doc)
            assert time.perf_counter() - start < 0.5
            assert M.metric("X", "p3", f"p{n - 1}") == 1

    @pytest.mark.parametrize("kind", range(3))
    def test_assignment_to_a_non_point(self, kind):
        sig = h.Signature(sorts=("X",), anchors={"X": "a"})
        M = h.FiniteStructure(sig, {"X": three_kinds()[kind]}, {"a": "p"})
        phi = h.parse_formula("d(x, a) <= 1", sig)
        for decide in (h.satisfies, h.approx_satisfies):
            with pytest.raises(SortMismatch,
                               match="'x' = 'zz' is not a point of sort 'X'"):
                decide(M, phi, {"x": "zz"})
            with pytest.raises(UnassignedVariable):
                decide(M, h.parse_formula("(0 <= 0 | d(x, a) <= 1)", sig))
        assert h.satisfies(M, phi, {"x": "q"})
