"""Adjoint representation, conjugacy, optimal systems, audits."""

import ast
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liesym.expr import (ZERO, ONE, Expr, ExprError, SymbolTable, add, log,
                         mul, powx, rat, substitute, sym)
from liesym.jets import VectorField, dcr_symbols
from liesym import optimal
from liesym.algebra import (_sum_name, ad_matrix, canonical_class_by_name,
                            identify, structure_constants)
from liesym.catalog import load_catalog
from liesym.cli import _load_candidates, main
from liesym.dsl import parse, parse_vector_field
from liesym.linalg import identity, matmul
from liesym.optimal import (_STRATEGIES, ClassifiedAlgebra, ParamSpec, Step,
                            Strategy, SubalgebraRep, _Candidate, _overlap,
                            adjoint_matrix, apply_word, are_conjugate,
                            construct_optimal_system, exact_expm,
                            strategy_for, verify_candidate_system)

t, x, u = sym("t"), sym("x"), sym("u")
F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
OPTIMAL_PY = Path(__file__).resolve().parent.parent / "src" / "liesym" / \
    "optimal.py"


def frac_vec(*vals):
    return tuple(Fraction(v) for v in vals)


def as_expr(v):
    return v if isinstance(v, Expr) else rat(v)


def assert_same_line(x, y):
    """x is nonzero and every 2x2 minor of (x, y) is the literal zero."""
    x, y = [as_expr(c) for c in x], [as_expr(c) for c in y]
    assert any(not c.is_zero_literal for c in x)
    for i, j in itertools.combinations(range(len(x)), 2):
        minor = add(mul(x[i], y[j]), mul(-1, x[j], y[i]))
        assert minor.is_zero_literal, (i, j, minor)


class TestAdjointMatrix:
    def test_abelian_identity(self):
        L = canonical_class_by_name("3A1").algebra
        for i in range(3):
            M = adjoint_matrix(L, i, sym("eps"))
            for r in range(3):
                for c in range(3):
                    want = ONE if r == c else ZERO
                    assert M[r][c] == want

    def test_two_dim_exponential_entry(self):
        # [e1,e2] = e1: Ad(exp(eps e2)) e1 = exp(-eps) e1, stored exactly
        from liesym.expr import EULER

        L = canonical_class_by_name("A2").algebra
        M = adjoint_matrix(L, 1, sym("eps"))
        assert M[0][0] == powx(EULER, -sym("eps"))
        assert M[1][1] == ONE

    def test_eq5_diagonal(self):
        # ad e3 at (m,p)=(2,3) is triangular with diagonal (-5,-2,0) in the
        # printed basis; its exponential has exponential diagonal entries
        X1 = VectorField(ONE, ZERO, ZERO)
        X2 = VectorField(ZERO, ONE, ZERO)
        X3 = VectorField(-5 * t, -2 * x - t, u)
        L = structure_constants([X1, X2, X3])
        M = ad_matrix(L, identity(L.dim)[2])
        assert [M[0][0], M[1][1], M[2][2]] == [F(5), F(2), F(0)]
        E = adjoint_matrix(L, 2, sym("eps"))
        from liesym.expr import EULER

        assert E[0][0] == powx(EULER, 5 * sym("eps"))
        assert E[1][1] == powx(EULER, 2 * sym("eps"))

    def test_one_parameter_homomorphism(self):
        L = canonical_class_by_name("A3,2").algebra
        e1, e2 = sym("e1s"), sym("e2s")
        A = adjoint_matrix(L, 2, e1)
        B = adjoint_matrix(L, 2, e2)
        prod = [[add(*[mul(A[i][k], B[k][j]) for k in range(3)])
                 for j in range(3)] for i in range(3)]
        S = adjoint_matrix(L, 2, add(e1, e2))
        for i in range(3):
            for j in range(3):
                assert (prod[i][j] - S[i][j]).is_zero_literal

    def test_ad_preserves_structure_constants(self):
        """A = Ad(exp(eps ad e_n)) is an automorphism: A^-1 [A e_i, A e_j]
        - [e_i, e_j] is the literal ZERO, for a rational eps and for eps a
        rational multiple of a log, whose group element has rational
        powers as entries."""
        for name, eps in (("2A2", rat(F(7, 10))), ("A3,5", rat(F(3, 10))),
                          ("2A2", mul(F(1, 3), log(rat(2)))),
                          ("A3,5", mul(F(-5, 3), log(rat(F(3, 2)))))):
            cls = canonical_class_by_name(name)
            a = F(2, 5) if cls.parameter else None
            L = cls.instantiated(a)
            n = L.dim
            A = adjoint_matrix(L, n - 1, eps)
            Ainv = adjoint_matrix(L, n - 1, mul(-1, eps))
            c = L.rational_constants()
            for i, j, k in itertools.product(range(n), repeat=3):
                lhs = add(*[mul(Ainv[k][m], A[p][i], A[q][j], c[p][q][m])
                            for p, q, m in itertools.product(range(n),
                                                             repeat=3)
                            if c[p][q][m]])
                assert add(lhs, -c[i][j][k]).is_zero_literal, (name, i, j, k)

    def test_a39_rotation_step_is_exact(self):
        # so(3): ad e1 has the spectrum {0, i, -i}, so exp(eps ad e1) has no
        # closed form in eps; its group elements are rotation steps carried
        # by an exact (cos, sin)
        cls = canonical_class_by_name("A3,9")
        L = cls.algebra
        assert exact_expm(ad_matrix(L, identity(L.dim)[0]),
                          sym("eps")) is None
        with pytest.raises(ExprError):
            adjoint_matrix(L, 0, sym("eps"))
        turn = Step("rot", 0, turn=(rat(F(3, 5)), rat(F(4, 5))))
        assert turn.describe() == "exp(atan2(4/5, 3/5)*ad e1)"
        assert apply_word(cls, None, [turn], frac_vec(0, 1, 0)) == \
            [ZERO, rat(F(3, 5)), rat(F(4, 5))]
        assert apply_word(cls, None, [turn, turn.inverse()],
                          frac_vec(1, 2, 3)) == [rat(1), rat(2), rat(3)]
        # two eighth turns, with cos = sin = 2^(-1/2), make a quarter turn
        h = powx(rat(2), rat(F(-1, 2)))
        eighth = Step("rot", 0, turn=(h, h))
        assert apply_word(cls, None, [eighth, eighth],
                          frac_vec(0, 1, 0)) == [ZERO, ZERO, ONE]


class TestConjugacy:
    def setup_method(self):
        self.L = canonical_class_by_name("A2").algebra

    def test_reflexive(self):
        res = are_conjugate(self.L, frac_vec(1, 2), frac_vec(1, 2))
        assert res.conjugate
        assert res.witness.residual <= 1e-9

    def test_projective_scaling(self):
        res = are_conjugate(self.L, frac_vec(1, 0), frac_vec(2, 0))
        assert res.conjugate

    def test_shift_witness(self):
        # e2 and e2 + e1 are conjugate via exp(ad e1)
        res = are_conjugate(self.L, frac_vec(0, 1), frac_vec(1, 1))
        assert res.conjugate

    def test_derived_membership_separates(self):
        res = are_conjugate(self.L, frac_vec(1, 0), frac_vec(0, 1))
        assert res.verdict == "not-conjugate"
        assert res.values[0] != res.values[1]

    def test_symmetric_with_witnesses(self):
        L = canonical_class_by_name("A3,5").algebra.instantiate({"a": F(2, 5)})
        v, w = frac_vec(1, 2, 0), frac_vec(3, 5, 0)
        r1 = are_conjugate(L, v, w)
        r2 = are_conjugate(L, w, v)
        assert r1.conjugate and r2.conjugate
        assert r1.witness.residual <= 1e-9
        assert r2.witness.residual <= 1e-9

    def test_transitivity_by_composition(self):
        L = canonical_class_by_name("A3,5").algebra.instantiate({"a": F(2, 5)})
        ident = identify(L)
        ca = ClassifiedAlgebra.build(L, ident)
        v, w, z = frac_vec(1, 2, 0), frac_vec(3, 5, 0), frac_vec(2, 7, 0)
        rvw = are_conjugate(L, v, w, ident)
        rwz = are_conjugate(L, w, z, ident)
        steps = list(rvw.witness.steps) + list(rwz.witness.steps)
        assert_same_line(apply_word(ca.strategy.cls, ca.strategy.a, steps,
                                    ca.canonical_coords(v)),
                         ca.canonical_coords(z))


def _group_steps(cls, a):
    """One rational group element per generator whose group elements keep
    rational vectors rational: a shift exp(3/2 ad e_i) for a nilpotent
    ad e_i, the turn (3/5, 4/5) for a pure rotation generator."""
    L = cls.instantiated(a)
    out = []
    for i in range(cls.dim):
        M = ad_matrix(L, identity(L.dim)[i])
        P = M
        for _ in range(cls.dim - 1):
            P = matmul(P, M)
        if not any(map(any, P)):
            out.append(Step("exp", i, epsilon=rat(F(3, 2))))
        elif not any(M[k][k] for k in range(cls.dim)) and \
                exact_expm(M, sym("eps")) is None:
            out.append(Step("rot", i, turn=(rat(F(3, 5)), rat(F(4, 5)))))
    return out


class TestWitnessVerification:
    @pytest.mark.parametrize("name,a", [
        ("A2", None), ("A2+A1", None), ("A3,1", None), ("A3,2", None),
        ("A3,3", None), ("A3,4", None), ("A3,5", F(2, 5)), ("A3,6", None),
        ("A3,7", F(1, 2)), ("A3,8", None), ("A3,9", None), ("2A2", None),
        ("A2+2A1", None), ("A3,5+A1", F(2, 5)), ("A3,8+A1", None),
        ("A3,1+A1", None), ("A3,2+A1", None), ("A3,3+A1", None),
        ("A3,4+A1", None), ("A3,6+A1", None), ("A3,7+A1", F(1, 2)),
        ("A3,9+A1", None),
    ])
    def test_classifier_words_map_to_representatives(self, name, a):
        """Random vectors: the classifier's witness word, applied exactly,
        lands on the claimed representative at the signature's exact
        parameters (every 2x2 minor is the literal zero).  Sampled pairs
        (v, k*g(v)) for a rational group element g are conjugate, with a
        word that maps v onto the line of k*g(v) exactly."""
        strategy = strategy_for(name, a)
        rng = random.Random(name)
        dim = strategy.cls.dim
        reps = {r.rep_id: r for r in strategy.reps()}
        L = strategy.cls.instantiated(a)
        ident = identify(L)
        ca = ClassifiedAlgebra.build(L, ident)
        moves = _group_steps(strategy.cls, a)
        for n in range(40):
            vec = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                        for _ in range(dim))
            if not any(vec):
                continue
            sig = strategy.classify(vec)
            rep = reps[sig.rep_id]
            if isinstance(sig.params.get("r"), tuple):
                # A3,7 + A1: the spiral class is keyed by the plane vector
                # up to sign, and the word reaches that key
                target = list(sig.params["r"]) + [ZERO, ONE]
            else:
                for ps in rep.params:
                    assert ps.admits(sig.params[ps.name]), \
                        (name, sig.rep_id, ps.name, sig.params[ps.name])
                bind = {k: as_expr(v) for k, v in sig.params.items()}
                target = [substitute(c, bind) for c in rep.coeffs]
            assert_same_line(apply_word(strategy.cls, a, sig.word(), vec),
                             target)
            if n % 4 or not moves:
                continue
            image = apply_word(strategy.cls, a, [rng.choice(moves)], vec)
            k = rng.choice([-2, 1, 3])
            w = tuple(k * c.value for c in image)
            res = are_conjugate(L, vec, w, ident)
            assert res.verdict == "conjugate", (name, vec, w, res.reason)
            assert res.witness.residual == 0
            assert_same_line(apply_word(ca.strategy.cls, ca.strategy.a,
                                        res.witness.steps,
                                        ca.canonical_coords(vec)),
                             ca.canonical_coords(w))

    @pytest.mark.parametrize("a", [F(1, 2), F(2), F(1, 3)])
    def test_spiral_radius_is_invariant(self, a):
        """The A3,7^a plane vectors of A3,7^a + A1 are keyed by the vector
        up to sign (Gelfond-Schneider; see
        _RotationStrategy.vector_classify).  Cross-check at 50 digits: the
        spiral invariant log r + a*theta mod pi*a is unchanged by
        exp(eps ad e3) and by v -> -v, agrees on equal keys and differs
        on different ones."""
        mpmath = pytest.importorskip("mpmath")
        strategy = strategy_for("A3,7", a)
        rng = random.Random(f"spiral-{a}")
        vecs = []
        while len(vecs) < 30:
            vec = (F(rng.randint(-9, 9), rng.randint(1, 3)),
                   F(rng.randint(-9, 9), rng.randint(1, 3)), F(0))
            if any(vec):
                vecs.append(vec)
        keys = [strategy.vector_classify(v).params["r"] for v in vecs]
        for v, key in zip(vecs, keys):
            neg = strategy.vector_classify(tuple(-c for c in v))
            assert neg.rep_id == "v:plane" and neg.params["r"] == key
        with mpmath.workdps(50):
            A = mpmath.mpf(a.numerator) / a.denominator
            period = mpmath.pi * A

            def spiral(c1, c2):
                s = mpmath.log(mpmath.hypot(c1, c2)) + A * mpmath.atan2(c2, c1)
                return s - period * mpmath.floor(s / period)

            def apart(p, q):
                d = abs(p - q)
                return min(d, period - d)

            def value(c):
                return mpmath.mpf(c.numerator) / c.denominator

            inv = [spiral(value(v[0]), value(v[1])) for v in vecs]
            for (c1, c2, _), s in zip(vecs, inv):
                eps = mpmath.mpf(rng.randint(-30, 30)) / 7
                scale = mpmath.exp(-A * eps)
                g1 = scale * (mpmath.cos(eps) * value(c1)
                              - mpmath.sin(eps) * value(c2))
                g2 = scale * (mpmath.sin(eps) * value(c1)
                              + mpmath.cos(eps) * value(c2))
                assert apart(spiral(g1, g2), s) < mpmath.mpf(10) ** -45
                assert apart(spiral(-value(c1), -value(c2)), s) < \
                    mpmath.mpf(10) ** -45
            for i, j in itertools.combinations(range(len(vecs)), 2):
                if keys[i] == keys[j]:
                    assert apart(inv[i], inv[j]) < mpmath.mpf(10) ** -45
                else:
                    assert apart(inv[i], inv[j]) > mpmath.mpf(10) ** -40


class TestOptimalSystems:
    def test_three_dim_cardinalities(self):
        sizes = {}
        for name in ("3A1", "A2+A1", "A3,1", "A3,2", "A3,3", "A3,4", "A3,5",
                     "A3,6", "A3,7", "A3,8", "A3,9"):
            cls = canonical_class_by_name(name)
            a = F(2, 5) if cls.parameter else None
            L = cls.instantiated(a)
            reps = construct_optimal_system(L)
            sizes[name] = len(reps)
            assert len(reps) <= 4, name
        assert sizes["A3,5"] == 4

    def test_2a2_seven_classes_with_parameter(self):
        L = canonical_class_by_name("2A2").algebra
        reps = construct_optimal_system(L)
        assert len(reps) == 7
        families = [r for r in reps if r.params]
        assert len(families) == 1
        assert families[0].params[0].kind in ("nonzero", "unit-interval")

    def test_audits_clean_for_all_supported_classes(self):
        names = ["3A1", "A2+A1", "A3,1", "A3,2", "A3,3", "A3,4", "A3,5",
                 "A3,6", "A3,7", "A3,8", "A3,9", "2A2", "4A1", "A2+2A1",
                 "A3,1+A1", "A3,5+A1", "A3,8+A1"]
        for name in names:
            cls = canonical_class_by_name(name)
            a = F(2, 5) if cls.parameter else None
            L = cls.instantiated(a)
            ident = identify(L)
            reps = construct_optimal_system(L, ident)
            audit = verify_candidate_system(L, reps, n_samples=120, seed=3,
                                            ident=ident)
            assert audit.ok, (name, audit.summary())
            assert audit.undecided == 0

    def test_duplicate_injection_flagged_once(self):
        X1 = VectorField(ONE, ZERO, ZERO)
        X2 = VectorField(ZERO, ONE, ZERO)
        X3 = VectorField(-5 * t, -2 * x, u)
        L = structure_constants([X1, X2, X3])
        ident = identify(L)
        reps = construct_optimal_system(L, ident)
        base = reps[0].rational_coeffs()
        E = exact_expm(ad_matrix(L, identity(L.dim)[0]), rat(F(3, 2)))
        image = []
        for i in range(3):
            acc = F(0)
            for j in range(3):
                acc += E[i][j].value * base[j]
            image.append(acc)
        bad = list(reps) + [SubalgebraRep(tuple(rat(v) for v in image))]
        audit = verify_candidate_system(L, bad, n_samples=150, seed=11,
                                        ident=ident)
        assert len(audit.conjugate_pairs) == 1
        i, j, witness = audit.conjugate_pairs[0]
        assert j == len(bad) - 1
        assert witness.residual <= 1e-9

    def test_frozen_parameter_list_has_gaps(self):
        L = canonical_class_by_name("2A2").algebra
        ident = identify(L)
        reps = construct_optimal_system(L, ident)
        frozen = []
        for r in reps:
            if r.params:
                for val in (1, -1):
                    frozen.append(SubalgebraRep(tuple(
                        substitute(c, {r.params[0].name: rat(val)})
                        for c in r.coeffs)))
            else:
                frozen.append(r)
        assert len(frozen) == 8
        audit = verify_candidate_system(L, frozen, n_samples=200, seed=13,
                                        ident=ident)
        assert audit.gaps
        assert not audit.conjugate_pairs

    @pytest.mark.parametrize("name", ["3A1", "A2+2A1", "A3,1+A1", "A3,2+A1",
                                      "A3,5+A1", "A3,6+A1", "A3,7+A1",
                                      "A3,8+A1", "A3,9+A1"])
    def test_anonymous_family_is_never_a_gap(self, name):
        # the constructed system without its rep_ids: a family reaches most
        # classes only at parameter values the audit does not solve for, so
        # such samples are undecided, never gaps
        cls = canonical_class_by_name(name)
        L = cls.instantiated(F(2, 5) if cls.parameter else None)
        ident = identify(L)
        anon = [SubalgebraRep(r.coeffs, r.params)
                for r in construct_optimal_system(L, ident)]
        audit = verify_candidate_system(L, anon, n_samples=40, seed=11,
                                        ident=ident)
        assert not audit.gaps and not audit.conjugate_pairs
        assert audit.undecided == audit.unsolved

    @pytest.mark.parametrize("names", [("s", "t"), ("a2", "a3")])
    def test_duplicate_of_multi_parameter_family_flagged(self, names):
        # the line (1, 2, 3) is the family (1, s, t) at s = 2, t = 3; the
        # flag must not depend on what the parameters are called
        L = canonical_class_by_name("3A1").algebra
        family = SubalgebraRep((ONE, sym(names[0]), sym(names[1])),
                               tuple(ParamSpec(n) for n in names))
        line = SubalgebraRep(tuple(rat(v) for v in (1, 2, 3)))
        audit = verify_candidate_system(L, [family, line], n_samples=20,
                                        seed=3)
        assert [(i, j) for i, j, _ in audit.conjugate_pairs] == [(0, 1)]

    def test_audit_classifies_each_candidate_once(self, monkeypatch):
        # tests/golden/family.txt on A3,5: one classification per sample
        # plus each candidate's instance table, not one per trial value and
        # sample
        calls = []
        real = ClassifiedAlgebra.classify

        def classify(self, v):
            calls.append(v)
            return real(self, v)

        L = structure_constants(
            load_catalog()["eq5"].fields({"m": "2", "p": "3"}))
        a, b = sym("a"), sym("b")
        family = [SubalgebraRep((ONE, a, ZERO), (ParamSpec("a", "nonzero"),)),
                  SubalgebraRep((ZERO, ZERO, ONE)),
                  SubalgebraRep((ONE, ONE, ZERO)),
                  SubalgebraRep((ZERO, ONE, b), (ParamSpec("b"),))]
        monkeypatch.setattr(ClassifiedAlgebra, "classify", classify)
        audit = verify_candidate_system(L, family, n_samples=1000, seed=11)
        assert len(audit.conjugate_pairs) == 2 and len(audit.gaps) == 3
        assert len(calls) <= 1100

    def test_unsupported_class(self):
        from liesym.optimal import UnsupportedClassError

        with pytest.raises(UnsupportedClassError):
            strategy_for("A4,7")

    def test_abelian_families(self):
        L = canonical_class_by_name("3A1").algebra
        reps = construct_optimal_system(L)
        assert len(reps) == 3
        assert len(reps[0].params) == 2


class TestGenericFallback:
    """Unidentified algebras are decided by exact rules (same line, central
    line, derived-series membership) or answered undecided with the reason
    no classifier applies."""

    def _scaled_so3(self):
        # non-canonical compact frame: identification honestly gives up,
        # so conjugacy goes through the generic path
        L = canonical_class_by_name("A3,9").algebra
        entries = {(0, 1): [rat(0), rat(0), rat(2)],
                   (1, 2): [rat(Fraction(1, 2)), rat(0), rat(0)],
                   (0, 2): [rat(0), rat(-2), rat(0)]}
        from liesym.algebra import LieAlgebra

        return LieAlgebra.from_constants(3, entries)

    def test_unidentified(self):
        from liesym.algebra import identify as _identify

        assert _identify(self._scaled_so3()).status == "unidentified"

    def test_same_line_found(self):
        L = self._scaled_so3()
        res = are_conjugate(L, frac_vec(1, 0, 0), frac_vec(2, 0, 0))
        assert res.conjugate
        assert res.witness.residual <= 1e-9

    def test_numeric_witness_search(self):
        L = self._scaled_so3()
        # ad e3 = [[0, -1/2, 0], [2, 0, 0], [0, 0, 0]] squares to
        # -diag(1, 1, 0), so exp(theta ad e3) e1 = (cos, 2 sin, 0): at
        # (cos, sin) = (3/5, 4/5) a rational point on the orbit of e1
        res = are_conjugate(L, frac_vec(1, 0, 0),
                            frac_vec(F(3, 5), F(8, 5), 0))
        # either a found witness or an honest undecided; never a wrong
        # not-conjugate
        assert res.verdict in ("conjugate", "undecided")
        if res.conjugate:
            assert res.witness.residual == 0

    def test_central_line_is_its_own_orbit(self):
        # 4A1+A1 is abelian and outside the catalog's dimensions
        L = canonical_class_by_name("4A1+A1").algebra
        res = are_conjugate(L, frac_vec(1, 0, 0, 0, 0), frac_vec(0, 1, 0, 0, 0))
        assert res.verdict == "not-conjugate"
        assert "central element e1" in res.invariant

    def _ovsiannikov_m_minus_third(self):
        # the five-dimensional algebra of u_t = (u^(-4/3) u_x)_x
        from liesym.dsl import parse_vector_field
        from liesym.jets import dcr_symbols

        table = dcr_symbols()
        return structure_constants([
            parse_vector_field(f, table) for f in
            ("Dt", "Dx", "2*t*Dt + x*Dx", "4*t*Dt + 3*u*Du",
             "x^2*Dx - 3*u*x*Du")])

    def test_derived_series_and_undecided(self):
        L = self._ovsiannikov_m_minus_third()
        e = [frac_vec(*(int(i == k) for i in range(5))) for k in range(5)]
        res = are_conjugate(L, e[0], e[1])
        assert res.verdict == "not-conjugate"
        assert res.invariant == "derived-series membership"
        # e2 and e5 are conjugate through sl(2); e3 and e4 share every
        # invariant the exact rules read
        for i, j in ((1, 4), (2, 3)):
            res = are_conjugate(L, e[i], e[j])
            assert res.verdict == "undecided"
            assert "dimension 5" in res.reason


def _old_sample_directions(n, count, seed):
    # verbatim copy of the sampler that built a Fraction for every draw
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vec = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                    for _ in range(n))
        if any(x != 0 for x in vec) and all(abs(x) <= 5 for x in vec):
            out.append(vec)
    return out


# pins the getrandbits stream to randint's on the installed CPython
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", list(range(20)) + [20240901])
def test_sample_directions_unchanged(n, seed):
    from liesym.optimal import _sample_directions

    assert _sample_directions(n, 150, seed) == _old_sample_directions(
        n, 150, seed)


def test_a38_probe_separated_by_q():
    # e2 + e4 and (1 + 10^-12) e2 + e4 on sl(2, R) + R: the invariant
    # Q = c2^2 + 4 c1 c3 of the sl(2) part, at e4-coefficient 1, is 1
    # against (1 + 10^-12)^2, so the lines are not conjugate
    table = dcr_symbols()
    L = structure_constants([parse_vector_field(f, table)
                             for f in ("Dx", "x*Dx", "x^2*Dx", "Dt")])
    near = F(10 ** 12 + 1, 10 ** 12)
    res = are_conjugate(L, frac_vec(0, 1, 0, 1), (F(0), near, F(0), F(1)))
    assert res.verdict == "not-conjugate"
    assert "Q = c2^2 + 4*c1*c3" in res.invariant
    assert res.values[0] != res.values[1]


def _parse_word(word):
    """The steps of a printed witness word."""
    if word == "identity":
        return []
    table = SymbolTable()
    steps = []
    for letter in word.split(" . "):
        aut = re.fullmatch(r"aut\[(.+)\]", letter)
        if aut:
            steps.append(Step("aut", name=aut.group(1)))
            continue
        eps, k = re.fullmatch(r"exp\((.+)\*ad e(\d+)\)", letter).groups()
        turn = re.fullmatch(r"atan2\((.+), (.+)\)", eps)
        if turn:
            steps.append(Step("rot", int(k) - 1,
                              turn=(parse(turn.group(2), table),
                                    parse(turn.group(1), table))))
        else:
            steps.append(Step("exp", int(k) - 1, epsilon=parse(eps, table)))
    return steps


def _audit_cases():
    from test_golden_reports import CASES

    return [(name, argv) for name, argv, _ in CASES
            if argv[0] == "audit-system"]


@pytest.mark.parametrize("name,argv", _audit_cases(),
                         ids=[c[0] for c in _audit_cases()])
def test_golden_conjugacy_words_reapply_exactly(name, argv, tmp_path,
                                                monkeypatch, capsys):
    """Each golden audit's command, run in process, reproduces its pairs,
    and each printed word, parsed back and applied exactly to the pair's
    lines, maps the first onto the line of the second."""
    from liesym.cli import _parse_params, _resolve_algebra, build_parser

    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "doc.json"
    main([*argv, "--out", str(out)])
    pairs = json.loads(out.read_text())["certificates"]["pairs"]
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert pairs == golden["certificates"]["pairs"]
    args = build_parser().parse_args(argv)
    L = _resolve_algebra(args, _parse_params(args.params))
    cands = _load_candidates(args.candidates, L.dim)
    ca = ClassifiedAlgebra.build(L)
    built = [_Candidate.build(ca, r) for r in cands]
    for i, j, word in pairs:
        vi, vj = _overlap(ca, built[i], built[j])
        image = apply_word(ca.strategy.cls, ca.strategy.a, _parse_word(word),
                           ca.canonical_coords(cands[i].instantiate(vi)))
        assert_same_line(image, ca.canonical_coords(cands[j].instantiate(vj)))


def test_optimal_has_no_float_path():
    """optimal.py calls no float() and no math function but the exact
    integer helpers, and defines no PARAM_TOL: every verdict is exact."""
    allowed = {"lcm", "factorial", "comb", "isqrt"}
    tree = ast.parse(OPTIMAL_PY.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", node.lineno
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "math":
            assert node.attr in allowed, (node.attr, node.lineno)
        if isinstance(node, ast.ImportFrom):
            assert node.module != "math", node.lineno
        assert not (isinstance(node, ast.Name) and node.id == "PARAM_TOL")


# every X + A1 sum with a classifier: the bases with vector orbits
_SUMS = [name for name in (_sum_name(b) for b, S in _STRATEGIES.items()
                           if S.vector_classify is not Strategy.vector_classify)
         if name not in _STRATEGIES]
_PARAMETER = {"A3,5": F(2, 5), "A3,7": F(1, 2)}


@pytest.mark.parametrize("name", [*_STRATEGIES, *_SUMS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_classification_is_projective(name, data):
    """A line classifier reads only ratios and signs, and takes int and
    Fraction coordinates alike: v, lam*v for a positive integer lam, and
    the integer multiple of v get one signature, from the strategy and from
    the classified algebra.  v and lam*v are conjugate, with a word that
    re-applies exactly."""
    a = _PARAMETER.get(name.split("+")[0])
    strategy = strategy_for(name, a)
    L = strategy.cls.instantiated(a)
    ident = identify(L)
    ca = ClassifiedAlgebra.build(L, ident)
    v = data.draw(st.lists(st.fractions(-5, 5, max_denominator=4),
                           min_size=L.dim, max_size=L.dim).filter(any))
    lam = data.draw(st.integers(1, 12), label="lam")
    d = math.lcm(*(x.denominator for x in v))
    scaled = [lam * x for x in v]
    integral = [int(x * d) for x in v]
    for classify, vectors in ((strategy.classify, (v, scaled, integral)),
                              (ca.classify, (v, scaled, integral))):
        sigs = [classify(w) for w in vectors]
        assert all((s.rep_id, s.params) == (sigs[0].rep_id, sigs[0].params)
                   for s in sigs), (name, v, lam)
    res = are_conjugate(L, v, scaled, ident)
    assert res.verdict == "conjugate", (name, v, lam, res.reason)
    assert_same_line(apply_word(ca.strategy.cls, ca.strategy.a,
                                res.witness.steps, ca.canonical_coords(v)),
                     ca.canonical_coords(scaled))


def test_audit_builds_no_word(monkeypatch):
    """The regression's 2A2 and A3,5 systems audit to the same summary when
    every word step refuses to be built: neither the samples nor the
    candidates' instances ask for a word.  The sampler's first vectors are
    pinned, so that a change to its stream, which the audit goldens pin
    too, shows up here first."""
    cases = load_catalog()
    algebras = [structure_constants(cases["ovsiannikov"].fields({"m": "2"})),
                structure_constants(cases["eq5"].fields({"m": "2",
                                                         "p": "3"}))]

    def audits():
        out = []
        for L in algebras:
            ident = identify(L)
            out.append(verify_candidate_system(
                L, construct_optimal_system(L, ident), n_samples=300,
                ident=ident).summary())
        return out

    want = audits()

    def refuse(*args, **kw):
        raise AssertionError("a witness word was built")

    for step in ("_exp_step", "_log_step", "_aut_step"):
        monkeypatch.setattr(optimal, step, refuse)
    assert audits() == want
    assert all(s.startswith("pairs flagged: 0\ncoverage gaps: 0 of 300 ")
               for s in want)
    assert optimal._sample_directions(4, 5, 1)[:2] == [
        (F(-1, 4), F(1, 4), F(-8, 3), F(-14, 3)), (F(19, 4), F(-2), F(-5), 0)]
    assert optimal._sample_directions(3, 5, 11)[:2] == [
        (F(2), F(4), F(-9, 4)), (F(-5, 4), F(-1), F(9, 2))]


def test_audit_of_a_huge_candidate_line_needs_no_word(tmp_path, capsys):
    """A complete A3,5 list whose e1+e2 line has a 40-digit coefficient is
    audited clean: the scaling word of that line would need the log of a
    rational that cannot be factored, and the audit never reads it."""
    path = tmp_path / "cands.txt"
    path.write_text("0, 0, 1\n1, 0, 0\n0, 1, 0\n"
                    "1, 1234567890123456789012345678901234567891, 0\n")
    code = main(["audit-system", "--algebra", "case:eq5", "--params",
                 "m=2,p=3", "--candidates", str(path), "--samples", "200"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "liesym audit-system: clean" in out
