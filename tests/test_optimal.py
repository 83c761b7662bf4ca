"""Adjoint representation, conjugacy, optimal systems, audits."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from liesym.expr import ZERO, ONE, add, mul, powx, rat, substitute, sym
from liesym.jets import VectorField
from liesym.algebra import (canonical_class_by_name, identify,
                            structure_constants)
from liesym.catalog import load_catalog
from liesym.optimal import (ClassifiedAlgebra, ParamSpec, Step, SubalgebraRep,
                            ad_matrix_rational, adjoint_matrix,
                            apply_steps_numeric, are_conjugate,
                            construct_optimal_system, exact_expm,
                            projective_residual, strategy_for,
                            verify_candidate_system)

t, x, u = sym("t"), sym("x"), sym("u")
F = Fraction


def frac_vec(*vals):
    return tuple(Fraction(v) for v in vals)


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
        M = ad_matrix_rational(L, 2)
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
        for name, eps in (("2A2", 0.7), ("A3,5", 0.3)):
            cls = canonical_class_by_name(name)
            a = F(2, 5) if cls.parameter else None
            L = cls.instantiated(a)
            n = L.dim
            # the float matrix read exactly, so that only its own rounding
            # shows in the residual A^-1 [A e_i, A e_j] - [e_i, e_j]
            A = sympy.Matrix([[sympy.Rational(v) for v in row]
                              for row in adjoint_matrix(L, n - 1, eps)])
            Ainv = A.inv()
            c = [[[sympy.Rational(q) for q in row] for row in plane]
                 for plane in L.rational_constants()]
            for i in range(n):
                for j in range(n):
                    lhs = sympy.Matrix([
                        sum(A[a, i] * A[b, j] * c[a][b][k]
                            for a in range(n) for b in range(n))
                        for k in range(n)])
                    residual = Ainv * lhs - sympy.Matrix(c[i][j])
                    assert max(abs(r) for r in residual) < 1e-10

    def test_irrational_spectrum_needs_numeric_eps(self):
        L = canonical_class_by_name("A3,9").algebra
        assert exact_expm(ad_matrix_rational(L, 0), sym("eps")) is None
        M = adjoint_matrix(L, 0, 0.5)
        assert len(M) == 3
        assert all(len(row) == 3 and all(isinstance(v, float) for v in row)
                   for row in M)


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
        out = apply_steps_numeric(ca.strategy.cls, ca.strategy.a, steps,
                                  ca.canonical_coords(v))
        target = [float(q) for q in ca.canonical_coords(z)]
        assert projective_residual(out, target) <= 1e-9


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
        """Random vectors: applying the classifier's witness word lands on
        the claimed representative (projective residual <= 1e-9)."""
        strategy = strategy_for(name, a)
        rng = random.Random(name)
        dim = strategy.cls.dim
        reps = {r.rep_id: r for r in strategy.reps()}
        for _ in range(60):
            vec = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                        for _ in range(dim))
            if not any(vec):
                continue
            sig = strategy.classify(vec)
            out = apply_steps_numeric(strategy.cls, a, sig.steps, vec)
            rep = reps[sig.rep_id]
            vals = {}
            for ps in rep.params:
                v = sig.params[ps.name]
                assert ps.admits(v), (name, sig.rep_id, ps.name, v)
                vals[ps.name] = v
            target = []
            for ce in rep.coeffs:
                bound = substitute(ce, {k: rat(F(vv).limit_denominator(10 ** 9))
                                        if not isinstance(vv, Fraction)
                                        else rat(vv) for k, vv in vals.items()})
                target.append(float(bound.value))
            assert projective_residual(out, target) <= 1e-9, \
                (name, vec, sig.rep_id)

    @pytest.mark.parametrize("a", [F(1, 2), F(2), F(1, 3)])
    def test_spiral_radius_is_invariant(self, a):
        """The A3,7 plane radius r is unchanged under exp(eps ad e3) and
        under v -> -v (the central flip of A3,7+A1)."""
        strategy = strategy_for("A3,7", a)
        rng = random.Random(f"spiral-{a}")
        for _ in range(40):
            vec = (F(rng.randint(-9, 9), rng.randint(1, 3)),
                   F(rng.randint(-9, 9), rng.randint(1, 3)), F(0))
            if not any(vec):
                continue
            sig = strategy.vector_classify(vec)
            r = sig.params["r"]
            images = [tuple(-c for c in vec)]
            for _ in range(3):
                eps = rng.uniform(-3, 3)
                step = Step("exp", 2, epsilon=eps)
                images.append(tuple(F(c).limit_denominator(10 ** 12) for c
                                    in apply_steps_numeric(strategy.cls, a,
                                                           [step], vec)))
            for img in images:
                other = strategy.vector_classify(img)
                assert other.rep_id == sig.rep_id == "v:plane"
                assert other.params["r"] == pytest.approx(r, rel=1e-9), \
                    (vec, img)
            assert 1 - 1e-12 <= r < math.exp(math.pi * a) * (1 + 1e-12)


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
        E = exact_expm(ad_matrix_rational(L, 0), rat(F(3, 2)))
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
        # rotate a vector by a one-parameter subgroup numerically, then ask
        # for a witness back
        from liesym.linalg import matvec
        from liesym.optimal import _expm_float

        w = matvec(_expm_float(ad_matrix_rational(L, 2), 0.8), [1.0, 0.0, 0.0])
        wq = tuple(Fraction(float(v)).limit_denominator(10 ** 6) for v in w)
        res = are_conjugate(L, frac_vec(1, 0, 0), wq)
        # either a found witness or an honest undecided; never a wrong
        # not-conjugate
        assert res.verdict in ("conjugate", "undecided")
        if res.conjugate:
            assert res.witness.residual <= 1e-6

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
