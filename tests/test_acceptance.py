"""Acceptance suite: one test per contracted criterion, each printing a
pass/fail line (run with -s or -v to see them).

Criteria 9b and 10 are implemented exactly as contracted and fail: the
required generator counts are mathematically unattainable for those inputs
(see the assertion messages for the blocking analysis).  Everything else
must pass at the stated tolerances.
"""

import random
import time
from fractions import Fraction

from liesym.expr import (Rat, ZERO, ONE, add, exp, func, mul, rat, substitute,
                         sym)
from liesym.jets import VectorField
from liesym.pde import DCRInstance, build_dcr, heat_equation, power_diffusion
from liesym.symmetry import find_symmetries, invariance_residual, is_symmetry
from liesym.equivalence import (EquivalenceTransformation, apply_et,
                                compose_et, invert_et, normalize_coefficient,
                                pushforward_field, remove_drift)
from liesym.algebra import (canonical_class_by_name, identify,
                            structure_constants)
from liesym.optimal import (SubalgebraRep, ad_matrix_rational,
                            construct_optimal_system, exact_expm,
                            verify_candidate_system)
from liesym.reduction import (ClosedFormSolution, reduce_pde,
                              transform_solution_et, verify_solution)
from liesym.catalog import load_catalog, run_regression

t, x, u, m, p, b1 = (sym("t"), sym("x"), sym("u"), sym("m"), sym("p"),
                     sym("b1"))
F = Fraction

X1 = VectorField(ONE, ZERO, ZERO)
X2 = VectorField(ZERO, ONE, ZERO)


def third_generator(mm=m, pp=p) -> VectorField:
    """Verified third generator of the drift-free equation."""
    return VectorField((mm - 2 * pp - 1) * t, (mm - pp - 1) * x, u)


def printed_third_generator(mm=m, pp=p) -> VectorField:
    """The bracket-table basis variant carrying the extra -t*Dx term."""
    return VectorField((mm - 2 * pp - 1) * t, (mm - pp - 1) * x - t, u)


def eq4(mm=m, pp=p, bb=b1):
    return build_dcr(DCRInstance.make(m=mm, p=pp, b1=bb))


def report(criterion: str, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {mark}" + (f" ({detail})" if detail else ""))


# -- criterion 1: symmetry verification --------------------------------------

def test_c01_symmetry_verification():
    rng = random.Random(101)
    instances = [(m, p, b1)] + [(rat(mm), rat(pp), rat(bb))
                                for mm, pp in ((2, 1), (3, 1), (2, 3))
                                for bb in (1, -1)]
    ok = True
    for mm, pp, bb in instances:
        pde = eq4(mm, pp, bb)
        fields = [X1, X2, third_generator(mm, pp)]
        combos = []
        for _ in range(4):
            cs = [rat(rng.randint(-5, 5)) for _ in range(3)]
            if all(c.is_zero_literal for c in cs):
                continue
            combos.append(VectorField(*[
                add(*[mul(c, f[k]) for c, f in zip(cs, fields)])
                for k in range(3)]))
        for field in fields + combos:
            start = time.time()
            residual = invariance_residual(pde, field)
            elapsed = time.time() - start
            ok = ok and residual.is_zero_literal and elapsed < 1.0
    report("1 (symmetry verification)", ok)
    assert ok


# -- criterion 2: drift removal -----------------------------------------------

def test_c02_drift_removal():
    ok = True
    for b0 in (rat(3), rat(F(-7, 2)), sym("b0")):
        inst = DCRInstance.make(m=m, p=p, c0=sym("c0"),
                                c1=sym("c1")).replace(b0=b0, b1=b1)
        free_inst, witness = remove_drift(inst)
        lhs = apply_et(witness, build_dcr(inst)).rhs
        rhs = build_dcr(free_inst).rhs
        ok = ok and (lhs == rhs) and free_inst.b0.is_zero_literal
    report("2 (drift removal)", ok)
    assert ok


# -- criterion 3: ET group ----------------------------------------------------

def _random_et(rng) -> EquivalenceTransformation:
    def nz():
        while True:
            q = F(rng.randint(-6, 6), rng.randint(1, 4))
            if q:
                return q

    def anyq():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    return EquivalenceTransformation.make(k0=nz(), k1=nz(), k2=nz(), g=anyq(),
                                          d0=anyq(), d1=anyq(), d2=anyq())


def test_c03_et_group():
    start = time.time()
    rng = random.Random(303)
    ets = [_random_et(rng) for _ in range(100)]
    ok = True
    ident = EquivalenceTransformation.make()
    for g in ets:
        gi = invert_et(g)
        ok = ok and all(a == b for a, b in zip(
            compose_et(g, gi).params().values(), ident.params().values()))
    for i in range(0, 99, 3):
        g1, g2, g3 = ets[i], ets[i + 1], ets[i + 2]
        lhs = compose_et(compose_et(g1, g2), g3).params()
        rhs = compose_et(g1, compose_et(g2, g3)).params()
        ok = ok and all(lhs[k] == rhs[k] for k in lhs)
    # functoriality on a concrete member
    pde = build_dcr(DCRInstance.make(m=2, p=1, b0=1, b1=1, c0=1, c1=2))
    for i in range(0, 20, 2):
        g1, g2 = ets[i], ets[i + 1]
        ok = ok and apply_et(compose_et(g1, g2), pde).rhs == \
            apply_et(g1, apply_et(g2, pde)).rhs
    # equivariance on every catalog case x 10 random ETs.  Symbolic-exponent
    # cases use the monomial-preserving subgroup (d2 = 0): a u-shift maps
    # power nonlinearities outside monomial form, where identities in
    # symbolic exponents leave the kernel's decidable fragment.  Every
    # stored sample instantiation is tested against the full group.
    catalog = load_catalog()
    seen = set()
    no_shift = [EquivalenceTransformation.make(
        k0=g.k0, k1=g.k1, k2=g.k2, g=g.g, d0=g.d0, d1=g.d1) for g in ets]
    for case in catalog.values():
        if case.case_id in seen:
            continue
        seen.add(case.case_id)
        cpde = case.pde()
        for field in case.fields():
            assert is_symmetry(cpde, field).is_symmetry
        for g in no_shift[:10]:
            moved = apply_et(g, cpde)
            for field in case.fields():
                pushed = pushforward_field(g, field)
                ok = ok and is_symmetry(moved, pushed).is_symmetry
        for sample in case.samples:
            exponents = [F(v) for v in sample.bindings.values()]
            if any(q.denominator != 1 for q in exponents):
                # fractional exponents leave the polynomial fragment under a
                # u-shift just like symbolic ones; the d2 = 0 subgroup was
                # exercised above at symbolic exponents already
                continue
            spde = case.pde(sample.bindings, sample.overrides)
            sfields = case.fields(sample.bindings)
            for g in ets[:10]:
                moved = apply_et(g, spde)
                for field in sfields:
                    pushed = pushforward_field(g, field)
                    ok = ok and is_symmetry(moved, pushed).is_symmetry
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report("3 (equivalence group)", ok, f"{elapsed:.1f}s")
    assert ok


# -- criterion 4: c1 normalization --------------------------------------------

def test_c04_c1_normalization():
    ok = True
    for c1 in (4, -9, F(1, 3)):
        inst = DCRInstance.make(m=2, p=1, b1=1, c0=0, c1=c1)
        out, witness = normalize_coefficient(inst, "c1")
        unit = isinstance(out.c1, Rat) and abs(out.c1.value) == 1
        verified = apply_et(witness, build_dcr(inst)).rhs == \
            build_dcr(out).rhs
        ok = ok and unit and verified
    report("4 (c1 normalization)", ok)
    assert ok


# -- criterion 5: structure constants of the bracket-table basis --------------

def test_c05_structure_constants():
    L = structure_constants([X1, X2, printed_third_generator()])
    ok = list(L.c[0][2]) == [m - 2 * p - 1, rat(-1), ZERO]
    ok = ok and list(L.c[1][2]) == [ZERO, m - p - 1, ZERO]
    ok = ok and all(e.is_zero_literal for e in L.c[0][1])
    try:
        L.check_jacobi()
    except Exception:
        ok = False
    n = range(L.dim)
    ok = ok and all(add(L.c[i][j][k], L.c[j][i][k]).is_zero_literal
                    for i in n for j in n for k in n)
    report("5 (structure constants)", ok)
    assert ok


# -- criterion 6: identification ----------------------------------------------

def test_c06_identification():
    start = time.time()
    L = structure_constants([X1, X2, third_generator(rat(2), rat(3))])
    ident = identify(L)
    ok = (ident.status == "identified" and ident.label == "A3,5"
          and ident.parameter == F(2, 5) and ident.witness is not None)
    found = find_symmetries(power_diffusion(2), 2)
    L2 = structure_constants(found.fields)
    ident2 = identify(L2)
    ok = ok and ident2.status == "identified" and ident2.label == "2A2"
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report("6 (identification)", ok, f"{ident.display}; {ident2.display}")
    assert ok


# -- criterion 7: optimal-system cardinalities ---------------------------------

def test_c07_optimal_system_cardinalities():
    start = time.time()
    ok = True
    details = []
    for name in ("3A1", "A2+A1", "A3,1", "A3,2", "A3,3", "A3,4", "A3,5",
                 "A3,6", "A3,7", "A3,8", "A3,9"):
        cls = canonical_class_by_name(name)
        a = F(2, 5) if cls.parameter else None
        L = cls.instantiated(a)
        ident = identify(L)
        reps = construct_optimal_system(L, ident)
        audit = verify_candidate_system(L, reps, n_samples=1000, seed=17,
                                        ident=ident)
        good = (len(reps) <= 4 and audit.ok
                and audit.undecided_rate < 0.01)
        ok = ok and good
        details.append(f"{name}:{len(reps)}")
    L2 = canonical_class_by_name("2A2").algebra
    ident2 = identify(L2)
    reps2 = construct_optimal_system(L2, ident2)
    audit2 = verify_candidate_system(L2, reps2, n_samples=1000, seed=17,
                                     ident=ident2)
    has_family = any(r.params and all(ps.kind != "any" for ps in r.params)
                     for r in reps2)
    ok = ok and len(reps2) == 7 and has_family and audit2.ok \
        and audit2.undecided_rate < 0.01
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report("7 (optimal systems)", ok,
           f"{'; '.join(details)}; 2A2:{len(reps2)}; {elapsed:.1f}s")
    assert ok


# -- criterion 8: duplicate detection -------------------------------------------

def test_c08_duplicate_detection():
    L = structure_constants([X1, X2, third_generator(rat(2), rat(3))])
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
    padded = list(reps) + [SubalgebraRep(tuple(rat(v) for v in image))]
    audit = verify_candidate_system(L, padded, n_samples=400, seed=19,
                                    ident=ident)
    ok = (len(audit.conjugate_pairs) == 1
          and audit.conjugate_pairs[0][1] == len(padded) - 1
          and audit.conjugate_pairs[0][2].residual <= 1e-9)
    report("8 (duplicate detection)", ok)
    assert ok


# -- criterion 9: generator counts for the power-diffusion equation ------------

def test_c09a_power_diffusion_m2():
    start = time.time()
    result = find_symmetries(power_diffusion(2), 2)
    ok = len(result) == 4 and all(v.residual.is_zero_literal
                                  for v in result.verified)
    ok = ok and (time.time() - start) < 30.0
    report("9a (4 generators at m=2)", ok)
    assert ok


def test_c09b_power_diffusion_m_minus_four_thirds():
    """Contracted: exactly 5 residual-zero generators at m = -4/3.

    This is unattainable: the point-symmetry algebra of u_t = (u^m)_xx is
    four-dimensional for every m outside {1, -1/3}; the five-generator
    special case sits at m = -1/3 (diffusivity exponent m - 1 = -4/3, which
    is where the classical -4/3 belongs).  The determining system here
    returns four generators, and a fifth residual-zero independent generator
    cannot exist.  Kept faithful to the contract instead of silently moving
    the sample; see test_c09_fast_diffusion_true_special_value for the
    mathematically correct counterpart."""
    result = find_symmetries(power_diffusion(F(-4, 3)), 2)
    ok = len(result) == 5
    report("9b (5 generators at m=-4/3)", ok,
           f"found {len(result)}; the 5-generator case is m=-1/3")
    assert ok, (
        f"find_symmetries returned {len(result)} generators at m=-4/3. "
        "Exactly 4 exist: the extra projective generator x^2*Dx - 3*x*u*Du "
        "satisfies the invariance condition only when 3m + 1 = 0, i.e. "
        "m = -1/3; no fifth independent residual-zero generator exists at "
        "m = -4/3.")


def test_c09_fast_diffusion_true_special_value():
    """Companion check: the five-generator case at m = -1/3, with the extra
    projective generator, all residual-zero."""
    start = time.time()
    result = find_symmetries(power_diffusion(F(-1, 3)), 2)
    ok = len(result) == 5 and all(v.residual.is_zero_literal
                                  for v in result.verified)
    extra = VectorField(ZERO, x ** 2, -3 * x * u)
    ok = ok and is_symmetry(power_diffusion(F(-1, 3)), extra).is_symmetry
    ok = ok and (time.time() - start) < 30.0
    report("9c (5 generators at m=-1/3, companion)", ok)
    assert ok


# -- criterion 10: the missed special case -------------------------------------

def test_c10_special_case_generator_count():
    """Contracted: >= 4 generators from the polynomial-ansatz search for
    p + 1 = m, c0 = 0 at (m, b1, c1) in {(2,1,1), (3,1,1)}.

    Unattainable as stated: at these samples the full point-symmetry algebra
    is three-dimensional, spanned by the translations and the discovered
    generator exp(-(m-1)*c1*t)*(Dt + c1*u*Du), which is exponential in t and
    therefore invisible to the polynomial ansatz (the search correctly
    returns the two translations).  A four-dimensional algebra of this
    structure needs the extra coefficient relation
    c1 = b1^2*m*(m-1)/(3*m+1)^2, which these samples do not satisfy."""
    counts = {}
    for mm in (2, 3):
        pde = build_dcr(DCRInstance.make(m=mm, p=mm - 1, b1=1, c1=1))
        counts[mm] = len(find_symmetries(pde, 2))
    ok = any(c >= 4 for c in counts.values())
    report("10 (special case >= 4 generators)", ok, f"counts {counts}")
    assert ok, (
        f"polynomial-ansatz counts {counts}: the extra generator "
        "exp(-(m-1)*t)*(Dt + u*Du) is verified by the invariance residual "
        "(see the companion test) but is not polynomial, and no further "
        "generators exist at b1 = c1 = 1, so no sample reaches 4.")


def test_c10_special_case_exponential_generator_verified():
    """Companion check: the discovered non-polynomial generator passes the
    invariance test at symbolic m, and the catalog documents the branch."""
    pde = build_dcr(DCRInstance.make(m=m, p=m - 1, b1=1, c1=1))
    X4 = VectorField(exp(-(m - 1) * t), ZERO, exp(-(m - 1) * t) * u)
    v = is_symmetry(pde, X4)
    ok = v.is_symmetry and v.residual.is_zero_literal
    report("10b (exponential generator verified, companion)", ok)
    assert ok


# -- criterion 11: reduction and solution transport -----------------------------

def test_c11_reduction_certificate():
    pde = build_dcr(DCRInstance.make(m=2, p=1, b1=1))
    c = sym("c")
    red = reduce_pde(pde, VectorField(ONE, c, ZERO))
    w = sym("w")
    phi0, phi1, phi2 = (func("phi", w), func("phi", w, 1), func("phi", w, 2))
    expected = 2 * phi0 * phi2 + 2 * phi1 ** 2 + 2 * phi0 * phi1 + c * phi1
    ok = (2 * red.ode - expected).is_zero_literal
    ok = ok and red.certificate.is_zero_literal
    rng = random.Random(111)
    for _ in range(20):
        inst = DCRInstance.make(
            m=F(rng.randint(2, 9), rng.choice([1, 2])),
            p=F(rng.randint(1, 6), rng.choice([1, 2])),
            b0=rng.randint(-4, 4), b1=rng.randint(-4, 4),
            c0=rng.randint(-4, 4), c1=rng.randint(-4, 4))
        v = verify_solution(build_dcr(inst), ClosedFormSolution(ONE))
        ok = ok and v.is_solution and v.residual.is_zero_literal
    inst = DCRInstance.make(m=2, p=1, b0=3, b1=1, c0=0, c1=1)
    free_inst, witness = remove_drift(inst)
    sol = ClosedFormSolution(ONE)
    ok = ok and verify_solution(build_dcr(free_inst), sol).is_solution
    moved = transform_solution_et(sol, invert_et(witness))
    ok = ok and verify_solution(build_dcr(inst), moved).is_solution
    report("11 (reduction certificate)", ok)
    assert ok


# -- criterion 12: negative controls --------------------------------------------

def test_c12_negative_controls(tmp_path):
    # (a) injected wrong generator in a catalog fails with its residual
    doc = ("cases:\n"
           "  - id: injected\n"
           "    params: {m: \"2\", p: \"1\", b0: \"0\", b1: \"1\","
           " c0: \"0\", c1: \"0\"}\n"
           "    basis: [\"Dt\", \"x*Dx\"]\n")
    path = tmp_path / "injected.yaml"
    path.write_text(doc)
    rep = run_regression(load_catalog(str(path)), audit_samples=50)
    a_ok = (not rep.ok) and any("residual" in r.detail
                                for r in rep.failures())
    # (b) wrong solution
    v = verify_solution(heat_equation(), ClosedFormSolution(x ** 2))
    b_ok = v.verdict == "not-solution" and v.residual == rat(-2)
    # (c) wrongly frozen delta = +-1 candidate list
    L = canonical_class_by_name("2A2").algebra
    ident = identify(L)
    reps = construct_optimal_system(L, ident)
    frozen = []
    for r in reps:
        if r.params:
            for val in (1, -1):
                frozen.append(SubalgebraRep(tuple(
                    substitute(cc, {r.params[0].name: rat(val)})
                    for cc in r.coeffs)))
        else:
            frozen.append(r)
    audit = verify_candidate_system(L, frozen, n_samples=400, seed=23,
                                    ident=ident)
    c_ok = bool(audit.gaps)
    ok = a_ok and b_ok and c_ok
    report("12 (negative controls)", ok,
           f"wrong generator refuted: {a_ok}; wrong solution refuted: "
           f"{b_ok}; frozen list gaps: {len(audit.gaps)}")
    assert ok
