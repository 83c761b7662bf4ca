"""What each workload does before its first operation: the imports, catalog
loads and parsing that a fresh process of the workload needs, and the inputs
made from the seed.

probe.py runs one of these in a fresh process to time set-up (``setup_s``),
so this module imports nothing that liesym does not import itself: the
harness adds no time of its own to the figure.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import List

REACTION = "u_t = D(u^2,x,2)+D(u^2,x)+u^3"
HEAT = "u_t = D(u,x,2)"


def _rng(seed: int, tag: str):
    import random

    return random.Random(f"{tag}:{seed}")


def _nonzero_rational(rnd) -> Fraction:
    return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9),
                    rnd.randint(1, 5))


def a35_candidates(seed: int) -> List[List[Fraction]]:
    """One line per class of A3,5^(2/5) in the basis (Dt, Dx, X3) of case
    eq5 at m=2, p=3, where X3 = -5*t*Dt - 2*x*Dx + u*Du, so that Dt, Dx and
    e3 = -X3/5 satisfy [e1,e3] = e1, [e2,e3] = (2/5)*e2.  The classes are
    e3, e1, e2 and e1 + e2 (Patera-Winternitz): each line is a seeded
    nonzero multiple of a conjugate of its class, in seeded order."""
    rnd = _rng(seed, "candidates")
    r, s, k0, k1, k2 = (_nonzero_rational(rnd) for _ in range(5))
    c1, c2 = _nonzero_rational(rnd), _nonzero_rational(rnd)
    lines = [[k0 * r, k0 * s, k0],          # e3 + r*e1 + s*e2 ~ e3
             [k1, Fraction(0), Fraction(0)],
             [Fraction(0), k2, Fraction(0)],
             [c1, c2, Fraction(0)]]           # sign flips are declared
    rnd.shuffle(lines)
    return lines


def a35_padded(seed: int) -> List[List[Fraction]]:
    """The lines of a35_candidates plus a fifth, a seeded nonzero multiple
    of e3 + r'*e1 + s'*e2: a second conjugate of the class of e3, so the
    pairwise audit must flag it with the line of that class."""
    rnd = _rng(seed, "padded")
    r, s, k = (_nonzero_rational(rnd) for _ in range(3))
    return a35_candidates(seed) + [[k * r, k * s, k]]


def _write_lines(path: Path, lines: List[List[Fraction]]) -> Path:
    path.write_text("".join(", ".join(str(q) for q in line) + "\n"
                            for line in lines))
    return path


def cli_readme(seed: int, workdir: Path) -> dict:
    import liesym.cli  # noqa: F401  (what every call imports)
    from liesym.algebra import load_class_catalog
    from liesym.catalog import load_catalog

    load_catalog()
    load_class_catalog()
    return {"seed": seed, "workdir": workdir,
            "candidates": _write_lines(workdir / "candidates.txt",
                                       a35_candidates(seed)),
            "padded": _write_lines(workdir / "padded.txt", a35_padded(seed))}


def determining_system(seed: int, workdir: Path) -> dict:
    from liesym import dsl
    from liesym.jets import dcr_symbols
    from liesym.symmetry import find_symmetries  # noqa: F401

    for text in (REACTION, HEAT):
        dsl.parse_pde(text, dcr_symbols())
    return {"seed": seed}


def regress(seed: int, workdir: Path) -> dict:
    from liesym.algebra import load_class_catalog
    from liesym.catalog import load_catalog

    load_catalog()
    load_class_catalog()
    return {"seed": seed, "workdir": workdir}


SETUPS = {"cli-readme": cli_readme, "determining-system": determining_system,
          "regress": regress}
