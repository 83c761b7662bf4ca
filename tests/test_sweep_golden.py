"""The bound sweep of the symmetry search must reproduce
tests/golden/find-symmetries-sweep.json byte for byte: the rendered
generator basis and the determining matrix's rows, columns, nonzeros and
rank for a reaction PDE (nullity 2) at bounds 2, 4, 6, 8 and the heat
equation (nullity b+7) at bounds 2 to 6.

Regenerate the document (only when the search is meant to change) with

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

import json
from pathlib import Path

from liesym import dsl
from liesym.jets import dcr_symbols
from liesym.linalg import nullspace
from liesym.pde import EvolutionPDE
from liesym.symmetry import _ansatz_basis, _determining_matrix, find_symmetries

GOLDEN = Path(__file__).resolve().parent / "golden" / "find-symmetries-sweep.json"
REACTION = "u_t = D(u^2,x,2)+D(u^2,x)+u^3"
HEAT = "u_t = D(u,x,2)"
SWEEP = [(REACTION, b) for b in (2, 4, 6, 8)] + [(HEAT, b) for b in range(2, 7)]


def sweep_document() -> str:
    runs = []
    for text, bound in SWEEP:
        table = dcr_symbols()
        pde = EvolutionPDE(rhs=dsl.parse_pde(text, table), table=table)
        basis = _ansatz_basis(bound)
        matrix = _determining_matrix(pde, basis)
        found = find_symmetries(pde, bound=bound)
        runs.append({
            "pde": text,
            "bound": bound,
            "generators": [dsl.render_field(f) for f in found.fields],
            "rows": len(matrix),
            "cols": len(basis),
            "nnz": sum(1 for r in matrix for v in r if v),
            "rank": len(basis) - len(nullspace(matrix, len(basis))),
        })
    return json.dumps(runs, indent=2) + "\n"


def test_sweep_matches_golden():
    assert sweep_document() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(sweep_document())
