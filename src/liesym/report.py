"""Machine-readable reports for the command line.

The structured document has the fixed top-level fields {tool_version,
command, inputs, verdict, certificates, seed} and serializes
deterministically: exact rationals render as num/den strings, keys are
sorted, floats use repr.  Timing is shown on the human side only so that
reports are byte-identical across runs with fixed seeds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional

from . import __version__
from .dsl import render
from .expr import Expr, rat


def _plain(value) -> Any:
    if isinstance(value, Fraction):
        value = rat(value)
    if isinstance(value, Expr):
        return render(value)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Report:
    __slots__ = ("command", "inputs", "verdict", "certificates", "seed",
                 "human_lines")

    def __init__(self, command: str, inputs: Dict[str, Any],
                 verdict: str, certificates: Dict[str, Any],
                 seed: Optional[int] = None):
        self.command = command
        self.inputs = inputs
        self.verdict = verdict
        self.certificates = certificates
        self.seed = seed
        self.human_lines: List[str] = []

    def add(self, line: str):
        self.human_lines.append(line)

    def document(self) -> Dict[str, Any]:
        return {
            "tool_version": __version__,
            "command": self.command,
            "inputs": _plain(self.inputs),
            "verdict": self.verdict,
            "certificates": _plain(self.certificates),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.document(), sort_keys=True, indent=2) + "\n"

    def human(self) -> str:
        head = [f"liesym {self.command}: {self.verdict}"]
        return "\n".join(head + self.human_lines)
