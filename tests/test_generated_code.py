"""The code the library generates, pinned kernel by kernel.

The fused RK4 step of each catalogue table does a fixed number of float
operations: its two trims (a shared product computed once per stage, and
the S row -t stored unnegated at three of the four stages) take SIR from
65 to 58, SEIR from 89 to 78 and SIHRD from 107 to 100, and a change that
undoes one shows here.  Every other kernel generated for the catalogue
tables keeps its source: generated_sources.json holds the sha256 of the
model derivative's source (the bind function without its fused step), of
the per-length RK4 kernel, of the law kernel for each single constraint
and for all of them in both orders, and of the state check.  Regenerate (only when one of them
changes on purpose) with ``PYTHONPATH=src python tests/test_generated_code.py``.
"""

import builtins
import dis
import hashlib
import json
import sys
from pathlib import Path

import pytest

from episafe import engine, models, safety
from episafe.models import MODELS
from episafe.safety import MULTIPLICATIVE, OUTLET

PINNED = Path(__file__).with_name("generated_sources.json")

# the float operations of the fused step: BINARY_OP from CPython 3.11 on,
# one opcode per operator before
ARITHMETIC = {
    "BINARY_OP", "BINARY_ADD", "BINARY_SUBTRACT", "BINARY_MULTIPLY", "BINARY_TRUE_DIVIDE",
    "UNARY_NEGATIVE",
}


def generated_sources() -> dict[str, str]:
    """Kernel name -> sha256 of its source, for every kernel but the fused
    step generated for the catalogue tables, each compiled anew."""
    sources = {}

    def recording(source, filename, mode):
        if filename.startswith("<"):
            sources[filename] = source
        return builtins.compile(source, filename, mode)

    with pytest.MonkeyPatch.context() as patch:
        for module in (models, engine, safety):
            patch.setattr(module, "compile", recording, raising=False)
        for _, table in MODELS.values():
            size = len(table.w + table.z)
            models._binder.__wrapped__(table)
            engine._rk4_kernel.__wrapped__(size)
            safety._check.__wrapped__(size)
            single = [(MULTIPLICATIVE, j) for j in range(len(table.w))]
            single += [(OUTLET, j) for j in range(len(table.z))]
            for shape in [[s] for s in single] + [single, single[::-1]]:
                safety._law_factory.__wrapped__(table, tuple(shape))
    digests = {}
    for name, source in sources.items():
        if name.startswith("<model derivative"):
            head, _, step = source.partition("    def rk4(x, u, dt):\n")
            source = head + step[step.index("    derivative_t.rk4 = rk4\n"):]
        digests[name] = hashlib.sha256(source.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("kind, count", [("sir", 58), ("seir", 78), ("sihrd", 100)])
def test_fused_step_float_operations(kind, count):
    table = MODELS[kind][1]
    step = models._binder(table)([1.0] * len(table.params)).rk4
    assert sum(op.opname in ARITHMETIC for op in dis.get_instructions(step)) == count


def test_other_kernels_keep_their_source():
    got, want = generated_sources(), json.loads(PINNED.read_text())
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    PINNED.write_text(json.dumps(generated_sources(), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {PINNED}\n")
