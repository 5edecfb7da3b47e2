"""Compartmental epidemic models as control systems.

All models share one structure: the state splits into "multiplicative"
compartments w (the populations that drive transmission, e.g. S and I) and
"outlet" compartments z (populations fed by the transmission process, e.g.
R, H, D).  Active intervention enters as a scalar input u in [0, 1] that
scales the transmission term:

    dw/dt = f(w) + g(w) * u
    dz/dt = q(w) + r(z)

u = 0 means no intervention, u = 1 means total isolation of infected
individuals.  Time is measured in days, populations in persons, rates in
1/day.

Each model writes its dynamics once, as source lines in a FormulaTable:
f, the terms the input scales by 1 - u, and the outflow.  g is read off f,
and a table whose f is not affine in a term is refused.  A ModelSpec
binds parameter values to a table and compiles from it the derivative (f
with its terms scaled, then the outflow) and a fused RK4 step that writes
the table's lines at each stage; it reads the linear outflow's Jacobians
off the outflow rows.  safety writes the same f, g and outflow into the
law it generates.  MODELS maps each model kind to its rate class and
table, and build_model(params) reads the kind off the rate class: adding
a model takes one rate class, one table and one catalogue entry.
"""

from __future__ import annotations

import ast
import math
import re
import struct
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, reduce
from itertools import islice
from operator import iadd
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "ModelState",
    "FormulaTable",
    "SirParams",
    "SeirParams",
    "SihrdParams",
    "ModelSpec",
    "MODELS",
    "build_model",
    "steered",
]

# Integration drift may push a compartment a hair below zero; reject anything
# more negative than this fraction of the total population.
_NEGATIVITY_TOL = 1e-9

Matrix = tuple[tuple[float, ...], ...]


def _check_floor(x: Sequence[float]) -> None:
    """Reject a flat state below the population floor, -_NEGATIVITY_TOL
    times the total population (at least one person): drift may leave tiny
    negatives."""
    low = min(x)
    if low < 0.0:
        floor = -_NEGATIVITY_TOL * max(1.0, sum(map(abs, x)))
        if low < floor:
            raise ValueError(f"negative population {low:g} in state (floor {floor:g})")


def _check_finite(x: list[float]) -> None:
    """Reject a flat state holding NaN or an infinity: the law and the
    forecast would answer for it with a rest decision or NaN."""
    if not all(map(math.isfinite, x)):
        raise ValueError(f"state must be finite, got {x}")


_TYPECODES = {"float64": "d", "int64": "q", "bool": "b"}
_PACKED_ROWS = 4096  # rows packed at a time, see ArrayField


class ArrayField:
    """A dataclass field kept as Python numbers and read as a numpy array.

    Setting the field stores keep(values), by default tuple(values); a
    numpy array is taken as its tolist().  With rows=True, values are
    equal-length rows of floats, stored at once, row after row, in a
    stdlib array.array: rows are the bulk of a record, and an array holds
    a float in 8 bytes where a list holds it in 32.  The instance's
    attribute "_" + name holds what was stored.  Reading the field returns
    a read-only numpy array of dtype with the same values, one row per row
    with rows=True, built on the first read, which imports numpy.  That
    read also moves values kept in a tuple into an array.array, which the
    numpy array shares: they stay readable, in a sequence of another
    type, and are held once.  The field has no default.
    """

    def __init__(self, dtype: str, rows: bool = False, keep: Callable = tuple):
        self.dtype, self.typecode, self.rows, self.keep = dtype, _TYPECODES[dtype], rows, keep

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.kept = name, "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:  # a dataclass looking for a default: there is none
            raise AttributeError(self.name)
        view = obj.__dict__.get(self.name)
        if view is None:
            import numpy as np

            kept = obj.__dict__[self.kept]
            if self.rows:
                view = np.frombuffer(kept, self.dtype).reshape(len(obj), -1)
            else:
                flat = obj.__dict__[self.kept] = array(self.typecode, kept)
                view = np.frombuffer(flat, self.dtype)
            view.setflags(write=False)
            obj.__dict__[self.name] = view
        return view

    def __set__(self, obj, values) -> None:
        if hasattr(values, "tolist"):  # a numpy array: its entries as Python numbers
            values = values.tolist()
        if self.rows:
            # struct packs a list of floats about twice as fast as array()
            # converts it; rows are packed a block at a time, so a long
            # record needs no flat copy of itself on the way
            packed, rows = array(self.typecode), iter(values)
            while flat := reduce(iadd, islice(rows, _PACKED_ROWS), []):
                packed.frombytes(struct.pack(f"{len(flat)}{self.typecode}", *flat))
            values = packed
        else:
            values = self.keep(values)
        obj.__dict__[self.kept] = values
        obj.__dict__.pop(self.name, None)


def _floats(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(map(float, values))


@dataclass(frozen=True, eq=False, repr=False)
class ModelState:
    """Partitioned population state: multiplicative block w, outlet block z.

    Entries are persons per compartment.  Labels name each entry of the
    concatenated vector [w; z] and must be unique.  The blocks are kept as
    tuples of Python floats, _w and _z, copied from the values given, so no
    caller can change them; w, z and x ([w; z]) read as read-only float64
    numpy arrays, each built the first time it is read (see ArrayField).
    States compare and hash by their labels and the values of w and z.
    """

    w: Sequence[float] = ArrayField("float64", keep=_floats)
    z: Sequence[float] = ArrayField("float64", keep=_floats)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        size = self.n + self.m
        if not self.n or not self.m:
            raise ValueError("need at least one multiplicative and one outlet compartment")
        if len(labels) != size:
            raise ValueError(f"expected {size} labels, got {len(labels)}")
        if len(set(labels)) != size:
            raise ValueError("compartment labels must be unique")
        _check_floor([*self._w, *self._z])

    def _key(self) -> tuple:
        return self.labels, tuple(self._w), tuple(self._z)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModelState) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ModelState(w={[*self._w]}, z={[*self._z]}, labels={self.labels})"

    @property
    def n(self) -> int:
        return len(self._w)

    @property
    def m(self) -> int:
        return len(self._z)

    @cached_property
    def x(self):
        """Concatenated state vector [w; z], a read-only float64 array."""
        import numpy as np

        x = np.array([*self._w, *self._z])
        x.setflags(write=False)
        return x


class _Rates:
    """Base of the rate classes: every field must be a finite, strictly
    positive number."""

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"parameter {name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class SirParams(_Rates):
    """SIR rates: transmission beta0, recovery gamma (1/day), population N."""

    beta0: float
    gamma: float
    N: float


@dataclass(frozen=True)
class SeirParams(SirParams):
    """SEIR rates: SIR parameters plus inverse latency sigma (1/day)."""

    sigma: float


@dataclass(frozen=True)
class SihrdParams(SirParams):
    """SIHRD rates: SIR parameters plus hospitalization lam, hospital
    recovery nu and death rate mu (all 1/day)."""

    lam: float
    nu: float
    mu: float


# -- formula tables ----------------------------------------------------------


class FormulaTable(NamedTuple):
    """A model's formulas as source lines, the only copy of them.

    w and z name the compartments of each block, params the values a spec
    binds, in that order.  Each entry is a Python expression:
      f           one per w compartment, over w, the parameters and terms;
      outflow     one per z compartment, over the state and the
                  parameters: dz/dt = q(w) + r(z), which holds no u and
                  which the outlet margins of safety read.  It is linear
                  in the state, so a spec reads its Jacobians off it.
    constants and terms are "name = expression" lines, each defining one
    more name: constants over the parameters, computed once per spec;
    terms over w and the parameters.  The input scales each terms entry by
    (1 - u), so f fixes g, which no table writes (see g).  A spec compiles
    the derivative and a fused RK4 step from the table; the step writes the
    terms and the f and outflow rows once per stage.  The parameters
    include the constants.  Generated code refers to every name the table
    defines through local, so a table may use any name but u.  Sizes, names
    and the affine rule are checked when the first spec compiles the table.
    """

    w: tuple[str, ...]
    z: tuple[str, ...]
    params: tuple[str, ...]
    f: tuple[str, ...]
    outflow: tuple[str, ...]
    constants: tuple[str, ...] = ()
    terms: tuple[str, ...] = ()

    @property
    @lru_cache(maxsize=32)
    def g(self) -> tuple[str, ...]:
        """The input's authority, read off f: per w row, the negated
        coefficient c of each term t, written "t" (c = -1), "-t" (c = 1) or
        "{-c!r} * t", joined by " + ", or "0.0" for none.  With every other
        name at 2.0, then at 3.0, the row must rise by c from t = 0 to 1 and
        by 2c to 2, c finite; any other row is refused."""
        g, scopes = [], [dict.fromkeys(self.names, other) for other in (2.0, 3.0)]
        for i, row in enumerate(self.f):
            code, parts = compile(row, f"f[{i}]", "eval"), []
            for term in (line.split("=")[0].strip() for line in self.terms):
                y = [[eval(code, {**at, term: t}) for t in (0.0, 1.0, 2.0)] for at in scopes]
                c, *other = {v for y0, y1, y2 in y for v in (y1 - y0, (y2 - y0) / 2.0)}
                if other or not math.isfinite(c):
                    raise ValueError(f"formula table row f[{i}] = {row!r} is not affine in {term}")
                if c:
                    parts.append({-1.0: term, 1.0: "-" + term}.get(c, f"{-c!r} * {term}"))
            g.append(" + ".join(parts) or "0.0")
        return tuple(g)

    @property
    def names(self) -> tuple[str, ...]:
        """Every name the table defines: compartments, parameters, and the
        left-hand sides of its lines."""
        lines = self.constants + self.terms
        return self.w + self.z + self.params + tuple(s.split("=")[0].strip() for s in lines)

    def local(self, source: str) -> str:
        """source with each name the table defines prefixed by m_, the
        prefix no other name in generated code has."""
        names = self.names
        parts = re.split(r"(\W+)", source)
        return "".join("m_" + part if part in names else part for part in parts)


@lru_cache(maxsize=32)
def steered(table: FormulaTable) -> tuple[str, ...]:
    """The compartments of table the input acts on: each w compartment whose
    g entry is not "0.0", and each z compartment whose outflow row names
    one of those."""
    on_w = [entry != "0.0" for entry in table.g]
    acted = {name for name, on in zip(table.w, on_w) if on}
    on_z = [not acted.isdisjoint(re.findall(r"\w+", row)) for row in table.outflow]
    return tuple(label for label, on in zip(table.w + table.z, on_w + on_z) if on)


def rk4_lines(n: int, slopes: Callable, negated: frozenset[int]) -> list[str]:
    """The body of one classical RK4 step of n states over x, u and dt,
    the only copy of its arithmetic: both generated kernels, the
    per-length kernel of engine.rk4_flat and the fused step of a formula
    table, are formatted from it, so their elementwise operations and bits
    are the same.  slopes(stage, k, flipped) returns the lines that set
    the names in k to the derivative at a stage, given as its entries'
    expressions, or None for x itself, with the entries in flipped
    negated: the slopes a0, a1, ... at x, b at x + half*a, c at x + half*b
    and d at x + dt*c.  The entries in negated have their slopes a, b and
    d stored negated, and c not: their stage lines subtract a and b, and
    their sum of slopes is 2.0 * (c - b) - a - d, where IEEE arithmetic
    defines y - z as y + (-z), so the bits are those of the plain sum.
    With c negated too, (-b) + (-c) would become -(b + c), which differs
    in the sign of an exact zero."""

    def each(expr: str, flipped: str = "") -> list[str]:
        return [(flipped if flipped and i in negated else expr).format(i=i) for i in range(n)]

    lines = ["half = 0.5 * dt", f"[{', '.join(each('x{i}'))}] = x"]
    stages = (
        None,
        each("x{i} + half * a{i}", "x{i} - half * a{i}"),
        each("x{i} + half * b{i}", "x{i} - half * b{i}"),
        each("x{i} + dt * c{i}"),
    )
    for slope, stage, flipped in zip("abcd", stages, (negated, negated, frozenset(), negated)):
        lines += slopes(stage, each(slope + "{i}"), flipped)
    out = each(
        "x{i} + s * (a{i} + 2.0 * (b{i} + c{i}) + d{i})",
        "x{i} + s * (2.0 * (c{i} - b{i}) - a{i} - d{i})",
    )
    return lines + ["s = dt / 6.0", f"return [{', '.join(out)}]"]


def _trimmed(rows: list[str]) -> tuple[list[str], list[str]]:
    """(products, rows): the rows with each operation of +, - or * on
    names and numbers that they hold more than once computed once, as the
    products "p0 = ...", "p1 = ...", innermost first."""
    trees = [ast.parse(row, mode="eval").body for row in rows]
    products: list[str] = []

    def leaf(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) or (
            isinstance(node, ast.Constant) and type(node.value) in (int, float)
        )

    def innermost(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
            and leaf(node.left) and leaf(node.right)
        )

    class Hoist(ast.NodeTransformer):
        def visit(self, node: ast.AST) -> ast.AST:
            name = shared.get(ast.dump(node))
            return ast.Name(name, ast.Load()) if name else self.generic_visit(node)

    while True:
        found: dict[str, list[ast.AST]] = {}
        for node in (node for tree in trees for node in ast.walk(tree) if innermost(node)):
            found.setdefault(ast.dump(node), []).append(node)
        shared = {}
        for key, nodes in found.items():
            if len(nodes) > 1:
                shared[key] = f"p{len(products)}"
                products.append(f"{shared[key]} = {ast.unparse(nodes[0])}")
        if not shared:
            return products, [ast.unparse(tree) for tree in trees]
        trees = [Hoist().visit(tree) for tree in trees]


# bind(values) returns the derivative of ModelSpec, with the parameter
# values bound and the fused RK4 step attached as its rk4.
_MODEL_TEMPLATE = """\
def bind(values):
    [{params}] = values
{constants}

    def derivative_t(x, u):
        [{x}] = x
{terms}
        return [{rows}]

    def rk4(x, u, dt):
{step}

    derivative_t.rk4 = rk4
    return derivative_t
"""


@lru_cache(maxsize=32)
def _binder(table: FormulaTable) -> Callable:
    """Compile the derivative of one table and its fused RK4 step, the
    first time a spec uses it."""
    n, m = len(table.w), len(table.z)
    if not n or not m or (len(table.f), len(table.outflow)) != (n, m):
        raise ValueError("formula table entries do not match its compartments")
    names = table.names
    if len(set(names)) != len(names) or "u" in names or not all(map(str.isidentifier, names)):
        raise ValueError("formula table names must be distinct identifiers other than u")
    table.g  # refuses an f that is not affine in its terms

    def local(entries: Sequence[str]) -> list[str]:
        return list(map(table.local, entries))

    def lines(statements: list[str], indent: str) -> str:
        return "\n".join(indent + s for s in statements)

    # the input scales each term by (1 - u): f of the scaled terms is f + g*u
    parts = [line.partition("=")[::2] for line in local(table.terms)]

    def scaled(by: str) -> list[str]:
        return [f"{name}= ({value.strip()}) * {by}" for name, value in parts]

    terms = scaled("(1.0 - u)")
    x, rows = local(table.w + table.z), local(table.f + table.outflow)

    # the fused step writes the derivative's lines at each stage with
    # 1 - u computed once, as free.  At x itself its terms and rows read
    # x0, x1, ... directly; at b, c and d it sets the state names that a
    # term or a row reads to the stage, then the terms, the products and
    # the rows as the slopes.  Two trims keep its bits.  An operation of
    # +, - or * on names and numbers that the rows hold more than once is
    # computed once per stage, as a product p0, p1, ... (_trimmed): the
    # same operands in the same order give the same value, and these
    # operations raise nothing on floats, so no exception moves earlier; a
    # shared /, ** or call stays inline.  A row -name is stored as name
    # at the stages where rk4_lines takes its slope negated (a, b and d):
    # round to nearest is symmetric under negation, so x + h * (-t) is
    # x - h * t.
    read = set(re.findall(r"\w+", " ".join(terms + rows)))
    at_x = dict(zip(x, (f"x{i}" for i in range(n + m))))
    products, trimmed = _trimmed(rows)
    negated = frozenset(
        i for i, row in enumerate(trimmed) if row[:1] == "-" and row[1:].isidentifier()
    )

    def slopes(stage: list[str] | None, k: list[str], flipped: frozenset[int]) -> list[str]:
        body = scaled("free") + products + [
            f"{ki} = {row[1:] if i in flipped else row}" for i, (ki, row) in enumerate(zip(k, trimmed))
        ]
        if stage is None:
            body = ["".join(at_x.get(w, w) for w in re.split(r"(\W+)", line)) for line in body]
            return (["free = 1.0 - u"] if terms else []) + body
        return [f"{name} = {y}" for name, y in zip(x, stage) if name in read] + body

    source = _MODEL_TEMPLATE.format(
        params=", ".join(local(table.params)),
        constants=lines(local(table.constants), "    "),
        x=", ".join(x),
        terms=lines(terms, "        "),
        rows=", ".join(rows),
        step=lines(rk4_lines(n + m, slopes, negated), "        "),
    )
    namespace: dict = {}
    exec(compile(source, f"<model derivative, {table.w + table.z}>", "exec"), namespace)
    return namespace["bind"]


@dataclass(frozen=True)
class ModelSpec:
    """A concrete compartmental model: its formula table, the values bound
    to the table's params (in order), and the one evaluator compiled from
    the two.  params is the rate object the spec was built from.

    derivative_t(x, u) takes the flat state [w; z] as a plain float
    sequence and returns dx/dt, [f + g*u; outflow], as a list: the
    fixed-step integrator calls it, where numpy call overhead on vectors
    this short would dominate.  Given numpy columns, one entry per sample,
    it returns arrays (a constant entry stays a float).  The outflows are
    linear, so their Jacobians dq_dw (m rows of n) and dr_dz (m by m) are
    constant tuples of tuples, read off the outflow rows of derivative_t
    at the n + m unit states: the value at unit state j is column j.
    derivative_t.rk4(x, u, dt) is one classical RK4 step with u held, which
    writes the table's terms and rows at each of its four stages in place
    of calling derivative_t; it gives the bits of engine.rk4_flat's
    per-length kernel stepping derivative_t, and rk4_flat returns it.  The
    control law that safety generates writes the table's f, g and outflow
    into its own code.
    """

    kind: str
    formulas: FormulaTable = field(repr=False)
    values: tuple[float, ...]
    params: object
    g_tol: float
    n: int = field(init=False, compare=False)
    m: int = field(init=False, compare=False)
    labels: tuple[str, ...] = field(init=False, compare=False)
    derivative_t: Callable[[Sequence[float], float], list[float]] = field(
        init=False, repr=False, compare=False
    )
    dq_dw: Matrix = field(init=False, repr=False, compare=False)
    dr_dz: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table, values = self.formulas, tuple(self.values)
        if len(values) != len(table.params):
            raise ValueError(f"expected {len(table.params)} parameter values, got {len(values)}")
        labels, n = table.w + table.z, len(table.w)
        derivative_t = _binder(table)(values)
        # the outflow is linear: its value at unit state j is column j
        size = len(labels)
        unit = [[float(i == j) for j in range(size)] for i in range(size)]
        rows = list(zip(*(derivative_t(x, 0.0)[n:] for x in unit)))
        for name, value in dict(
            values=values, n=n, m=len(table.z), labels=labels, derivative_t=derivative_t,
            dq_dw=tuple(row[:n] for row in rows), dr_dz=tuple(row[n:] for row in rows),
        ).items():
            object.__setattr__(self, name, value)

    def state(self, values: Sequence[float]) -> ModelState:
        """Build a ModelState from a concatenated [w; z] vector, a sequence
        of numbers or a numpy row; ModelState copies each block into a
        tuple of its own."""
        shape = getattr(values, "shape", None)
        if shape is None:
            shape = (len(values),)
        if shape != (self.n + self.m,):
            raise ValueError(f"expected {self.n + self.m} entries, got {shape}")
        return ModelState(w=values[: self.n], z=values[self.n :], labels=self.labels)

    def flat(self, state: ModelState | list[float]) -> list[float]:
        """The state as the flat [w; z] list the compiled derivative and
        the generated law take: the one check that it fits the model.

        state is a ModelState, or already such a list of n + m floats; a
        list is checked for its length and the population floor that
        ModelState applies, and returned as is, not copied: its readers
        only read it.  A numpy row or a stdlib array is checked and
        returned as its tolist(), the same values as Python floats, whose
        sums raise no warning."""
        if isinstance(state, ModelState):
            if state.n != self.n or state.m != self.m:
                raise ValueError(
                    f"state dimensions ({state.n}, {state.m}) do not match "
                    f"model ({self.n}, {self.m})"
                )
            return [*state._w, *state._z]
        if hasattr(state, "tolist"):
            state = state.tolist()
        if len(state) != self.n + self.m:
            raise ValueError(f"state has {len(state)} entries, model has {self.n + self.m}")
        _check_floor(state)
        return state


# The model catalogue: kind -> (rate class, formula table), the table's
# params being the rate class's fields.  Adding a model takes one rate class,
# one table and one entry, and no builder function: build_model reads the
# kind off the rate class; scenarios read everything else from the table.
MODELS: dict[str, tuple[type, FormulaTable]] = {}


def _register(kind: str, rates: type, **formulas) -> None:
    params = tuple(f.name for f in fields(rates))
    MODELS[kind] = rates, FormulaTable(params=params, **formulas)


def build_model(params) -> ModelSpec:
    """The spec of the catalogue model whose rate class is exactly
    type(params)."""
    for kind, (rates, table) in MODELS.items():
        if type(params) is rates:
            values = tuple(getattr(params, name) for name in table.params)
            return ModelSpec(kind, table, values, params, g_tol=1e-12 * params.beta0)
    raise ValueError(f"no catalogue model has rate class {type(params).__name__}")


# SIR: transmission beta0*S*I/N is scaled by (1 - u); recovery drains I into
# R at rate gamma.
_register(
    "sir", SirParams,
    w=("S", "I"), z=("R",),
    terms=("t = beta0 * S * I / N",),
    f=("-t", "t - gamma * I"),
    outflow=("gamma * I",),
)

# SEIR: new infections enter the exposed pool E and become infectious at rate
# sigma.  The input has no direct effect on the I row, so only S and E admit
# the first-order safety controller.
_register(
    "seir", SeirParams,
    w=("S", "E", "I"), z=("R",),
    terms=("t = beta0 * S * I / N",),
    f=("-t", "t - sigma * E", "sigma * E - gamma * I"),
    outflow=("gamma * I",),
)

# SIHRD: infected individuals leave I at total rate gamma + lam + mu, split
# into hospitalization (lam), direct recovery (gamma) and death (mu); the
# hospitalized recover at rate nu.
_register(
    "sihrd", SihrdParams,
    w=("S", "I"), z=("H", "R", "D"),
    constants=("out = gamma + lam + mu",),
    terms=("t = beta0 * S * I / N",),
    f=("-t", "t - out * I"),
    outflow=("lam * I - nu * H", "gamma * I + nu * H", "mu * I"),
)
