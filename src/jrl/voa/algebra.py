"""Free-field mode algebras and their Fock modules.

Three algebra kinds are supported:

heisenberg       rank-r bosonic modes, [a^i(m), a^j(n)] = m d_{ij} d_{m+n,0},
                 charge sectors alpha in R^r, a^i(0) acts by alpha_i.
real_fermion     one real fermion, {b(m), b(n)} = d_{m+n,-1}; mode labels are
                 integers, b(n) kills the vacuum for n >= 0, the field has
                 weight 1/2 so the creator b(-n) carries level n - 1/2.
complex_fermion  a pair b, c with {b(m), c(n)} = d_{m+n,-1}; charges +1/-1.
                 Two gradings: "natural" gives both species weight 1/2;
                 "charge_shifted" regrades by half the charge so b carries
                 level n and c carries level n - 1 (c(-1) sits at level 0,
                 giving the two-dimensional bottom layer).

Basis states are canonical products: boson creators as a sorted multiset of
(flavor, level) pairs, fermion creators as sorted tuples of distinct labels
with the b block left of the c block.  All fermionic signs are relative to
that ordering.

The creators of a level-cap module are described once, by the slot table
of `creator_slots`: one slot per (species, flavor, label), with its level,
in canonical order.  Three readers share it: `enumerate_basis` is one
recursion over the slots, `FockArrays` packs states by them, and
`_round_modes` takes the largest labels of its mode sums from them.

A module also carries `FockArrays`: an exact integer key per state, built
from the occupations of its creator slots.  Fermion occupations are bits,
so the key of a fermionic state is its bit string; boson occupations are
packed mixed-radix.  A single mode acts on a vector of state indices by
integer arithmetic on the keys plus `np.searchsorted` (the usual
exact-diagonalisation encoding, H. Q. Lin, Phys. Rev. B 42, 6561 (1990)).
That action, `mode_image`, is the only one: the traces use it on index
arrays, and `apply_terms`, `apply_mode` and `zero_mode_operator` map an
element's states to indices, chain it over mode monomials and convert
back to an `AlgebraElement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import CapTooLarge, DomainViolation, UnsupportedInsertion

MAX_LEVEL_CAP = 16
_MAX_ENUM_CAP = 40.0
STATE_BUDGET = 200_000


@dataclass(frozen=True)
class AlgebraSpec:
    """Which mode algebra, its rank, current coefficients, and grading."""

    kind: str
    rank: int = 1
    current: tuple[float, ...] | None = None
    grading: str = "natural"

    def __post_init__(self):
        if self.kind not in ("heisenberg", "real_fermion", "complex_fermion"):
            raise DomainViolation(f"unknown algebra kind {self.kind!r}")
        if self.kind != "heisenberg":
            if self.rank != 1:
                raise DomainViolation("fermionic algebras have rank 1")
            if self.current is not None:
                raise DomainViolation("current coefficients apply to heisenberg only")
        if self.rank < 1:
            raise DomainViolation("rank must be positive")
        if self.grading not in ("natural", "charge_shifted"):
            raise DomainViolation(f"unknown grading {self.grading!r}")
        if self.grading == "charge_shifted" and self.kind != "complex_fermion":
            raise DomainViolation("charge_shifted grading applies to the complex fermion")

    @property
    def central_charge(self) -> float:
        if self.kind == "heisenberg":
            return float(self.rank)
        if self.kind == "real_fermion":
            return 0.5
        return 1.0

    def current_coefficients(self) -> tuple[float, ...]:
        if self.kind != "heisenberg":
            raise DomainViolation("explicit current coefficients exist for heisenberg only")
        if self.current is None:
            return tuple(1.0 if i == 0 else 0.0 for i in range(self.rank))
        if len(self.current) != self.rank:
            raise DomainViolation("current coefficient length must match rank")
        return self.current

    def species_weight(self, species: str) -> float:
        """Conformal weight of the generating field of the given species."""
        if species == "a":
            return 1.0
        if species == "b":
            return 1.0 if self.grading == "charge_shifted" else 0.5
        if species == "c":
            return 0.0 if self.grading == "charge_shifted" else 0.5
        raise DomainViolation(f"unknown species {species!r}")


@dataclass(frozen=True, order=True)
class BasisState:
    """Canonical creator monomial applied to the sector ground state."""

    boson: tuple[tuple[int, int], ...] = ()
    ferm_b: tuple[int, ...] = ()
    ferm_c: tuple[int, ...] = ()

    @property
    def parity(self) -> int:
        return (len(self.ferm_b) + len(self.ferm_c)) % 2


VACUUM = BasisState()


def state_level(spec: AlgebraSpec, state: BasisState) -> float:
    """Oscillator level above the sector ground state."""
    lvl = float(sum(l for _, l in state.boson))
    wb = spec.species_weight("b") if spec.kind != "heisenberg" else 0.0
    if spec.kind == "real_fermion":
        lvl += sum(n - 1.0 + wb for n in state.ferm_b)
    elif spec.kind == "complex_fermion":
        wc = spec.species_weight("c")
        lvl += sum(n - 1.0 + wb for n in state.ferm_b)
        lvl += sum(n - 1.0 + wc for n in state.ferm_c)
    return lvl


def creator_slots(spec: AlgebraSpec, cap: float) -> list[tuple[str, int, int, float]]:
    """(species, flavor, label, level) of every creator of level <= cap, in
    the order of a canonical BasisState: bosons by (flavor, label), then b
    labels, then c labels.  The boson a^f(-l) sits at level l; label j of a
    fermion of weight w0 at level j - 1 + w0.  This is the one description
    of a module's creators."""
    if spec.kind == "heisenberg":
        return [("a", f, l, float(l)) for f in range(spec.rank) for l in range(1, int(cap) + 1)]
    slots = []
    for species in ("b", "c") if spec.kind == "complex_fermion" else ("b",):
        w0 = spec.species_weight(species)
        j = 1
        while j - 1.0 + w0 <= cap:
            slots.append((species, 0, j, j - 1.0 + w0))
            j += 1
    return slots


def state_charge(spec: AlgebraSpec, sector: tuple[float, ...], state: BasisState) -> float:
    """Eigenvalue of the distinguished current zero mode J(0)."""
    if spec.kind == "heisenberg":
        beta = spec.current_coefficients()
        return sum(b * a for b, a in zip(beta, sector))
    if spec.kind == "complex_fermion":
        return float(len(state.ferm_b) - len(state.ferm_c))
    return 0.0


def sector_weight(spec: AlgebraSpec, sector: tuple[float, ...]) -> float:
    if spec.kind == "heisenberg":
        return 0.5 * sum(a * a for a in sector)
    return 0.0


class AlgebraElement:
    """Finite linear combination of basis states."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[BasisState, complex] | None = None):
        self.terms: dict[BasisState, complex] = dict(terms) if terms else {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    @classmethod
    def from_state(cls, state: BasisState, coeff: complex = 1.0) -> "AlgebraElement":
        return cls({state: complex(coeff)})

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    def add_term(self, state: BasisState, coeff: complex) -> None:
        c = self.terms.get(state, 0.0) + coeff
        if c == 0.0:
            self.terms.pop(state, None)
        else:
            self.terms[state] = c

    def scaled(self, c: complex) -> "AlgebraElement":
        if c == 0:
            return AlgebraElement()
        return AlgebraElement({s: c * v for s, v in self.terms.items()})

    def plus(self, other: "AlgebraElement") -> "AlgebraElement":
        out = AlgebraElement(self.terms)
        for s, v in other.terms.items():
            out.add_term(s, v)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def key(self) -> tuple:
        """The terms as a hashable tuple, in their order.

        Equal keys give bit-identical mode actions: apply_terms sums the
        images of the terms in this order."""
        return tuple(self.terms.items())

    def norm1(self) -> float:
        return sum(abs(v) for v in self.terms.values())


@dataclass(frozen=True)
class ModeOp:
    """Single mode a^f(n), b(n), or c(n)."""

    species: str
    n: int
    flavor: int = 0


@dataclass(frozen=True)
class ModuleSpace:
    """Ordered Fock basis of a sector, truncated at oscillator level `cap`."""

    spec: AlgebraSpec
    sector: tuple[float, ...]
    cap: float
    states: tuple[BasisState, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def level(self, state: BasisState) -> float:
        return state_level(self.spec, state)

    @cached_property
    def arrays(self) -> "FockArrays":
        """Array form of the basis, built on first use."""
        return FockArrays(self)

    @cached_property
    def index(self) -> dict[BasisState, int]:
        """Position of each basis state in `states`."""
        return {s: i for i, s in enumerate(self.states)}


# keys stay below this bound, so that integer arithmetic on them is exact
_KEY_LIMIT = 1 << 62


def _left_parity(code: np.ndarray) -> np.ndarray:
    """Bit k of the result is the parity of the set bits of code below k.

    Shifts and xors on uint64 only, so that no numpy 2 popcount is needed.
    """
    x = code.astype(np.uint64) << np.uint64(1)
    for k in (1, 2, 4, 8, 16, 32):
        x ^= x << np.uint64(k)
    return x


class FockArrays:
    """Integer-encoded basis of a module.

    A creator slot is one (species, flavor, label).  The key of a state
    packs its slot occupations mixed-radix: a fermion slot has radix 2, so
    fermionic keys are bit strings, and a boson slot of level l has radix
    floor(cap / l) + 1.  That product overflows 64 bits for large modules
    (about 2^75 for rank 2 at level 22), so the slots are split into
    consecutive groups whose packed code fits next to a state count.  The
    key over groups 0..g is the rank of the key over groups 0..g-1 among
    the module's keys, times the radix of group g, plus the code of group
    g.  Most modules need one group, whose code is the key.  Every key
    stays below 2^62, and the final key is injective on the basis.
    `level`, `charge` and `parity` are per-state arrays in module order.
    """

    def __init__(self, module: ModuleSpace):
        spec, cap, dim = module.spec, module.cap, module.dim
        slots = creator_slots(spec, cap)
        self.slot_index = {(x, f, l): s for s, (x, f, l, _) in enumerate(slots)}
        self.slot_level = slot_level = [lvl for *_, lvl in slots]
        self.slot_radix = [int(cap // lvl) + 1 if x == "a" else 2 for x, _, _, lvl in slots]

        # split the slots into groups whose packed code fits next to a rank
        limit = _KEY_LIMIT // (dim + 1)
        self.group: list[int] = []
        self.stride: list[int] = []
        self.radix: list[int] = [1]
        for r in self.slot_radix:
            if self.radix[-1] * r > limit:
                self.radix.append(1)
            self.group.append(len(self.radix) - 1)
            self.stride.append(self.radix[-1])
            self.radix[-1] *= r

        # per-state codes and levels; the slot lookups are keyed by what
        # the states already hold, so the loop allocates no tuples
        boson_slot = {(f, l): s for (x, f, l), s in self.slot_index.items() if x == "a"}
        b_slot = {l: s for (x, _, l), s in self.slot_index.items() if x == "b"}
        c_slot = {l: s for (x, _, l), s in self.slot_index.items() if x == "c"}
        codes = [[0] * dim for _ in self.radix]
        level = [0.0] * dim
        nb = [0] * dim
        nc = [0] * dim
        for i, st in enumerate(module.states):
            nb[i], nc[i] = len(st.ferm_b), len(st.ferm_c)
            occupied = [boson_slot[p] for p in st.boson] + [b_slot[j] for j in st.ferm_b]
            for slot in occupied + [c_slot[j] for j in st.ferm_c]:
                codes[self.group[slot]][i] += self.stride[slot]
                level[i] += slot_level[slot]
        self.level = np.array(level)
        if spec.kind == "complex_fermion":
            self.charge = np.array(nb, dtype=float) - np.array(nc, dtype=float)
        else:
            self.charge = np.full(dim, state_charge(spec, module.sector, VACUUM))
        self.parity = (np.array(nb) + np.array(nc)) % 2

        self.code: list[np.ndarray] = []
        self.prefix: list[np.ndarray | None] = []
        self.sorted_keys: list[np.ndarray] = []
        rank = None
        for code, r in zip(codes, self.radix):
            code = np.array(code, dtype=np.int64)
            key = code if rank is None else rank * r + code
            self.code.append(code)
            self.prefix.append(rank)
            # sorted distinct keys; np.unique would import numpy.ma, and
            # one argsort serves both this and the final index lookup
            order = np.argsort(key)
            srt = key[order]
            srt = srt[np.concatenate(([True], srt[1:] != srt[:-1]))]
            self.sorted_keys.append(srt)
            rank = np.searchsorted(srt, key)
        self.key = key
        self.order = order
        if spec.kind != "heisenberg":
            # bit k of left_odd[g]: the parity of the fermions left of bit k
            # of group g, groups before g included
            self.left_odd: list[np.ndarray] = []
            carry = np.zeros(dim, dtype=np.uint64)
            for code in self.code:
                lp = _left_parity(code)
                self.left_odd.append((lp ^ carry).view(np.int64))
                # codes stay below 2^62, so bit 63 is the parity of the
                # whole group; carry turns all ones where it is odd
                carry ^= np.uint64(0) - (lp >> np.uint64(63))

    def occupation(self, idx: np.ndarray, s: int) -> np.ndarray:
        """Occupation of slot s in the states idx."""
        return self.code[self.group[s]][idx] // self.stride[s] % self.slot_radix[s]

    def sign(self, idx: np.ndarray, s: int) -> np.ndarray:
        """(-1)^(fermions left of slot s) in the states idx: the sign of
        moving a fermion creator or annihilator past them to slot s."""
        bit = self.stride[s].bit_length() - 1
        return 1 - 2 * ((self.left_odd[self.group[s]][idx] >> bit) & 1)

    def locate(self, idx: np.ndarray, s: int, step: int) -> np.ndarray:
        """Indices of the states idx with the occupation of slot s moved by
        step.  Every moved state must be a basis state of the module."""
        g = self.group[s]
        key = self.code[g][idx] + step * self.stride[s]
        if g:
            key += self.prefix[g][idx] * self.radix[g]
        rank = np.searchsorted(self.sorted_keys[g], key)
        for h in range(g + 1, len(self.radix)):
            key = rank * self.radix[h] + self.code[h][idx]
            rank = np.searchsorted(self.sorted_keys[h], key)
        return self.order[rank]


def enumerate_basis(
    spec: AlgebraSpec,
    sector: tuple[float, ...] = (),
    cap: float = 8.0,
) -> ModuleSpace:
    """All creator monomials with oscillator level <= cap, sorted by
    (level, state).  Raises CapTooLarge when the cap exceeds the
    enumeration limit or the state count exceeds STATE_BUDGET."""
    if cap < 0:
        raise DomainViolation("level cap must be nonnegative")
    if cap > _MAX_ENUM_CAP:
        raise CapTooLarge(f"level cap {cap} exceeds enumeration limit {_MAX_ENUM_CAP}")
    sector = tuple(sector or ())
    if spec.kind == "heisenberg":
        if len(sector) != spec.rank:
            raise DomainViolation("sector length must match rank")
    elif sector:
        # the NS-type module is unique; no continuous charge label
        raise DomainViolation("fermionic modules carry no sector label")

    slots = creator_slots(spec, cap)
    level = [lvl for *_, lvl in slots]
    # each creator joins one field of BasisState: boson pairs, b or c labels
    part = ["abc".index(x) for x, *_ in slots]
    item = [(f, l) if x == "a" else l for x, f, l, _ in slots]
    # bosons repeat a slot, fermions take each at most once
    step = 0 if spec.kind == "heisenberg" else 1
    # each slot sequence is a state, walked depth first on a stack: a
    # recursive closure would keep `found` alive in a reference cycle until
    # the next collection.  A child shares with its parent the fields its
    # slot leaves alone, so states with equal b labels share one tuple.
    found: list[tuple[float, BasisState]] = []
    stack = [(0, 0.0, ((), (), ()))]
    while stack:
        start, total, fields = stack.pop()
        found.append((total, BasisState(*fields)))
        if len(found) > STATE_BUDGET:
            raise CapTooLarge("state budget exceeded")
        for s in range(start, len(slots)):
            lvl = total + level[s]
            if lvl <= cap:
                grown = list(fields)
                grown[part[s]] += (item[s],)
                stack.append((s + step, lvl, grown))
    states = tuple(st for _, st in sorted(found))
    return ModuleSpace(spec=spec, sector=sector, cap=float(cap), states=states)


def _check_mode(op: ModeOp, spec: AlgebraSpec) -> None:
    if op.species == "a":
        if spec.kind != "heisenberg":
            raise UnsupportedInsertion("bosonic mode on a fermionic module")
        if not 0 <= op.flavor < spec.rank:
            raise DomainViolation("flavor out of range")
    elif spec.kind == "heisenberg":
        raise UnsupportedInsertion("fermionic mode on a bosonic module")
    elif op.species == "c" and spec.kind != "complex_fermion":
        raise UnsupportedInsertion("c modes exist on the complex fermion only")


def mode_image(
    op: ModeOp, module: ModuleSpace, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Images of the basis states idx under one mode, as (target, coeff).

    State idx[i] maps to coeff[i] times state target[i].  Where the image
    vanishes or leaves the level cap, coeff is 0 and target is -1.  The
    coefficient is the fermion sign, the boson multiplicity times the mode
    label, or the sector charge for a boson zero mode.
    """
    spec = module.spec
    _check_mode(op, spec)
    arr = module.arrays
    target = np.full(len(idx), -1, dtype=np.intp)
    coeff = np.zeros(len(idx))
    if op.species == "a" and op.n == 0:
        if module.sector[op.flavor]:
            target[:] = idx
            coeff[:] = module.sector[op.flavor]
        return target, coeff

    create = op.n < 0
    if op.species == "a":
        slot = ("a", op.flavor, abs(op.n))
    elif create:
        slot = (op.species, 0, -op.n)
    else:
        # b(n) and c(n) with n >= 0 remove the partner label n + 1
        partner = "b" if spec.kind == "real_fermion" else {"b": "c", "c": "b"}[op.species]
        slot = (partner, 0, op.n + 1)
    s = arr.slot_index.get(slot)
    if s is None:
        return target, coeff
    occ = arr.occupation(idx, s)
    fermion = spec.kind != "heisenberg"
    if create:
        valid = arr.level[idx] + arr.slot_level[s] <= module.cap
        if fermion:
            valid &= occ == 0
    else:
        valid = occ > 0
    hit = np.flatnonzero(valid)
    src = idx[hit]
    target[hit] = arr.locate(src, s, 1 if create else -1)
    if fermion:
        coeff[hit] = arr.sign(src, s)
    else:
        coeff[hit] = 1.0 if create else occ[hit] * float(op.n)
    return target, coeff


def _general_binom(x: float, k: int) -> float:
    """Binomial coefficient C(x, k) for real x, integer k >= 0."""
    acc = 1.0
    for i in range(k):
        acc *= (x - i) / (i + 1)
    return acc


Monomials = list[tuple[complex, tuple[ModeOp, ...]]]


def _round_modes(
    module: ModuleSpace, state: BasisState, coeff: complex
) -> Callable[[int], Monomials]:
    """The round modes coeff * state(n) as a function of the integer n,
    which returns mode monomials (coeff, modes), modes[0] acting first.

    This is the one place a state's shape is read, once per call rather
    than once per n.  Supported shapes: the vacuum (1(n) = delta_{n,-1}),
    single-oscillator states X(-j)vac, boson pairs a^i(-1)a^j(-1)vac, and
    the fermion bilinear b(-1)c(-1)vac.  From Y(X(-j)vac, z) =
    (1/(j-1)!) d_z^{j-1} Y(X, z),

        (X(-j)vac)(n) = (-1)^{j-1} C(n, j-1) X(n - j + 1).

    In the quadratic shapes creators (negative labels) act last; the
    bilinear's b(k)c(m) with k >= 0 > m is normal-ordered as -c(m)b(k).
    Any other shape raises UnsupportedInsertion, and a mode foreign to the
    module raises here too.
    """
    spec = module.spec
    if state == VACUUM:
        return lambda n: [(coeff, ())] if n == -1 else []

    def top(species: str) -> int:
        """The largest label of the module's creators of a species, 0 if none."""
        return max((l for x, _, l, _ in creator_slots(spec, module.cap) if x == species), default=0)

    nosc = len(state.boson) + len(state.ferm_b) + len(state.ferm_c)
    if nosc == 1:
        if state.boson:
            (f, j), species = state.boson[0], "a"
        elif state.ferm_b:
            f, j, species = 0, state.ferm_b[0], "b"
        else:
            f, j, species = 0, state.ferm_c[0], "c"
        _check_mode(ModeOp(species, 0, f), spec)
        sign = (-1.0) ** (j - 1)

        def single(n: int) -> Monomials:
            c = sign * _general_binom(n, j - 1)
            return [(coeff * c, (ModeOp(species, n - j + 1, f),))] if c else []

        return single

    if nosc == 2 and len(state.boson) == 2 and all(l == 1 for _, l in state.boson):
        (f1, _), (f2, _) = state.boson
        _check_mode(ModeOp("a", 0, f1), spec)
        _check_mode(ModeOp("a", 0, f2), spec)
        top_a = top("a")

        def pair(n: int) -> Monomials:
            # the two labels add up to n - 1; a label past the top slot
            # addresses no slot of the module, and a(0) is the sector scalar
            terms = []
            for k in range(max(-top_a, n - 1 - top_a), min(top_a, n - 1 + top_a) + 1):
                op1, op2 = ModeOp("a", k, f1), ModeOp("a", n - 1 - k, f2)
                terms.append((coeff, (op2, op1) if k < 0 else (op1, op2)))
            return terms

        return pair

    if nosc == 2 and spec.kind == "complex_fermion" and state.ferm_b == state.ferm_c == (1,):
        top_b, top_c = top("b"), top("c")

        def bilinear(n: int) -> Monomials:
            # b(k) touches b label -k or c label k + 1, c(n - 1 - k) touches
            # c label k + 1 - n or b label n - k: both must be slots
            terms = []
            for k in range(max(-top_b, n - top_b), min(top_c - 1, n - 1 + top_c) + 1):
                opb, opc = ModeOp("b", k), ModeOp("c", n - 1 - k)
                if k >= 0 and opc.n < 0:
                    terms.append((-coeff, (opb, opc)))
                else:
                    terms.append((coeff, (opc, opb)))
            return terms

        return bilinear

    raise UnsupportedInsertion(f"zero mode of state {state} is outside the supported families")


def zero_mode_terms(module: ModuleSpace, v: AlgebraElement, lam: float = 0) -> Monomials:
    """Lattice-shifted zero mode o_lam(v) = v(wt(v) - 1 + lam) as a sum of
    mode monomials coeff * modes, modes[0] acting first.

    o_lam(v) lowers the level by lam.  lam may be a half-integer; a
    component of v contributes only where wt - 1 + lam is an integer, so for
    integer lam the components of non-integer weight give zero.  The
    monomials of each component are its `_round_modes`.
    """
    spec = module.spec
    terms: Monomials = []
    for state, coeff in sorted(v.terms.items()):
        n = state_level(spec, state) - 1 + lam
        if abs(n - round(n)) <= 1e-12:
            terms += _round_modes(module, state, coeff)(round(n))
    return terms


def _indices(module: ModuleSpace, x: AlgebraElement) -> np.ndarray:
    """Module indices of the states of x, in its term order."""
    index = module.index
    try:
        return np.array([index[s] for s in x.terms], dtype=np.intp)
    except KeyError as exc:
        raise DomainViolation(
            f"state {exc.args[0]} is not a basis state of the level-{module.cap:g} module"
        ) from None


def apply_terms(module: ModuleSpace, terms: Monomials, x: AlgebraElement) -> AlgebraElement:
    """The sum of coeff * modes . x over mode monomials (coeff, modes),
    modes[0] acting first, each monomial chained with `mode_image` over
    the module indices of x.  A state of x outside the module raises
    DomainViolation.

    A single mode maps distinct states to distinct states, so a chain
    never merges terms.  The coefficients are multiplied one mode at a
    time and the images added in the order of the monomials, then of the
    terms of x, so that equal inputs give bit-identical elements."""
    idx = _indices(module, x)
    start = list(x.terms.values())
    acc: dict[int, complex] = {}
    for coeff, modes in terms:
        cur, vals = idx, start
        for op in modes:
            target, c = mode_image(op, module, cur)
            hit = c.nonzero()[0]
            cur = target[hit]
            vals = [vals[i] * f for i, f in zip(hit.tolist(), c[hit].tolist())]
            if not vals:
                break
        for i, v in zip(cur.tolist(), vals):
            total = acc.get(i, 0.0) + coeff * v
            if total == 0.0:
                acc.pop(i, None)
            else:
                acc[i] = total
    return AlgebraElement({module.states[i]: c for i, c in acc.items()})


def apply_mode(op: ModeOp, x: AlgebraElement, module: ModuleSpace) -> AlgebraElement:
    """Left action of a single mode on an element; image states above
    module.cap are dropped."""
    return apply_terms(module, [(1.0, (op,))], x)


def zero_mode_operator(
    module: ModuleSpace, v: AlgebraElement, lam: float = 0
) -> Callable[[AlgebraElement], AlgebraElement]:
    """o_lam(v) as an operator on module elements: the monomials of
    zero_mode_terms, applied with apply_terms."""
    terms = zero_mode_terms(module, v, lam)
    return lambda x: apply_terms(module, terms, x)
