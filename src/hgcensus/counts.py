"""Census columns for one degree: structure counts over all records.

Each equivalence class of records contributes counting terms weighted by
automorphism data: a class with abstract group G and point stabilizer
G' contributes, per type N, |Aut(G,G')| / |Aut(N)| times the summed
conjugacy-class sizes of its members in Hol(N).  The per-type terms are
theorems-integral; any fractional remainder is an engine bug and raises.
The almost-classical and bijective-correspondence columns are
record-level flags folded through the same weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import groups_of_order
from .classify import EquivalenceClass, classify_degree
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    TransitiveClassRecord,
    enumerate_transitive_classes,
)
from .errors import BudgetError, ConsistencyError, SearchBudgetError
from .holomorph import HolomorphContext, build_holomorph
from .iso import IsoSearch
from .table import DEFAULT_TABLE_BUDGET

# cap on distinct invariant point-blocks walked per record before the
# intermediate-lattice search is declared out of budget
DEFAULT_BLOCK_BUDGET = 20_000


@dataclass
class DegreeReportRow:
    """One degree's census row; None marks a cell left unknown."""

    degree: int
    types: Optional[int]
    hgs_total: Optional[int]
    sbracoids_total: Optional[int]
    gal_hgs: Optional[int]
    sbraces: Optional[int]
    ac_hgs: Optional[int]
    ac_sbracoids: Optional[int]
    bc_hgs: Optional[int]
    partial: bool = False

    CELLS = (
        "types",
        "hgs_total",
        "sbracoids_total",
        "gal_hgs",
        "sbraces",
        "ac_hgs",
        "ac_sbracoids",
        "bc_hgs",
    )

    def cells(self) -> tuple[Optional[int], ...]:
        return tuple(getattr(self, name) for name in self.CELLS)

    def validate(self) -> None:
        known = {name: getattr(self, name) for name in self.CELLS}

        def le(a: str, b: str) -> None:
            if known[a] is not None and known[b] is not None and known[a] > known[b]:
                raise ConsistencyError(f"{a}={known[a]} exceeds {b}={known[b]} at degree {self.degree}")

        le("ac_hgs", "bc_hgs")
        le("ac_sbracoids", "sbracoids_total")
        le("sbraces", "sbracoids_total")
        le("gal_hgs", "hgs_total")
        le("ac_hgs", "hgs_total")
        le("bc_hgs", "hgs_total")
        for name, value in known.items():
            if value is not None and value < 0:
                raise ConsistencyError(f"negative cell {name} at degree {self.degree}")


def _class_weight(cls: EquivalenceClass) -> int:
    """|Aut(G, G')| for the class's abstract pair, cached on the class."""
    if cls.aut_marked_order is None:
        t, mask = cls.members[0][1].table_with_stab()
        idx = np.flatnonzero(mask)
        cls.aut_marked_order = int(IsoSearch(t, t, marked1=idx, marked2=idx).run("count"))
    return cls.aut_marked_order


def hgs_count_for_class(cls: EquivalenceClass, galois_only: bool = False) -> int:
    """Structures contributed by one class, summed over types.

    Per type: |Aut(G,G')| / |Aut(N)| times the total conjugacy-class
    size of the class's members in that type's holomorph.  Each
    per-type term must come out an integer.
    """
    weight = _class_weight(cls)
    per_type: dict[str, list] = {}
    for _, rec in cls.members:
        if galois_only and not rec.regular:
            continue
        entry = per_type.setdefault(rec.type_name, [rec.ctx.aut.order, 0])
        entry[1] += rec.class_size
    total = Fraction(0)
    for tname, (aut_n, size_sum) in sorted(per_type.items()):
        term = Fraction(weight * size_sum, aut_n)
        if term.denominator != 1:
            raise ConsistencyError(
                f"non-integral count {term} for class {cls.label} in type {tname}"
            )
        total += term
    return int(total)


def is_almost_classical(record: TransitiveClassRecord) -> bool:
    """True when the subgroup contains every right translation.

    Containment forces the subgroup to factor as right translations
    times the point stabilizer; that factorization is re-verified as a
    consistency check.
    """
    ctx = record.ctx
    right = ctx.right_indices
    ac = bool(np.isin(right, record.indices).all())
    if ac:
        stab = record.indices[ctx.perms[record.indices, 0] == 0]
        if not np.array_equal(np.unique(ctx.table().mul[np.ix_(right, stab)]), record.indices):
            raise ConsistencyError(
                "translation/stabilizer factorization failed on an almost-classical record"
            )
    return ac


def _minimal_block(gens: list[list[int]], n: int, seed: frozenset[int], extra: int) -> frozenset[int]:
    """Smallest invariant block containing seed and extra, via union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = []

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            queue.append((ra, rb))

    anchor = next(iter(seed))
    for x in seed:
        union(anchor, x)
    union(anchor, extra)
    while queue:
        a, b = queue.pop()
        for g in gens:
            union(g[a], g[b])
    root = find(0)
    return frozenset(x for x in range(n) if find(x) == root)


def intermediate_field_count(record: TransitiveClassRecord, block_budget: int = DEFAULT_BLOCK_BUDGET) -> int:
    """Number of subgroups of the record's group containing its stabilizer.

    Equals the number of invariant blocks through point 0: the block of
    0 under any overgroup-of-stabilizer's orbit partition, and
    conversely each block B yields the subgroup of elements sending 0
    into B.  Blocks through 0 form a lattice generated under join by
    the minimal blocks fusing 0 with one other point, so a join-closure
    walk over those atoms finds all of them.
    """
    n = record.ctx.n
    gens = record.ctx.perms[record.gens].tolist()
    zero = frozenset([0])
    atoms = set()
    for x in range(1, n):
        atoms.add(_minimal_block(gens, n, zero, x))
    blocks = {zero} | atoms
    frontier = list(atoms)
    while frontier:
        b = frontier.pop()
        for a in atoms:
            if a <= b:
                continue
            joined = _minimal_block(gens, n, b, next(iter(a - b)))
            if joined not in blocks:
                if len(blocks) >= block_budget:
                    raise SearchBudgetError(
                        "block lattice walk exceeded budget",
                        spent=len(blocks),
                        budget=block_budget,
                    )
                blocks.add(joined)
                frontier.append(joined)
    return len(blocks)


def hopf_subalgebra_count(record: TransitiveClassRecord) -> int:
    """Number of subgroups of the base group normalized by the record.

    A subgroup H counts when conjugation by every generator r of the
    record's group maps the left translations of H into themselves.
    Since r . lambda_h . r^-1 = lambda_{r(h) r(0)^-1}, that is the test
    r(h) r(0)^-1 in H for every h in H.
    """
    ctx = record.ctx
    t = ctx.group.table
    inv = ctx.group.as_table().inv
    member = ctx.base_subgroups
    ok = np.ones(len(member), dtype=bool)
    for r in ctx.perms[record.gens]:
        moved = t[r, inv[r[0]]]
        ok &= (member[:, moved] | ~member).all(axis=1)
    return int(ok.sum())


def bijective_correspondence(
    record: TransitiveClassRecord,
    block_budget: int = DEFAULT_BLOCK_BUDGET,
) -> tuple[bool, int, int]:
    """(counts match?, intermediate field count, Hopf subalgebra count)."""
    fields = intermediate_field_count(record, block_budget)
    hopfs = hopf_subalgebra_count(record)
    return (fields == hopfs, fields, hopfs)


@dataclass
class DegreeCensus:
    """Full per-degree result: the row plus its supporting detail."""

    row: DegreeReportRow
    contexts: list[HolomorphContext]
    records: list[TransitiveClassRecord]
    classes: list[EquivalenceClass]
    # per-record flags, aligned with `records`
    weights: list[Fraction]
    ac_flags: list[Optional[bool]]
    bc_flags: list[Optional[bool]]
    bc_counts: list[Optional[tuple[int, int]]]


def _sum_weighted(records, weights, flags) -> Fraction:
    total = Fraction(0)
    for rec, w, keep in zip(records, weights, flags):
        if keep:
            total += w * rec.class_size
    return total


def _as_int(value: Fraction, what: str, degree: int) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"non-integral {what} {value} at degree {degree}")
    return int(value)


def build_degree_census(
    degree: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    skip_ac: bool = False,
    skip_bc: bool = False,
    block_budget: int = DEFAULT_BLOCK_BUDGET,
) -> DegreeCensus:
    """Run the full pipeline for one degree.

    A holomorph too large for the dense table, or budget exhaustion
    during enumeration, leaves every computed cell unknown except the
    type count; exhaustion during the correspondence checks blanks only
    that column.  Each marks the row partial rather than fail.
    """
    groups = groups_of_order(degree)
    unknown = DegreeReportRow(degree, len(groups), *(None,) * 7, partial=True)
    # |Hol(N)| = n |Aut(N)|: a holomorph whose dense table the enumeration
    # would refuse stops the degree before any holomorph is built
    for g in groups:
        gt = g.as_table()
        if degree * IsoSearch(gt, gt).run("count") > DEFAULT_TABLE_BUDGET:
            return DegreeCensus(unknown, [], [], [], [], [], [], [])
    contexts = [build_holomorph(g) for g in groups]
    records: list[TransitiveClassRecord] = []
    try:
        for ctx in contexts:
            records.extend(enumerate_transitive_classes(ctx, node_budget, time_budget))
    except BudgetError:
        return DegreeCensus(unknown, contexts, [], [], [], [], [], [])

    classes = classify_degree(records)
    weight_of: dict[int, Fraction] = {}
    hgs_total = 0
    gal_total = 0
    for cls in classes:
        hgs_total += hgs_count_for_class(cls)
        if cls.regular:
            gal_total += hgs_count_for_class(cls, galois_only=True)
        w = _class_weight(cls)
        for _, rec in cls.members:
            weight_of[id(rec)] = Fraction(w, rec.ctx.aut.order)
    weights = [weight_of[id(rec)] for rec in records]

    partial = False
    if skip_ac:
        ac_flags: list[Optional[bool]] = [None] * len(records)
        ac_hgs = ac_sbr = None
    else:
        ac_flags = [is_almost_classical(rec) for rec in records]
        ac_hgs = _as_int(_sum_weighted(records, weights, ac_flags), "almost-classical count", degree)
        ac_sbr = sum(1 for f in ac_flags if f)

    bc_flags: list[Optional[bool]] = [None] * len(records)
    bc_counts: list[Optional[tuple[int, int]]] = [None] * len(records)
    if skip_bc:
        bc_hgs = None
    else:
        try:
            for i, rec in enumerate(records):
                ok, fields, hopfs = bijective_correspondence(rec, block_budget=block_budget)
                bc_flags[i] = ok
                bc_counts[i] = (fields, hopfs)
            bc_hgs = _as_int(
                _sum_weighted(records, weights, bc_flags), "correspondence count", degree
            )
        except BudgetError:
            bc_flags = [None] * len(records)
            bc_counts = [None] * len(records)
            bc_hgs = None
            partial = True

    row = DegreeReportRow(
        degree=degree,
        types=len(groups),
        hgs_total=hgs_total,
        sbracoids_total=len(records),
        gal_hgs=gal_total,
        sbraces=sum(1 for rec in records if rec.regular),
        ac_hgs=ac_hgs,
        ac_sbracoids=ac_sbr,
        bc_hgs=bc_hgs,
        partial=partial or skip_ac or skip_bc,
    )
    row.validate()
    return DegreeCensus(row, contexts, records, classes, weights, ac_flags, bc_flags, bc_counts)


__all__ = [
    "DEFAULT_BLOCK_BUDGET",
    "DegreeReportRow",
    "DegreeCensus",
    "hgs_count_for_class",
    "is_almost_classical",
    "intermediate_field_count",
    "hopf_subalgebra_count",
    "bijective_correspondence",
    "build_degree_census",
]
