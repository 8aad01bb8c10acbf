"""Census columns for one degree: structure counts over all records.

Each equivalence class of records contributes counting terms from
automorphism data: a member of a class with abstract group G and point
stabilizer G' adds |Aut(G,G')| / |N_A(G)| structures, an integer.  That
is Byott's |Aut(G,G')| / |Aut(N)| times the member's conjugacy-class size
in Hol(N), since class size times |N_A(G)| is |Aut(N)|; the divisibility
certificate and that class-size identity are checked for every member.
The almost-classical and bijective-correspondence columns are
record-level flags folded through the same terms.  Work that depends on
the class alone is done once per class: the weight, counted from the
leader's search plan that classify kept, and the intermediate field count,
walked on the leader's block lattice.  The Hopf subalgebra count depends
on the type N, so it stays per record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import automorphism_order, groups_of_order
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
from .perm import orbit_labels
from .table import check_budget

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
    """|Aut(G, G')| for the class's abstract pair, cached on the class;
    counted from the leader's plan classify left on the class, if any,
    which it then drops.  The chain count is seeded with the leader's
    N_A(G): conjugation by an automorphism of N that normalizes G is an
    automorphism of G fixing G' = Stab_G(0), so its orbits lie inside
    those the count needs."""
    if cls.aut_marked_order is None:
        rec = cls.members[0][1]
        stab = rec.stab_positions
        source = cls._plan or rec.side
        search = IsoSearch(source, rec.side, stab, stab, seeds=rec.aut_normalizer)
        cls.aut_marked_order = int(search.run("count"))
        cls._plan = None
    return cls.aut_marked_order


def _member_term(cls: EquivalenceClass, rec: TransitiveClassRecord) -> int:
    """Structures one member adds: |Aut(G,G')| / |N_A(G)|."""
    weight = _class_weight(cls)
    normalizer = len(rec.aut_normalizer)
    # certificate: N_A(G) acts faithfully on G by conjugation and fixes
    # G', so it embeds in Aut(G, G')
    if weight % normalizer:
        raise ConsistencyError(
            f"class {cls.label}: |N_A(G)| = {normalizer} "
            f"does not divide |Aut(G, G')| = {weight} in type {rec.type_name}"
        )
    # orbit-stabilizer in Hol(N), so the term equals Byott's
    # |Aut(G,G')| / |Aut(N)| times the conjugacy-class size
    if rec.class_size * normalizer != rec.ctx.aut.order:
        raise ConsistencyError(
            f"class {cls.label}: class size {rec.class_size} times |N_A(G)| = "
            f"{normalizer} is not |Aut(N)| = {rec.ctx.aut.order} in type {rec.type_name}"
        )
    return weight // normalizer


def hgs_count_for_class(cls: EquivalenceClass, galois_only: bool = False) -> int:
    """Structures contributed by one class: its members' terms, over the
    regular members only with `galois_only`."""
    return sum(_member_term(cls, rec) for _, rec in cls.members if rec.regular or not galois_only)


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
        stab = record.indices[record.stab_positions]
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


def _proved_aut_normalizer(record: TransitiveClassRecord) -> np.ndarray:
    """Rows of `ctx.perms` for the record's N_A(G), each proved first: it
    fixes 0 and conjugates every generator of G into G.  Raises
    ConsistencyError otherwise."""
    ctx = record.ctx
    T, norm = ctx.table(), record.aut_normalizer
    member = np.zeros(T.order, dtype=bool)
    member[record.indices] = True
    gens = np.array(record.gens, dtype=np.int64)
    if not ((ctx.perms[norm, 0] == 0).all() and member[T.conj_many(norm[:, None], gens)].all()):
        raise ConsistencyError(
            f"a seed of N_A(G) does not fix 0 and normalize a {record.order}-element "
            f"subgroup of Hol({record.type_name})"
        )
    return ctx.perms[norm]


def intermediate_field_count(record: TransitiveClassRecord) -> int:
    """Number of subgroups of the record's group containing its stabilizer.

    Equals the number of invariant blocks through point 0: the block of
    0 under any overgroup-of-stabilizer's orbit partition, and
    conversely each block B yields the subgroup of elements sending 0
    into B.  Blocks through 0 form a lattice generated under join by
    the minimal blocks fusing 0 with one other point, so a join-closure
    walk over those atoms finds all of them.  An element a of N_A(G)
    fixes 0 and normalizes G, so it maps blocks through 0 onto blocks
    through 0, and the atom of a(x) is a applied to the atom of x: one
    atom per N_A(G)-orbit is found by union-find, and its images under
    N_A(G)'s rows (each proved first, `_proved_aut_normalizer`) are the
    rest.
    """
    ctx = record.ctx
    n = ctx.n
    gens = ctx.perms[record.gens].tolist()
    norm = _proved_aut_normalizer(record)
    lab = orbit_labels(norm)
    zero = frozenset([0])
    atoms = set()
    for x in np.flatnonzero(lab == np.arange(n))[1:].tolist():
        block = list(_minimal_block(gens, n, zero, x))
        atoms.update(map(frozenset, norm[:, block].tolist()))
    blocks = {zero} | atoms
    frontier = list(atoms)
    while frontier:
        b = frontier.pop()
        for a in atoms:
            if a <= b:
                continue
            joined = _minimal_block(gens, n, b, next(iter(a - b)))
            if joined not in blocks:
                if len(blocks) >= DEFAULT_BLOCK_BUDGET:
                    raise SearchBudgetError(
                        "block lattice walk exceeded budget",
                        spent=len(blocks),
                        budget=DEFAULT_BLOCK_BUDGET,
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
    t, inv = ctx.group.mul, ctx.group.inv
    member = ctx.base_subgroups
    ok = np.ones(len(member), dtype=bool)
    for r in ctx.perms[record.gens]:
        moved = t[r, inv[r[0]]]
        ok &= (member[:, moved] | ~member).all(axis=1)
    return int(ok.sum())


def bijective_correspondence(record: TransitiveClassRecord) -> tuple[bool, int, int]:
    """(counts match?, intermediate field count, Hopf subalgebra count)."""
    fields = intermediate_field_count(record)
    hopfs = hopf_subalgebra_count(record)
    return (fields == hopfs, fields, hopfs)


@dataclass
class DegreeCensus:
    """Full per-degree result: the row plus its supporting detail."""

    row: DegreeReportRow
    contexts: list[HolomorphContext]
    records: list[TransitiveClassRecord]
    classes: list[EquivalenceClass]
    # per-record terms and flags, aligned with `records`
    terms: list[int]
    ac_flags: list[Optional[bool]]
    bc_flags: list[Optional[bool]]
    bc_counts: list[Optional[tuple[int, int]]]


def build_degree_census(
    degree: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    skip_ac: bool = False,
    skip_bc: bool = False,
) -> DegreeCensus:
    """Run the full pipeline for one degree.

    A holomorph too large for the dense table, or budget exhaustion
    during enumeration, leaves every computed cell unknown except the
    type count; exhaustion during the correspondence checks blanks only
    that column.  Each marks the row partial rather than fail.
    """
    groups = groups_of_order(degree)
    unknown = DegreeReportRow(degree, len(groups), *(None,) * 7, partial=True)
    contexts: list[HolomorphContext] = []
    records: list[TransitiveClassRecord] = []
    try:
        # |Hol(N)| = n |Aut(N)|: a holomorph whose dense table the
        # enumeration would refuse stops the degree before any is built
        for g in groups:
            check_budget(degree * automorphism_order(g))
        contexts = [build_holomorph(g) for g in groups]
        for ctx in contexts:
            records.extend(enumerate_transitive_classes(ctx, node_budget, time_budget))
    except BudgetError:
        return DegreeCensus(unknown, contexts, [], [], [], [], [], [])

    classes = classify_degree(records)
    term_of = {id(rec): _member_term(cls, rec) for cls in classes for _, rec in cls.members}
    terms = [term_of[id(rec)] for rec in records]

    def total(flags) -> int:
        return sum(t for t, keep in zip(terms, flags) if keep)

    partial = False
    if skip_ac:
        ac_flags: list[Optional[bool]] = [None] * len(records)
        ac_hgs = ac_sbr = None
    else:
        ac_flags = [is_almost_classical(rec) for rec in records]
        ac_hgs = total(ac_flags)
        ac_sbr = sum(1 for f in ac_flags if f)

    bc_counts: list[Optional[tuple[int, int]]] = [None] * len(records)
    bc_hgs = None
    if not skip_bc:
        try:
            # a stabilizer-respecting isomorphism carries blocks onto
            # blocks, so every member has its leader's field count
            fields_of: dict[int, int] = {}
            for cls in classes:
                fields = intermediate_field_count(cls.members[0][1])
                fields_of.update((id(rec), fields) for _, rec in cls.members)
            bc_counts = [(fields_of[id(rec)], hopf_subalgebra_count(rec)) for rec in records]
            bc_hgs = total(fields == hopfs for fields, hopfs in bc_counts)
        except BudgetError:
            partial = True
    bc_flags = [None if c is None else c[0] == c[1] for c in bc_counts]

    row = DegreeReportRow(
        degree=degree,
        types=len(groups),
        hgs_total=sum(terms),
        sbracoids_total=len(records),
        gal_hgs=total(rec.regular for rec in records),
        sbraces=sum(1 for rec in records if rec.regular),
        ac_hgs=ac_hgs,
        ac_sbracoids=ac_sbr,
        bc_hgs=bc_hgs,
        partial=partial or skip_ac or skip_bc,
    )
    row.validate()
    return DegreeCensus(row, contexts, records, classes, terms, ac_flags, bc_flags, bc_counts)


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
