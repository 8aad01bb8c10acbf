"""Groups of order 2pq, their automorphisms, and verified witness subgroups.

For distinct odd primes p > q there are four groups of order 2pq, six when
p is 1 mod q.  Each is built from a small faithful permutation action, its
automorphism group is generated by a handful of named maps, and the
witness subgroups showing which abstract groups act transitively on which
carriers are constructed generator-by-generator and checked.

A named automorphism is given by the images of the named generators
x, r, s, which are the group table's `generators()` in that order.  One
word walk expands it to an index array over the group's elements,
accepted only if `holomorph.in_holomorph` passes it, as every witness
generator must; no holomorph is built.  Maps compose and take powers by
array indexing.

Named automorphism keys, by what the map does:
  scale_x        multiplies the direct cyclic factor (identity elsewhere)
  scale_p_part   multiplies the order-p part of a cyclic carrier
  scale_q_part   multiplies the order-q part of a cyclic carrier
  shift_refl     sends the reflection/twist generator s to r*s
  scale_rot      sends the rotation r to a fixed power r^b, b of maximal order
  scale_rot_p    same with b of order p-1 (split modulus carriers)
  scale_rot_q    same with b of order q-1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import automorphism_group, from_perm_generators
from .classify import is_stab_respecting_iso, stab_respecting_iso
from .errors import ConsistencyError, StructureError
from .holomorph import in_holomorph
from .iso import IsoSearch
from .perm import PermGroup, is_transitive, row_index
from .table import GroupTable, _prime_factors


def _mult_order(a: int, m: int) -> int:
    a %= m
    if np.gcd(a, m) != 1:
        raise StructureError(f"{a} is not a unit mod {m}")
    o, cur = 1, a
    while cur != 1:
        cur = cur * a % m
        o += 1
    return o


def _element_of_order(m: int, target: int) -> int:
    """Least unit mod m of the given multiplicative order."""
    for a in range(2, m):
        if np.gcd(a, m) == 1 and _mult_order(a, m) == target:
            return a
    raise StructureError(f"no unit of order {target} mod {m}")


def _crt(rp: int, p: int, rq: int, q: int) -> int:
    """The residue mod p*q reducing to rp mod p and rq mod q."""
    for x in range(p * q):
        if x % p == rp % p and x % q == rq % q:
            return x
    raise StructureError("no CRT solution")


def _affine(head: list[int], m: int, a: int, c: int) -> list[int]:
    """`head`, then v -> a v + c on Z_m written on the points after it."""
    return head + [len(head) + (a * v + c) % m for v in range(m)]


def _map_power(a: np.ndarray, e: int) -> np.ndarray:
    out = np.arange(len(a))
    for _ in range(e):
        out = out[a]
    return out


@dataclass
class GroupData:
    """One order-2pq group with its automorphism group and named maps."""

    group: GroupTable
    aut: PermGroup
    gen_index: dict[str, int]
    autos: dict[str, np.ndarray]

    def embed(self, key: str) -> np.ndarray:
        """Left translation by the named generator."""
        return self.group.mul[self.gen_index[key]]

    def power(self, key: str, e: int) -> int:
        """Index of the named generator's e-th power."""
        out = 0
        for _ in range(e):
            out = int(self.group.mul[out, self.gen_index[key]])
        return out

    def auto(self, **images: int) -> np.ndarray:
        """The automorphism sending the named generators to the given
        elements and fixing the others, as an index array.

        One word walk over the generators expands the images; the array is
        accepted only if it is an automorphism of N (`in_holomorph`).
        """
        t = self.group.mul
        pairs = [(g, images.get(k, g)) for k, g in self.gen_index.items()]
        phi = np.full(self.group.order, -1, dtype=np.int64)
        phi[0] = 0
        walk = [0]
        for a in walk:
            for g, b in pairs:
                ag = int(t[a, g])
                if phi[ag] < 0:
                    phi[ag] = t[phi[a], b]
                    walk.append(ag)
        if not in_holomorph(self.group, phi)[0]:
            raise StructureError(f"{self.group.name}: {images} extends to no automorphism")
        return phi


@dataclass
class Degree2pqFamily:
    p: int
    q: int
    k: Optional[int]
    members: list[GroupData]

    @property
    def order(self) -> int:
        return 2 * self.p * self.q


@dataclass
class WitnessReport:
    name: str
    host: str
    subgroup: PermGroup
    normalizer_order: Optional[int]
    abstract: str


def _member(name: str, gens: dict[str, list[int]]) -> GroupData:
    """A family group from permutation generators in their x/r/s roles."""
    perms = list(gens.values())
    g = from_perm_generators(name, perms, len(perms[0]))
    return GroupData(g, automorphism_group(g), dict(zip(gens, g.generators())), {})


def build_family(p: int, q: int) -> Degree2pqFamily:
    """All groups of order 2pq with verified named automorphism generators."""
    if _prime_factors(p) != [p] or _prime_factors(q) != [q] or p <= q or q < 3:
        raise StructureError("need distinct odd primes p > q")
    n = 2 * p * q
    members: list[GroupData] = []

    def shift_refl(g: GroupData) -> np.ndarray:  # s -> r s
        return g.auto(s=int(g.group.mul[g.gen_index["r"], g.gen_index["s"]]))

    # cyclic: one 2pq-cycle
    c = _member(f"C{n}", {"x": _affine([], n, 1, 1)})
    ap = _crt(_element_of_order(p, p - 1), p, 1, 2 * q)
    aq = _crt(_element_of_order(q, q - 1), q, 1, 2 * p)
    c.autos = {
        "scale_p_part": c.auto(x=c.power("x", ap)),
        "scale_q_part": c.auto(x=c.power("x", aq)),
    }
    members.append(c)

    # direct product of a cyclic group and a dihedral group: a cycle on the
    # first points, rotation and reflection of Z_dih on the rest
    for cyc, dih in ((p, q), (q, p)):
        fixed = list(range(cyc))
        g = _member(f"C{cyc}xD{dih}", {
            "x": _affine(_affine([], cyc, 1, 1), dih, 1, 0),
            "r": _affine(fixed, dih, 1, 1),
            "s": _affine(fixed, dih, -1, 0),
        })
        g.autos = {
            "scale_x": g.auto(x=g.power("x", _element_of_order(cyc, cyc - 1))),
            "shift_refl": shift_refl(g),
            "scale_rot": g.auto(r=g.power("r", _element_of_order(dih, dih - 1))),
        }
        members.append(g)

    # dihedral on pq points
    m = p * q
    d = _member(f"D{m}", {"r": _affine([], m, 1, 1), "s": _affine([], m, -1, 0)})
    d.autos = {
        "shift_refl": shift_refl(d),
        "scale_rot_p": d.auto(r=d.power("r", _crt(_element_of_order(p, p - 1), p, 1, q))),
        "scale_rot_q": d.auto(r=d.power("r", _crt(1, p, _element_of_order(q, q - 1), q))),
    }
    members.append(d)

    k = None
    if (p - 1) % q == 0:
        k = next(cand for cand in range(2, p) if _mult_order(cand, p) == q)
        b5 = _element_of_order(p, p - 1)
        # C2 x (C_p : C_q): a transposition, then v -> v + 1 and v -> k v on Z_p
        g5 = _member(f"C2x(C{p}:C{q})", {
            "x": _affine([1, 0], p, 1, 0),
            "r": _affine([0, 1], p, 1, 1),
            "s": _affine([0, 1], p, k, 0),
        })
        # C_p : C_2q: v -> v + 1 and v -> -k v on Z_p
        g6 = _member(f"C{p}:C{2 * q}", {
            "r": _affine([], p, 1, 1),
            "s": _affine([], p, -k, 0),
        })
        for g in (g5, g6):
            g.autos = {
                "shift_refl": shift_refl(g),
                "scale_rot": g.auto(r=g.power("r", b5)),
            }
            members.append(g)

    fam = Degree2pqFamily(p, q, k, members)
    _verify_family(fam)
    return fam


def _verify_family(fam: Degree2pqFamily) -> None:
    p, q = fam.p, fam.q
    expected_aut = [
        (p - 1) * (q - 1),
        q * (p - 1) * (q - 1),
        p * (p - 1) * (q - 1),
        p * q * (p - 1) * (q - 1),
        p * (p - 1),
        p * (p - 1),
    ]
    for i, gd in enumerate(fam.members):
        if gd.group.order != fam.order:
            raise ConsistencyError(f"{gd.group.name}: wrong order")
        if gd.aut.order != expected_aut[i]:
            raise ConsistencyError(
                f"{gd.group.name}: automorphism group has order {gd.aut.order}, "
                f"expected {expected_aut[i]}"
            )
        gen_group = PermGroup(list(gd.autos.values()), fam.order)
        if gen_group.order != gd.aut.order:
            raise ConsistencyError(f"{gd.group.name}: named maps do not generate Aut")


def _power_inverting_r(gd: GroupData, key: str) -> np.ndarray:
    """Power of the named rotation-scaling map sending r to its inverse."""
    base = gd.autos[key]
    r = gd.gen_index["r"]
    r_inv = int(gd.group.inv[r])
    cur = base
    while cur[r] != r_inv:
        cur = cur[base]
        if np.array_equal(cur, base):
            raise ConsistencyError(f"{gd.group.name}: no power of {key} inverts the rotation")
    return cur


def _subgroup(gd: GroupData, gens: list[np.ndarray]) -> PermGroup:
    if not in_holomorph(gd.group, gens).all():  # their closure stays in Hol(N)
        raise ConsistencyError("witness subgroup escapes the holomorph")
    return PermGroup(gens, gd.group.order)


def _hol_normalizer_order(gd: GroupData, sub: PermGroup) -> int:
    """Number of holomorph elements h with h g h^-1 in `sub` for every generator g.

    The holomorph's rows a . alpha come unsorted from N's table and Aut(N).
    A conjugate stays in the holomorph, whose elements are fixed by their
    images of 0 and N's generators, so membership is decided on those alone.
    """
    hol = gd.group.mul[:, gd.aut.elements].reshape(-1, gd.group.order)
    base = [0] + gd.group.generators()
    rows = np.arange(len(hol))[:, None]
    conj = np.empty_like(hol)
    members = sub.elements[:, base]
    ok = np.ones(len(hol), dtype=bool)
    for g in sub.generators:
        conj[rows, hol] = hol[:, g]  # h g h^-1 sends h(x) to h(g(x))
        ok &= row_index(conj[:, base], members) >= 0
    return int(ok.sum())


def _assert_abstract_type(t1: GroupTable, model: GroupTable, what: str) -> None:
    if IsoSearch(t1, model).run("first") is None:
        raise ConsistencyError(f"{what} is not isomorphic to {model.name}")


def _assert_regular(sub: PermGroup, n: int, what: str) -> None:
    if sub.order != n or len(np.unique(sub.elements[:, 0])) != n:
        raise ConsistencyError(f"{what} is not regular")


def witness_four_types(fam: Degree2pqFamily) -> dict[str, WitnessReport]:
    """Regular witnesses pinning the transitive-embedding pattern of order 2pq.

    A cyclic regular subgroup sits in each non-cyclic holomorph with full-size
    normalizer, and the dihedral holomorph hosts regular copies of both mixed
    direct products.
    """
    p, q = fam.p, fam.q
    full = 2 * p * q * (p - 1) * (q - 1)
    n1, n2, n3, n4 = fam.members[0], fam.members[1], fam.members[2], fam.members[3]
    out: dict[str, WitnessReport] = {}

    for name, gd in (("M2", n2), ("M3", n3)):
        psi_inv = _power_inverting_r(gd, "scale_rot")
        sub = _subgroup(gd, [gd.embed("x"), gd.embed("r"), gd.embed("s")[psi_inv]])
        _assert_regular(sub, fam.order, name)
        _assert_abstract_type(sub.table(), n1.group, name)
        norm = _hol_normalizer_order(gd, sub)
        if norm != full:
            raise ConsistencyError(f"{name}: normalizer order {norm}, expected {full}")
        out[name] = WitnessReport(name, gd.group.name, sub, norm, n1.group.name)

    m = p * q
    for name, unit, model in (
        ("M4", m - 1, n1.group),
        ("J2", _crt(-1, p, 1, q), n2.group),
        ("J3", _crt(1, p, -1, q), n3.group),
    ):
        psi4 = n4.auto(r=n4.power("r", unit))
        sub = _subgroup(n4, [n4.embed("r"), n4.embed("s")[psi4]])
        _assert_regular(sub, fam.order, name)
        _assert_abstract_type(sub.table(), model, name)
        norm = _hol_normalizer_order(n4, sub)
        expected = {"M4": full, "J2": q * full, "J3": p * full}[name]
        if norm != expected:
            raise ConsistencyError(f"{name}: normalizer order {norm}, expected {expected}")
        out[name] = WitnessReport(name, n4.group.name, sub, norm, model.name)
    return out


def _cyclic_by_affine_model(p: int, q: int) -> GroupTable:
    """C_{2q} x (C_p : C_{p-1}) with the full affine twist.

    Acts on 2q + p points: a 2q-cycle on the first 2q, and on the last p,
    read as Z_p, the translation v -> v + 1 and the scaling v -> g0 v.
    """
    c = list(range(2 * q))
    gens = [
        _affine(_affine([], 2 * q, 1, 1), p, 1, 0),
        _affine(c, p, 1, 1),
        _affine(c, p, _element_of_order(p, p - 1), 0),
    ]
    return from_perm_generators(f"C{2 * q}x(C{p}:C{p - 1})", gens, 2 * q + p)


def witness_M_series(fam: Degree2pqFamily) -> list[WitnessReport]:
    """Transitive subgroups of order 2pq(p-1), one per carrier, all matching.

    Each has point stabilizer generated by a single named scaling map, and all
    are pairwise isomorphic as permutation groups with the stabilizer carried
    onto the stabilizer.
    """
    p, q = fam.p, fam.q
    target = 2 * p * q * (p - 1)
    model = _cyclic_by_affine_model(p, q)
    subs: list[tuple[str, PermGroup, np.ndarray]] = []

    n1 = fam.members[0]
    subs.append(("M1", _subgroup(n1, [n1.embed("x"), n1.autos["scale_p_part"]]),
                 n1.autos["scale_p_part"]))

    n2 = fam.members[1]
    psi_inv2 = _power_inverting_r(n2, "scale_rot")
    subs.append(("M2", _subgroup(n2, [n2.embed("x"), n2.embed("r"), n2.embed("s")[psi_inv2],
                                          n2.autos["scale_x"]]),
                 n2.autos["scale_x"]))

    n3 = fam.members[2]
    phi3 = _map_power(n3.autos["shift_refl"], p - 2)  # p-2 shifts realize the -2 twist
    subs.append(("M3", _subgroup(n3, [n3.embed("x"), n3.embed("r")[phi3], n3.embed("s"),
                                          n3.autos["scale_rot"]]),
                 n3.autos["scale_rot"]))

    n4 = fam.members[3]
    phi4 = _map_power(n4.autos["shift_refl"], p * q - 2)
    subs.append(("M4", _subgroup(n4, [n4.embed("r")[phi4], n4.embed("s"),
                                          n4.autos["scale_rot_p"]]),
                 n4.autos["scale_rot_p"]))

    if fam.k is not None:
        kinv = pow(fam.k, -1, p)
        n5 = fam.members[4]
        psi_k5 = n5.auto(r=n5.power("r", kinv))
        subs.append(("M5", _subgroup(n5, [n5.embed("x"), n5.embed("s"), n5.embed("r")[psi_k5],
                                              n5.autos["scale_rot"]]),
                     n5.autos["scale_rot"]))
        n6 = fam.members[5]
        psi_k6 = n6.auto(r=n6.power("r", kinv))
        subs.append(("M6", _subgroup(n6, [n6.embed("s"), n6.embed("r")[psi_k6],
                                              n6.autos["scale_rot"]]),
                     n6.autos["scale_rot"]))

    reports = []
    for (name, sub, stab_gen), gd in zip(subs, fam.members):
        if sub.order != target:
            raise ConsistencyError(f"{name}: order {sub.order}, expected {target}")
        if not is_transitive(sub):
            raise ConsistencyError(f"{name} is not transitive")
        powers = [np.arange(fam.order)]
        while not np.array_equal(powers[-1][stab_gen], powers[0]):
            powers.append(powers[-1][stab_gen])
        if not np.array_equal(sub.elements[sub.elements[:, 0] == 0], np.unique(powers, axis=0)):
            raise ConsistencyError(f"{name}: stabilizer is not the named scaling map")
        _assert_abstract_type(sub.table(), model, name)
        reports.append(WitnessReport(name, gd.group.name, sub, None, model.name))

    # chain the expensive searches, then compose and re-verify every pair
    steps = []
    for i in range(len(subs) - 1):
        phi = stab_respecting_iso(subs[i][1], subs[i + 1][1])
        if phi is None:
            raise ConsistencyError(f"{subs[i][0]} and {subs[i + 1][0]} are not matched")
        steps.append(phi)
    for i, (_, sub, _) in enumerate(subs):
        phi = np.arange(target)
        for j in range(i + 1, len(subs)):
            phi = steps[j - 1][phi]
            if not is_stab_respecting_iso(phi, sub.table(), sub.elements, subs[j][1].elements):
                raise ConsistencyError(
                    f"{subs[i][0]} -> {subs[j][0]} composition is not a matched isomorphism"
                )
    return reports


__all__ = [
    "Degree2pqFamily",
    "GroupData",
    "WitnessReport",
    "build_family",
    "witness_four_types",
    "witness_M_series",
]
