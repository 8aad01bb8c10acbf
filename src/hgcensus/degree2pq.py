"""Groups of order 2pq, their holomorphs, and verified witness subgroups.

For distinct odd primes p > q there are four groups of order 2pq, six when
p is 1 mod q.  Each is built from coordinates with an explicit product rule,
its automorphism group is generated by a handful of named maps, and the
witness subgroups showing which abstract groups act transitively on which
carriers are constructed generator-by-generator and checked.

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
from typing import Callable, Optional

import numpy as np

from .catalog import CayleyGroup, invariants
from .classify import stab_respecting_iso
from .errors import ConsistencyError, StructureError
from .holomorph import HolomorphContext, build_holomorph
from .iso import IsoSearch
from .perm import Perm, PermGroup, compose, is_transitive, perm_order
from .table import GroupTable


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


@dataclass
class GroupData:
    """One order-2pq group with its context and named maps."""

    group: CayleyGroup
    ctx: HolomorphContext
    gen_index: dict[str, int]
    autos: dict[str, Perm]

    def embed(self, key: str) -> Perm:
        """Left translation by the named generator."""
        return self.ctx.embed_element(self.gen_index[key])


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


def _auto_perm(g: CayleyGroup, value_map: Callable) -> Perm:
    """Permutation of carrier indices induced by a map on carrier values."""
    idx = g.value_index
    images = [idx[value_map(v)] for v in g.element_values]
    if sorted(images) != list(range(g.order)):
        raise StructureError("map on carrier values is not a bijection")
    arr = np.array(images)
    t = g.table
    if not np.array_equal(arr[t], t[np.ix_(arr, arr)]):
        raise StructureError("map on carrier values is not multiplicative")
    return tuple(images)


def _geom_sum(ratio: int, e: int, mod: int) -> int:
    """1 + ratio + ... + ratio^(e-1) mod mod."""
    total, cur = 0, 1
    for _ in range(e):
        total = (total + cur) % mod
        cur = cur * ratio % mod
    return total


def build_family(p: int, q: int) -> Degree2pqFamily:
    """All groups of order 2pq with verified named automorphism generators."""
    if not (_is_prime(p) and _is_prime(q)) or p <= q or q < 3:
        raise StructureError("need distinct odd primes p > q")
    n = 2 * p * q
    members: list[GroupData] = []

    # cyclic: carrier Z_{2pq}
    c = CayleyGroup.from_elements(
        f"C{n}", list(range(n)), lambda a, b: (a + b) % n, 0, [1],
        structure=f"C{n}",
    )
    ap = _crt(_element_of_order(p, p - 1), p, 1, 2 * q)
    aq = _crt(_element_of_order(q, q - 1), q, 1, 2 * p)
    autos1 = {
        "scale_p_part": _auto_perm(c, lambda v: v * ap % n),
        "scale_q_part": _auto_perm(c, lambda v: v * aq % n),
    }
    members.append(GroupData(c, build_holomorph(c), {"x": c.value_index[1]}, autos1))

    # direct product of C_p and the dihedral group on q points
    def dp_mul(cyc_mod: int, dih_mod: int):
        def mul(a, b):
            return (
                (a[0] + b[0]) % cyc_mod,
                (a[1] + (-b[1] if a[2] else b[1])) % dih_mod,
                (a[2] + b[2]) % 2,
            )
        return mul

    for cyc, dih, tag in ((p, q, 2), (q, p, 3)):
        vals = [(x, j, e) for x in range(cyc) for j in range(dih) for e in range(2)]
        g = CayleyGroup.from_elements(
            f"C{cyc}xD{dih}", vals, dp_mul(cyc, dih), (0, 0, 0),
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            structure=f"C{cyc} x D{dih}",
        )
        a = _element_of_order(cyc, cyc - 1)
        b = _element_of_order(dih, dih - 1)
        autos = {
            "scale_x": _auto_perm(g, lambda v, a=a, m=cyc: (v[0] * a % m, v[1], v[2])),
            "shift_refl": _auto_perm(g, lambda v, m=dih: (v[0], (v[1] + v[2]) % m, v[2])),
            "scale_rot": _auto_perm(g, lambda v, b=b, m=dih: (v[0], v[1] * b % m, v[2])),
        }
        gi = {"x": g.value_index[(1, 0, 0)], "r": g.value_index[(0, 1, 0)],
              "s": g.value_index[(0, 0, 1)]}
        members.append(GroupData(g, build_holomorph(g), gi, autos))

    # dihedral on pq points
    m = p * q
    vals4 = [(j, e) for j in range(m) for e in range(2)]
    d = CayleyGroup.from_elements(
        f"D{m}", vals4,
        lambda a, b: ((a[0] + (-b[0] if a[1] else b[0])) % m, (a[1] + b[1]) % 2),
        (0, 0), [(1, 0), (0, 1)],
        structure=f"D{m}",
    )
    bp = _crt(_element_of_order(p, p - 1), p, 1, q)
    bq = _crt(1, p, _element_of_order(q, q - 1), q)
    autos4 = {
        "shift_refl": _auto_perm(d, lambda v: ((v[0] + v[1]) % m, v[1])),
        "scale_rot_p": _auto_perm(d, lambda v: (v[0] * bp % m, v[1])),
        "scale_rot_q": _auto_perm(d, lambda v: (v[0] * bq % m, v[1])),
    }
    gi4 = {"r": d.value_index[(1, 0)], "s": d.value_index[(0, 1)]}
    members.append(GroupData(d, build_holomorph(d), gi4, autos4))

    k = None
    if (p - 1) % q == 0:
        for cand in range(2, p):
            if _mult_order(cand, p) == q:
                k = cand
                break
        b5 = _element_of_order(p, p - 1)

        vals5 = [(x, j, e) for x in range(2) for j in range(p) for e in range(q)]
        g5 = CayleyGroup.from_elements(
            f"C2x(C{p}:C{q})", vals5,
            lambda a, b: ((a[0] + b[0]) % 2, (a[1] + pow(k, a[2], p) * b[1]) % p,
                          (a[2] + b[2]) % q),
            (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            structure=f"C2 x (C{p} : C{q})",
        )
        autos5 = {
            "shift_refl": _auto_perm(
                g5, lambda v: (v[0], (v[1] + _geom_sum(k, v[2], p)) % p, v[2])),
            "scale_rot": _auto_perm(g5, lambda v: (v[0], v[1] * b5 % p, v[2])),
        }
        gi5 = {"x": g5.value_index[(1, 0, 0)], "r": g5.value_index[(0, 1, 0)],
               "s": g5.value_index[(0, 0, 1)]}
        members.append(GroupData(g5, build_holomorph(g5), gi5, autos5))

        kk = (-k) % p
        vals6 = [(j, e) for j in range(p) for e in range(2 * q)]
        g6 = CayleyGroup.from_elements(
            f"C{p}:C{2 * q}", vals6,
            lambda a, b: ((a[0] + pow(kk, a[1], p) * b[0]) % p, (a[1] + b[1]) % (2 * q)),
            (0, 0), [(1, 0), (0, 1)],
            structure=f"C{p} : C{2 * q}",
        )
        autos6 = {
            "shift_refl": _auto_perm(
                g6, lambda v: ((v[0] + _geom_sum(kk, v[1], p)) % p, v[1])),
            "scale_rot": _auto_perm(g6, lambda v: (v[0] * b5 % p, v[1])),
        }
        gi6 = {"r": g6.value_index[(1, 0)], "s": g6.value_index[(0, 1)]}
        members.append(GroupData(g6, build_holomorph(g6), gi6, autos6))

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
        if gd.ctx.aut.order != expected_aut[i]:
            raise ConsistencyError(
                f"{gd.group.name}: automorphism group has order {gd.ctx.aut.order}, "
                f"expected {expected_aut[i]}"
            )
        aut_set = gd.ctx.aut.elements
        for name, a in gd.autos.items():
            if a not in aut_set:
                raise ConsistencyError(f"{gd.group.name}: {name} is not an automorphism")
        gen_group = PermGroup(list(gd.autos.values()), fam.order)
        if gen_group.order != gd.ctx.aut.order:
            raise ConsistencyError(f"{gd.group.name}: named maps do not generate Aut")


def _psi_power_matching_inverse(gd: GroupData, key: str, r_index: int) -> Perm:
    """Power of the named rotation-scaling map sending r to its inverse."""
    base = gd.autos[key]
    t = gd.group.table
    r_inv = int(np.nonzero(t[r_index] == 0)[0][0])
    cur = base
    for _ in range(perm_order(base)):
        if cur[r_index] == r_inv:
            return cur
        cur = compose(cur, base)
    raise ConsistencyError(f"{gd.group.name}: no power of {key} inverts the rotation")


def _rows_in(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of the rows of `rows` that are also rows of `members`."""

    def keys(a: np.ndarray) -> np.ndarray:  # one byte-string key per row
        a = np.ascontiguousarray(a, dtype=members.dtype)
        return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()

    known = np.sort(keys(members))
    query = keys(rows)
    pos = np.searchsorted(known, query).clip(max=len(known) - 1)
    return known[pos] == query


def _subgroup(ctx: HolomorphContext, gens: list[Perm]) -> PermGroup:
    g = PermGroup(gens, ctx.n)
    if not _rows_in(np.array(g.sorted_elements), ctx.perms).all():
        raise ConsistencyError("witness subgroup escapes the holomorph")
    return g


def _hol_normalizer_order(ctx: HolomorphContext, sub: PermGroup) -> int:
    """Number of holomorph elements h with h g h^-1 in `sub` for every generator g."""
    hol = ctx.perms
    elems = np.array(sub.sorted_elements)
    rows = np.arange(len(hol))[:, None]
    conj = np.empty_like(hol)
    ok = np.ones(len(hol), dtype=bool)
    for g in sub.generators:
        conj[rows, hol] = hol[:, list(g)]  # h g h^-1 sends h(x) to h(g(x))
        ok &= _rows_in(conj, elems)
    return int(ok.sum())


def _assert_abstract_type(sub: PermGroup, model: CayleyGroup, what: str) -> None:
    t1 = GroupTable.from_perms(sub.sorted_elements)
    t2 = model.as_table()
    if invariants(t1) != invariants(t2) or IsoSearch(t1, t2).run("first") is None:
        raise ConsistencyError(f"{what} is not isomorphic to {model.name}")


def _assert_regular(sub: PermGroup, n: int, what: str) -> None:
    if sub.order != n or len({g[0] for g in sub.elements}) != n:
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
        psi_inv = _psi_power_matching_inverse(gd, "scale_rot", gd.gen_index["r"])
        sub = _subgroup(gd.ctx, [gd.embed("x"), gd.embed("r"),
                                 compose(gd.embed("s"), psi_inv)])
        _assert_regular(sub, fam.order, name)
        _assert_abstract_type(sub, n1.group, name)
        norm = _hol_normalizer_order(gd.ctx, sub)
        if norm != full:
            raise ConsistencyError(f"{name}: normalizer order {norm}, expected {full}")
        out[name] = WitnessReport(name, gd.group.name, sub, norm, n1.group.name)

    t4 = n4.group.table
    r4 = n4.gen_index["r"]
    m = p * q

    def psi4(unit: int) -> Perm:
        return _auto_perm(n4.group, lambda v: (v[0] * unit % m, v[1]))

    for name, unit, model in (
        ("M4", m - 1, n1.group),
        ("J2", _crt(-1, p, 1, q), n2.group),
        ("J3", _crt(1, p, -1, q), n3.group),
    ):
        sub = _subgroup(n4.ctx, [n4.embed("r"), compose(n4.embed("s"), psi4(unit))])
        _assert_regular(sub, fam.order, name)
        _assert_abstract_type(sub, model, name)
        norm = _hol_normalizer_order(n4.ctx, sub)
        expected = {"M4": full, "J2": q * full, "J3": p * full}[name]
        if norm != expected:
            raise ConsistencyError(f"{name}: normalizer order {norm}, expected {expected}")
        out[name] = WitnessReport(name, n4.group.name, sub, norm, model.name)
    return out


def _cyclic_by_affine_model(p: int, q: int) -> CayleyGroup:
    """C_{2q} x (C_p : C_{p-1}) with the full affine twist."""
    g0 = _element_of_order(p, p - 1)
    vals = [(u, v, w) for u in range(2 * q) for v in range(p) for w in range(p - 1)]
    return CayleyGroup.from_elements(
        f"C{2 * q}x(C{p}:C{p - 1})", vals,
        lambda a, b: ((a[0] + b[0]) % (2 * q), (a[1] + pow(g0, a[2], p) * b[1]) % p,
                      (a[2] + b[2]) % (p - 1)),
        (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        structure=f"C{2 * q} x (C{p} : C{p - 1})",
    )


def _check_iso_map(phi: dict[Perm, Perm], g1: PermGroup, g2: PermGroup) -> bool:
    if set(phi) != set(g1.elements) or set(phi.values()) != set(g2.elements):
        return False
    for s in g1.generators:
        for x in g1.elements:
            if phi[compose(s, x)] != compose(phi[s], phi[x]):
                return False
    return all((x[0] == 0) == (phi[x][0] == 0) for x in phi)


def witness_M_series(fam: Degree2pqFamily) -> list[WitnessReport]:
    """Transitive subgroups of order 2pq(p-1), one per carrier, all matching.

    Each has point stabilizer generated by a single named scaling map, and all
    are pairwise isomorphic as permutation groups with the stabilizer carried
    onto the stabilizer.
    """
    p, q = fam.p, fam.q
    target = 2 * p * q * (p - 1)
    model = _cyclic_by_affine_model(p, q)
    subs: list[tuple[str, PermGroup, Perm]] = []

    n1 = fam.members[0]
    subs.append(("M1", _subgroup(n1.ctx, [n1.embed("x"), n1.autos["scale_p_part"]]),
                 n1.autos["scale_p_part"]))

    n2 = fam.members[1]
    psi_inv2 = _psi_power_matching_inverse(n2, "scale_rot", n2.gen_index["r"])
    subs.append(("M2", _subgroup(n2.ctx, [n2.embed("x"), n2.embed("r"),
                                          compose(n2.embed("s"), psi_inv2),
                                          n2.autos["scale_x"]]),
                 n2.autos["scale_x"]))

    n3 = fam.members[2]
    phi3 = n3.autos["shift_refl"]
    phi3_pow = phi3
    for _ in range(p - 3):
        phi3_pow = compose(phi3_pow, phi3)  # p-2 shifts realize the -2 twist
    subs.append(("M3", _subgroup(n3.ctx, [n3.embed("x"),
                                          compose(n3.embed("r"), phi3_pow),
                                          n3.embed("s"), n3.autos["scale_rot"]]),
                 n3.autos["scale_rot"]))

    n4 = fam.members[3]
    phi4 = n4.autos["shift_refl"]
    phi4_pow = phi4
    for _ in range(p * q - 3):
        phi4_pow = compose(phi4_pow, phi4)
    subs.append(("M4", _subgroup(n4.ctx, [compose(n4.embed("r"), phi4_pow),
                                          n4.embed("s"), n4.autos["scale_rot_p"]]),
                 n4.autos["scale_rot_p"]))

    if fam.k is not None:
        kinv = pow(fam.k, -1, p)
        n5 = fam.members[4]
        psi_k5 = _auto_perm(n5.group, lambda v: (v[0], v[1] * kinv % p, v[2]))
        subs.append(("M5", _subgroup(n5.ctx, [n5.embed("x"), n5.embed("s"),
                                              compose(n5.embed("r"), psi_k5),
                                              n5.autos["scale_rot"]]),
                     n5.autos["scale_rot"]))
        n6 = fam.members[5]
        psi_k6 = _auto_perm(n6.group, lambda v: (v[0] * kinv % p, v[1]))
        subs.append(("M6", _subgroup(n6.ctx, [n6.embed("s"),
                                              compose(n6.embed("r"), psi_k6),
                                              n6.autos["scale_rot"]]),
                     n6.autos["scale_rot"]))

    reports = []
    for i, (name, sub, stab_gen) in enumerate(subs):
        host = fam.members[i].group.name
        if sub.order != target:
            raise ConsistencyError(f"{name}: order {sub.order}, expected {target}")
        if not is_transitive(sub):
            raise ConsistencyError(f"{name} is not transitive")
        stab = frozenset(g for g in sub.elements if g[0] == 0)
        if stab != PermGroup([stab_gen], fam.order).elements:
            raise ConsistencyError(f"{name}: stabilizer is not the named scaling map")
        _assert_abstract_type(sub, model, name)
        reports.append(WitnessReport(name, host, sub, None, model.name))

    # chain the expensive searches, then compose and re-verify every pair
    maps: dict[tuple[int, int], dict[Perm, Perm]] = {}
    for i in range(len(subs) - 1):
        phi = stab_respecting_iso(subs[i][1], subs[i + 1][1])
        if phi is None:
            raise ConsistencyError(f"{subs[i][0]} and {subs[i + 1][0]} are not matched")
        maps[(i, i + 1)] = phi
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            phi: dict[Perm, Perm] = {g: g for g in subs[i][1].elements}
            for step in range(i, j):
                nxt = maps[(step, step + 1)]
                phi = {g: nxt[v] for g, v in phi.items()}
            if not _check_iso_map(phi, subs[i][1], subs[j][1]):
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
