"""Named builders for every example object shipped with the library.

All hosts, cocycles, morphisms, and triples are constructed deterministically
and verified at construction.  Builders memoize their results so that a name
(in one context, for cocycles and scenes) always resolves to the same object;
host checks elsewhere compare identity, not contents, and the catalog is the
single source of shared instances.
"""

from __future__ import annotations

import math

import numpy as np

from .cocycle import (
    DualCocycle,
    QuotientMorphism,
    from_bicharacter,
    induce,
    trivial_cocycle,
    verify_cocycle,
    verify_morphism,
)
from .core import (
    DEFAULT_CONTEXT,
    FiniteHopfStarAlgebra,
    ScalarContext,
    verify_hopf_axioms,
)
from .corep import UnitaryCorep, decompose_corep, regular_corep, verify_corep
from .deform import RTwistedVolume, SpectralTriple, equivariance_residual
from .errors import InvalidMorphism, TheoremViolation, UnknownCatalogName
from .groups import (
    FiniteGroupData,
    cyclic_group,
    dihedral_group,
    direct_product,
    function_algebra,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_group,
)
from .peterweyl import decompose, haar_state

Array = np.ndarray

_GROUP_BUILDERS = {
    "1": trivial_group,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z2z2": klein_four_group,
    "s3": symmetric_group_3,
    "d4": lambda: dihedral_group(4),
    "z4z4": lambda: direct_product(cyclic_group(4), cyclic_group(4)),
}

_HOST_TABLE = (
    ("c-1", "function", "1"),
    ("c-z2", "function", "z2"),
    ("g-z2", "group", "z2"),
    ("c-z3", "function", "z3"),
    ("c-z4", "function", "z4"),
    ("c-z2z2", "function", "z2z2"),
    ("g-z2z2", "group", "z2z2"),
    ("c-s3", "function", "s3"),
    ("c-d4", "function", "d4"),
    ("g-d4", "group", "d4"),
    ("g-z4z4", "group", "z4z4"),
)

_groups: dict[str, FiniteGroupData] = {}
_algebras: dict[str, FiniteHopfStarAlgebra] = {}
# cocycles and scenes are verified against the caller's context, so they are
# cached per (name, context); ScalarContext is a frozen, hashable dataclass
_cocycles: dict[tuple[str, ScalarContext], DualCocycle] = {}
_scenes: dict[tuple[str, ScalarContext], dict] = {}


def group_data(name: str) -> FiniteGroupData:
    if name not in _GROUP_BUILDERS:
        raise UnknownCatalogName(f"unknown group name {name!r}")
    if name not in _groups:
        _groups[name] = _GROUP_BUILDERS[name]()
    return _groups[name]


def host_names() -> tuple[str, ...]:
    return tuple(row[0] for row in _HOST_TABLE)


def algebra(name: str) -> FiniteHopfStarAlgebra:
    """Memoized catalog host; verified against the Hopf axioms on first build."""
    if name in _algebras:
        return _algebras[name]
    for key, kind, group_key in _HOST_TABLE:
        if key != name:
            continue
        group = group_data(group_key)
        built = (
            function_algebra(group) if kind == "function" else group_algebra(group)
        )
        verify_hopf_axioms(built, subject=name).require(
            TheoremViolation, f"catalog host {name} fails axioms"
        )
        _algebras[name] = built
        return built
    raise UnknownCatalogName(f"unknown catalog host {name!r}")


def _roots(k: Array, period: int) -> Array:
    """exp(2 pi i k / period) for integers 0 <= k < period.  Where it is a
    quarter turn (4k divisible by period) the entry is exactly
    1j ** (4k / period), so the tables of 2-groups hold only +-1 and +-i."""
    f = np.exp(2j * np.pi * k / period)
    quarter = 4 * k % period == 0
    f[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // period]
    return f


def fourier_matrix(group: FiniteGroupData) -> Array:
    """Character table of a product of cyclic groups, F[g, u] = chi_u(g).

    Each phase is an integer k over the lcm L of the cyclic orders, with
    exact quarter turns (_roots).
    """
    if group.cyclic_factors is None:
        raise InvalidMorphism("fourier matrix needs a product of cyclic groups")
    factors = group.cyclic_factors
    n, period = group.order, math.lcm(*factors)
    # digits[g] are the coordinates of g, the last factor varying fastest
    digits = np.indices(factors).reshape(len(factors), n).T
    k = digits @ (digits * (period // np.array(factors, dtype=int))).T % period
    return _roots(k, period)


def bicharacter_table(group: FiniteGroupData) -> Array:
    """beta(g, h) = zeta^(g_1 h_0) on a product of two cyclic groups, zeta
    the primitive root of unity of the gcd of their orders, with exact
    quarter turns (_roots): +-1 on Z2 x Z2, i^(g_1 h_0) on Z4 x Z4."""
    if group.cyclic_factors is None or len(group.cyclic_factors) != 2:
        raise InvalidMorphism("bicharacter table needs a product of two cyclic groups")
    g0, g1 = np.divmod(np.arange(group.order), group.cyclic_factors[1])
    period = math.gcd(*group.cyclic_factors)
    return _roots(np.outer(g1, g0) % period, period)


def fourier_transport(
    group: FiniteGroupData,
    beta: Array,
    host: FiniteHopfStarAlgebra,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> DualCocycle:
    """Carry a bicharacter on the dual group to a cocycle on functions on G.

    The character table f inverts as f^-1 = f^H / n by orthogonality, so a
    table of +-1 and +-i carries a table of +-1 and +-i exactly.
    """
    f = fourier_matrix(group)
    f_inv = f.conj().T / group.order
    sigma = f_inv.T @ np.asarray(beta, dtype=np.complex128) @ f_inv
    cocycle = DualCocycle(host, sigma, ctx=ctx)
    verify_cocycle(cocycle, ctx).require(
        TheoremViolation, "transported table fails cocycle checks"
    )
    return cocycle


def restriction_morphism(
    group: FiniteGroupData,
    subgroup: tuple[int, ...],
    ctx: ScalarContext = DEFAULT_CONTEXT,
    source: FiniteHopfStarAlgebra | None = None,
    target: FiniteHopfStarAlgebra | None = None,
) -> QuotientMorphism:
    """Function restriction C(G) -> C(H) for a subgroup H given by indices.

    The subgroup elements are sorted, the identity must be present, and the
    subset must be closed under the group law.  Supplied source/target hosts
    are used verbatim (the morphism checks then validate compatibility).
    """
    order = sorted({int(i) for i in subgroup})
    if not order or order[0] != 0:
        raise InvalidMorphism("subgroup must contain the identity (index 0)")
    pos = {g: k for k, g in enumerate(order)}
    m = len(order)
    subtable = np.zeros((m, m), dtype=np.int64)
    for a, ga in enumerate(order):
        for b, gb in enumerate(order):
            prod = group.multiply(ga, gb)
            if prod not in pos:
                raise InvalidMorphism(
                    f"subset is not closed: {group.labels[ga]} * {group.labels[gb]} falls outside"
                )
            subtable[a, b] = pos[prod]
    sub = FiniteGroupData(m, subtable, tuple(group.labels[i] for i in order))
    src = source if source is not None else function_algebra(group)
    tgt = target if target is not None else function_algebra(sub)
    pi = np.zeros((m, group.order), dtype=np.complex128)
    for t_idx, s_idx in enumerate(order):
        pi[t_idx, s_idx] = 1.0
    mor = QuotientMorphism(source=src, target=tgt, pi=pi)
    verify_morphism(mor, ctx).require(InvalidMorphism, "restriction is not a Hopf *-morphism")
    return mor


_COCYCLE_HOSTS = {
    "klein-bicharacter": "g-z2z2",
    "order4-bicharacter": "g-z4z4",
    "klein-fourier": "c-z2z2",
    "klein-induced": "c-d4",
    "trivial-s3": "c-s3",
}

# the Klein subgroup {e, r^2, s, r^2 s} of the dihedral group on 4 points
_D4_KLEIN_INDICES = (0, 2, 4, 6)


def cocycle_names() -> tuple[str, ...]:
    return tuple(_COCYCLE_HOSTS)


def cocycle_host_name(name: str) -> str:
    if name not in _COCYCLE_HOSTS:
        raise UnknownCatalogName(f"unknown catalog cocycle {name!r}")
    return _COCYCLE_HOSTS[name]


def cocycle(name: str, ctx: ScalarContext = DEFAULT_CONTEXT) -> DualCocycle:
    """Catalog cocycle attached to the memoized catalog host, memoized per context."""
    if (name, ctx) in _cocycles:
        return _cocycles[name, ctx]
    if name == "klein-bicharacter":
        klein = group_data("z2z2")
        built = from_bicharacter(klein, bicharacter_table(klein), ctx, host=algebra("g-z2z2"))
    elif name == "order4-bicharacter":
        z4z4 = group_data("z4z4")
        built = from_bicharacter(z4z4, bicharacter_table(z4z4), ctx, host=algebra("g-z4z4"))
    elif name == "klein-fourier":
        klein = group_data("z2z2")
        built = fourier_transport(klein, bicharacter_table(klein), algebra("c-z2z2"), ctx)
    elif name == "klein-induced":
        mor = d4_klein_restriction(ctx)
        built = induce(cocycle("klein-fourier", ctx), mor, ctx)
    elif name == "trivial-s3":
        built = trivial_cocycle(algebra("c-s3"))
    else:
        raise UnknownCatalogName(f"unknown catalog cocycle {name!r}")
    _cocycles[name, ctx] = built
    return built


def cocycle_pairs() -> tuple[tuple[str, str], ...]:
    """(host name, cocycle name) for every twistable catalog pair."""
    return tuple((host, name) for name, host in _COCYCLE_HOSTS.items())


def d4_klein_restriction(ctx: ScalarContext = DEFAULT_CONTEXT) -> QuotientMorphism:
    """The quotient from functions on the dihedral group to its Klein subgroup."""
    return restriction_morphism(
        group_data("d4"),
        _D4_KLEIN_INDICES,
        ctx,
        source=algebra("c-d4"),
        target=algebra("c-z2z2"),
    )


def _isotypic_dirac(
    corep: UnitaryCorep,
    values: tuple[float, ...],
    ctx: ScalarContext,
) -> Array:
    pw = decompose(corep.host, haar_state(corep.host, ctx), ctx)
    sd = decompose_corep(corep, pw, ctx)
    if len(values) != len(sd.entries):
        raise TheoremViolation(
            f"{len(values)} eigenvalues supplied for {len(sd.entries)} isotypic blocks"
        )
    dirac = np.zeros((corep.hdim, corep.hdim), dtype=np.complex128)
    for entry, value in zip(sd.entries, values):
        flat = entry["basis"].reshape(-1, corep.hdim)
        dirac += value * (flat.T @ flat.conj())
    return 0.5 * (dirac + dirac.conj().T)


# each scene: its host and group, the basis elements whose left
# multiplications generate its operators, their label prefix, and its
# cocycle (None for the trivial one).  On Z4 x Z4, index 4a + b is (a, b),
# so 1, 3, 4, 12 are the unit translations (0, +-1) and (+-1, 0)
_SCENES = {
    "trivial-4": ("g-z2z2", "z2z2", (0, 1, 2, 3), "t", None),
    "z2z2-torus": ("g-z2z2", "z2z2", (1, 2, 3), "t", "klein-bicharacter"),
    "d4-regular": ("c-d4", "d4", tuple(range(8)), "m", "klein-induced"),
    "z4z4-torus": ("g-z4z4", "z4z4", (1, 3, 4, 12), "t", "order4-bicharacter"),
}


def triple_names() -> tuple[str, ...]:
    return tuple(_SCENES)


def triple_scene(name: str, ctx: ScalarContext = DEFAULT_CONTEXT) -> dict:
    """Triple, carrier corep, cocycle, and volume matrix for a named scene.

    The regular corep carries each scene, and its operators are left
    multiplications on the host: translations on a group algebra, diagonal
    matrices on a function algebra.  Every scene is verified on its first
    build in a context: the corep passes its checks and the Dirac matrix
    commutes with the corep.
    """
    if (name, ctx) in _scenes:
        return _scenes[name, ctx]
    if name not in _SCENES:
        raise UnknownCatalogName(f"unknown catalog triple {name!r}")
    host_name, group_name, picked, prefix, cocycle_name = _SCENES[name]
    host, group = algebra(host_name), group_data(group_name)
    corep = regular_corep(host, ctx)
    gens = tuple(host.mul[i].T for i in picked)
    labels = tuple(f"{prefix}[{group.labels[i]}]" for i in picked)
    if name == "trivial-4":
        dirac = np.zeros((4, 4), dtype=np.complex128)
    elif name == "d4-regular":
        dirac = _isotypic_dirac(corep, (0.0, 1.0, 1.0, 2.0, 3.0), ctx)
    else:
        # the word length of (a, b) in the unit translations of Z_m x Z_m
        m = group.cyclic_factors[1]
        a, b = np.divmod(np.arange(group.order), m)
        dirac = np.diag(np.minimum(a, m - a) + np.minimum(b, m - b)).astype(np.complex128)
    sigma = cocycle(cocycle_name, ctx) if cocycle_name else trivial_cocycle(host)
    verify_corep(corep, ctx, subject=f"{name} corep").require(
        TheoremViolation, "scene corep fails checks"
    )
    commutation = equivariance_residual(corep, dirac)
    if commutation > ctx.tolerance:
        raise TheoremViolation(
            f"scene dirac matrix does not commute with the corep ({commutation:.3g})"
        )
    triple = SpectralTriple(corep.hdim, gens, dirac, labels)
    scene = {
        "name": name,
        "host": host,
        "corep": corep,
        "triple": triple,
        "cocycle": sigma,
        "volume": RTwistedVolume(np.eye(corep.hdim, dtype=np.complex128)),
    }
    _scenes[name, ctx] = scene
    return scene
