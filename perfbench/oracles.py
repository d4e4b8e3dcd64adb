"""Output oracles: each returns a list of problems, empty when the output is right.

They read the program's outputs only, so a faster but wrong answer shows as
a failed operation.  The corep reference contractions use pairwise
``numpy.tensordot`` over the corep tensor and the host's product and star,
independently of the library's own contraction code.
"""

from __future__ import annotations

import json

# check ids of `hopftwist verify --suite paper`, in report order
PAPER_CHECK_IDS = (
    "01.axioms.c-1", "01.axioms.c-d4", "01.axioms.c-s3", "01.axioms.c-z2",
    "01.axioms.c-z2z2", "01.axioms.c-z3", "01.axioms.c-z4", "01.axioms.g-d4",
    "01.axioms.g-z2", "01.axioms.g-z2z2", "01.axioms.g-z4z4",
    "02.peter-weyl.c-1.orthogonality", "02.peter-weyl.c-d4.orthogonality",
    "02.peter-weyl.c-s3.blocks", "02.peter-weyl.c-s3.orthogonality",
    "02.peter-weyl.c-z2.orthogonality", "02.peter-weyl.c-z2z2.orthogonality",
    "02.peter-weyl.c-z3.orthogonality", "02.peter-weyl.c-z4.orthogonality",
    "02.peter-weyl.g-d4.orthogonality", "02.peter-weyl.g-z2.orthogonality",
    "02.peter-weyl.g-z2z2.orthogonality", "02.peter-weyl.g-z4z4.orthogonality",
    "03.mult-rep.c-s3.rank-one", "03.mult-rep.c-s3.star-hom",
    "03.mult-rep.g-d4.rank-one", "03.mult-rep.g-d4.star-hom",
    "04.cocycle.klein-bicharacter", "04.cocycle.klein-fourier",
    "04.cocycle.klein-induced", "04.cocycle.order4-bicharacter",
    "04.cocycle.trivial-s3",
    "05.twist.c-d4.axioms", "05.twist.c-d4.coalgebra",
    "05.twist.c-d4.noncommutativity",
    "06.roundtrip.klein-bicharacter", "06.roundtrip.klein-fourier",
    "06.roundtrip.klein-induced", "06.roundtrip.order4-bicharacter",
    "06.roundtrip.trivial-s3",
    "07.f-matrix.klein-bicharacter", "07.f-matrix.klein-fourier",
    "07.f-matrix.klein-induced", "07.f-matrix.order4-bicharacter",
    "07.f-matrix.trivial-s3",
    "07.haar.klein-bicharacter", "07.haar.klein-fourier", "07.haar.klein-induced",
    "07.haar.order4-bicharacter", "07.haar.trivial-s3",
    "08.twisted-corep.klein-bicharacter", "08.twisted-corep.klein-fourier",
    "08.twisted-corep.klein-induced", "08.twisted-corep.order4-bicharacter",
    "08.twisted-corep.trivial-s3",
    "09.form-r.d4-regular", "09.form-r.z2z2-torus",
    "10.deform.d4-regular.hom-star", "10.deform.z2z2-torus.anticommuting-pair",
    "10.deform.z2z2-torus.commuting-pair", "10.deform.z2z2-torus.hom-star",
    "11.triple.d4-regular", "11.triple.trivial-4", "11.triple.z2z2-torus",
    "11.triple.z4z4-torus",
    "12.double-twist.d4-regular", "12.double-twist.trivial-4",
    "12.double-twist.z2z2-torus", "12.double-twist.z4z4-torus",
    "12.intertwine.d4-regular", "12.intertwine.trivial-4",
    "12.intertwine.z2z2-torus", "12.intertwine.z4z4-torus",
    "12.r-sigma.d4-regular", "12.r-sigma.trivial-4", "12.r-sigma.z2z2-torus",
    "12.r-sigma.z4z4-torus",
    "13.determinism.reports",
)
PAPER_WAIVED = frozenset({"05.twist.c-d4.noncommutativity"})


def paper_suite(exit_code: int, stdout: str) -> list[str]:
    """`verify --suite paper` output: exit 0, the pinned ids, one waiver, canonical bytes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if stdout != canonical + "\n":
        problems.append("stdout is not canonical JSON")
    if doc.get("format") != "verification-report.v1" or doc.get("suite") != "paper":
        problems.append("not a paper-suite verification report")
    checks = doc.get("checks", [])
    ids = tuple(c.get("id") for c in checks)
    if ids != PAPER_CHECK_IDS:
        problems.append(f"check ids differ from the pinned {len(PAPER_CHECK_IDS)}")
    waived = {c.get("id") for c in checks if c.get("waived")}
    if waived != PAPER_WAIVED:
        problems.append(f"waived checks are {sorted(waived)}")
    failing = [c.get("id") for c in checks if not c.get("passed") and not c.get("waived")]
    if failing:
        problems.append(f"failing checks {failing}")
    for c in checks:
        if not c.get("waived") and c.get("passed") != (c.get("residual", 1.0) <= c.get("threshold", 0.0)):
            problems.append(f"verdict of {c.get('id')} disagrees with its residual")
    if doc.get("overall") is not True:
        problems.append("overall verdict is not true")
    return problems


def _verdicts(node) -> list:
    """Every `passed` and `member` value and every [name, residual, ok] verdict."""
    if isinstance(node, dict):
        found = [v for k, v in node.items() if k in ("passed", "member")]
        found.extend(row[2] for row in node.get("verdicts", []) if len(row) == 3)
        for v in node.values():
            found.extend(_verdicts(v))
        return found
    if isinstance(node, list):
        return [x for item in node for x in _verdicts(item)]
    return []


def cli_command(argv: list[str], exit_code: int, stdout: str) -> list[str]:
    """One short CLI call: exit 0, canonical JSON, every verdict true."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    if stdout != json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n":
        problems.append("stdout is not canonical JSON")
    verdicts = _verdicts(doc)
    if any(v is not True for v in verdicts):
        problems.append("a verdict in the output is not true")
    if argv[:2] == ["catalog", "list"]:
        if not all(doc.get(k) for k in ("hosts", "cocycles", "triples")):
            problems.append("catalog list is missing a section")
    elif argv[0] == "catalog":
        if doc.get("format") != "hopf-algebra.v1" or not doc.get("dim"):
            problems.append("catalog emit did not return a hopf-algebra.v1 document")
    elif argv[0] == "peter-weyl":
        blocks = doc.get("blocks", [])
        dims = [b.get("dimension", 0) for b in blocks]
        host_dim = len(doc.get("haar", []))
        if not dims or sum(d * d for d in dims) != host_dim:
            problems.append(f"block dimensions {dims} do not fill dimension {host_dim}")
    elif not verdicts:
        problems.append("no verdict in the output")
    return problems


def relative_error(got, want) -> float:
    import numpy as np

    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(np.asarray(got) - want).max()) / scale


def reference_ad_v(u, mul, star, t):
    """ad(T)[i, j, c] = sum u[i,k,a] T[k,l] (u[j,l]*)[b] mul[a,b,c], pairwise."""
    import numpy as np

    ustar = np.tensordot(np.conj(u), star, axes=([2], [1]))  # [j, l, b]
    x = np.tensordot(u, t, axes=([1], [0]))  # [i, a, l]
    y = np.tensordot(x, ustar, axes=([2], [1]))  # [i, a, j, b]
    return np.tensordot(y, mul, axes=([1, 3], [0, 1]))  # [i, j, c]


def reference_rho_sigma(ad, u, sigma_inv):
    """rho(T)[i, j] = sum ad(T)[i,k,c] u[k,j,q] sigma^-1[c,q], pairwise."""
    import numpy as np

    w = np.tensordot(ad, sigma_inv, axes=([2], [0]))  # [i, k, q]
    return np.tensordot(w, u, axes=([1, 2], [0, 2]))


def reference_operator_product(ad_a, ad_b, sigma_inv):
    """(a . b)[i, k] = sum ad(a)[i,j,c] ad(b)[j,k,d] sigma^-1[c,d], pairwise."""
    import numpy as np

    w = np.tensordot(ad_a, sigma_inv, axes=([2], [0]))  # [i, j, d]
    return np.tensordot(w, ad_b, axes=([1, 2], [0, 2]))


# relative agreement required between library results and the references
REFERENCE_TOL = 1e-9
