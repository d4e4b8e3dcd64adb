"""Workloads: inputs built from the seed, the timed work, and its oracle.

Every library call goes through a module attribute looked up at call time
(``ht.decompose``, ``ht.catalog.algebra``), so the traced run's rebinding
reaches it.  Each timed call is one operation; a raised ``MathCheckError``
or an oracle that finds a problem makes it a failed operation.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

# the README's short commands on catalog names, in the order they run
CLI_COMMANDS = (
    ("catalog", "list"),
    ("catalog", "emit", "g-z4z4"),
    ("check-hopf", "c-s3"),
    ("haar", "g-d4"),
    ("peter-weyl", "c-s3"),
    ("peter-weyl", "g-z4z4"),
    ("check-corep", "--host", "c-s3"),
    ("check-cocycle", "klein-bicharacter"),
    ("twist", "--host", "c-d4", "--cocycle", "klein-induced"),
    ("twist", "--host", "g-z4z4", "--cocycle", "order4-bicharacter"),
    ("roundtrip", "--host", "c-d4", "--cocycle", "klein-induced"),
    ("deform-triple", "z2z2-torus"),
    ("deform-triple", "d4-regular"),
    ("check-membership", "d4-regular", "--twisted"),
    ("check-membership", "z4z4-torus", "--twisted"),
)

# Block decomposition of function algebras of dimension 16 and up raises
# DecompositionError on some or all seeds: C(Z4xZ4) on every seed tried,
# C(D16) on some.  That is a known defect of `decompose`, so on those hosts
# the decompose steps are expected failures: they still run and are timed,
# their failures are reported (and traced as peterweyl.decompose.fail), and
# when they succeed their output is checked like any other.
KNOWN_FAILING_STEPS = ("decompose", "decompose-twisted")
KNOWN_FAILING_MIN_DIM = 16


class Rep:
    """Operations of one repetition: latency, CPU and verdict of each call."""

    def __init__(self):
        self.ops: list[dict] = []
        self.outputs: dict[str, str] = {}

    def call(
        self,
        label: str,
        fn,
        expected_failure: bool = False,
        children: bool = False,
        command: str | None = None,
    ):
        """Time fn(); return its value, or None when it raised MathCheckError.

        Operations sharing a ``command`` make one user-facing command for the
        per-command latency; by default the whole repetition is one command.
        """
        from hopftwist.errors import MathCheckError

        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        r0 = resource.getrusage(who)
        t0 = time.perf_counter()
        error = None
        try:
            value = fn()
        except MathCheckError as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        r1 = resource.getrusage(who)
        op = {
            "label": label,
            "wall_s": t1 - t0,
            "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
            "problems": [],
            "expected_failure": False,
            "command": command or "repetition",
        }
        if error is not None:
            if expected_failure:
                op["expected_failure"] = True
                op["detail"] = error
            else:
                op["problems"].append(error)
        self.ops.append(op)
        return value

    def check(self, ok: bool, problem: str) -> None:
        """Attach an oracle verdict to the operation just timed."""
        if not ok:
            self.ops[-1]["problems"].append(problem)


# ---------------------------------------------------------------- paper-suite


def paper_suite_setup(seed: int) -> dict:
    import hopftwist as ht
    import hopftwist.cli  # noqa: F401  (the entry point the workload drives)

    ctx = ht.ScalarContext(seed=seed)
    for name in ht.catalog.host_names():
        ht.catalog.algebra(name)
    for name in ht.catalog.cocycle_names():
        ht.catalog.cocycle(name, ctx)
    for name in ht.catalog.triple_names():
        ht.catalog.triple_scene(name, ctx)
    return {"seed": seed, "ht": ht}


def paper_suite_rep(state: dict, rep: Rep) -> None:
    import contextlib
    import io

    cli = state["ht"].cli
    buf = io.StringIO()
    argv = ["verify", "--suite", "paper", "--seed", str(state["seed"])]

    def run():
        with contextlib.redirect_stdout(buf):
            return cli.run(argv)

    code = rep.call("verify", run)
    out = buf.getvalue()
    rep.outputs["verify"] = out
    for problem in oracles.paper_suite(code, out):
        rep.check(False, problem)


# --------------------------------------------------------------- twist-ladder


def _bicharacter_z4z4():
    import numpy as np

    pairs = [(a, b) for a in range(4) for b in range(4)]
    return np.array([[1j ** (g[1] * h[0]) for h in pairs] for g in pairs])


def _klein_table():
    import numpy as np

    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    return np.array([[(-1.0 + 0j) ** (g[1] * h[0]) for h in bits] for g in bits])


def twist_ladder_setup(seed: int) -> dict:
    import hopftwist as ht

    klein = ht.klein_four_group()
    z4z4 = ht.direct_product(ht.cyclic_group(4), ht.cyclic_group(4))
    hosts = []
    for m in (4, 8, 16):
        group = ht.dihedral_group(m)
        # the Klein subgroup {e, r^(m/2), s, r^(m/2) s}; index k + m*f is r^k s^f
        subgroup = (0, m // 2, m, m + m // 2)
        hosts.append((f"C(D{m})", "dihedral", group, ht.function_algebra(group), subgroup))
    hosts.append(("G(Z4xZ4)", "bicharacter", z4z4, ht.group_algebra(z4z4), None))
    hosts.append(("C(Z4xZ4)", "fourier", z4z4, ht.function_algebra(z4z4), None))
    return {
        "ht": ht,
        "ctx": ht.ScalarContext(seed=seed),
        "klein": klein,
        "c_klein": ht.function_algebra(klein),
        "klein_table": _klein_table(),
        "z4z4_table": _bicharacter_z4z4(),
        "hosts": hosts,
    }


def _ladder_cocycle(state: dict, kind: str, group, host, subgroup):
    ht, ctx = state["ht"], state["ctx"]
    if kind == "dihedral":
        klein_fourier = ht.catalog.fourier_transport(
            state["klein"], state["klein_table"], state["c_klein"], ctx
        )
        mor = ht.catalog.restriction_morphism(
            group, subgroup, ctx, source=host, target=state["c_klein"]
        )
        return ht.induce(klein_fourier, mor, ctx)
    if kind == "bicharacter":
        return ht.from_bicharacter(group, state["z4z4_table"], ctx, host=host)
    return ht.catalog.fourier_transport(group, state["z4z4_table"], host, ctx)


def _check_blocks(rep: Rep, pw, dim: int) -> None:
    if pw is not None:
        dims = pw.dimensions
        rep.check(sum(d * d for d in dims) == dim, f"blocks {dims} do not fill dimension {dim}")


def twist_ladder_rep(state: dict, rep: Rep) -> None:
    from hopftwist.peterweyl import haar_invariance_residual

    ht, ctx = state["ht"], state["ctx"]
    for name, kind, group, host, subgroup in state["hosts"]:
        n = host.dim
        function_algebra = kind != "bicharacter"
        known_defect = function_algebra and n >= KNOWN_FAILING_MIN_DIM

        def step(what, fn):
            return rep.call(
                f"{name} {what}",
                fn,
                expected_failure=known_defect and what in KNOWN_FAILING_STEPS,
            )

        sigma = step("cocycle", lambda: _ladder_cocycle(state, kind, group, host, subgroup))
        if sigma is None:
            continue
        rep.check(sigma.host is host, "cocycle attached to another host")
        axioms = step("verify_hopf_axioms", lambda: ht.verify_hopf_axioms(host, ctx))
        if axioms is not None:
            rep.check(axioms.passed, f"axioms fail: {axioms.failing()}")
        h = step("haar_state", lambda: ht.haar_state(host, ctx))
        if h is not None:
            rep.check(ctx.close(haar_invariance_residual(h)), "Haar state is not invariant")
        pw = step("decompose", lambda: ht.decompose(host, h, ctx)) if h is not None else None
        _check_blocks(rep, pw, n)
        tw = step("twist_algebra", lambda: ht.twist_algebra(host, sigma, ctx))
        if tw is None:
            continue
        rep.check(tw.transcript.passed, f"twisted axioms fail: {tw.transcript.failing()}")
        h_tw = step("haar_state-twisted", lambda: ht.haar_state(tw.twisted, ctx))
        if h_tw is not None:
            rep.check(ctx.close(haar_invariance_residual(h_tw)), "twisted Haar state is not invariant")
        pw_tw = None
        if h_tw is not None:
            pw_tw = step("decompose-twisted", lambda: ht.decompose(tw.twisted, h_tw, ctx))
        _check_blocks(rep, pw_tw, n)
        rt = step("roundtrip", lambda: ht.roundtrip(host, sigma, ctx))
        if rt is not None:
            rep.check(
                bool(rt["passed"]) and bool(rt["coalgebra_identical"]) and rt["residual"] <= ctx.tolerance,
                f"roundtrip fails (residual {rt['residual']:.3g})",
            )
        if pw is None or pw_tw is None:
            continue
        rel = step("f_matrix_relation", lambda: ht.f_matrix_relation(tw, pw, pw_tw, ctx))
        if rel is not None:
            rep.check(
                len(rel) == len(pw.blocks) and all(r["passed"] for r in rel),
                "an F-matrix relation fails",
            )


# ------------------------------------------------------------------- corep-32


def corep32_setup(seed: int) -> dict:
    import numpy as np

    import hopftwist as ht

    ctx = ht.ScalarContext(seed=seed)
    group = ht.direct_product(ht.cyclic_group(4), ht.cyclic_group(8))
    pairs = [(a, b) for a in range(4) for b in range(8)]
    g1 = np.array([p[1] % 4 for p in pairs])
    h0 = np.array([p[0] for p in pairs])
    beta = np.exp(2j * np.pi * np.outer(g1, h0) / 4)
    # a bicharacter is a 2-cocycle on the group algebra; checking it is
    # multiplicative in each slot stands in for the n = 32 cocycle check,
    # which the twist ladder times
    table = group.table
    if not (
        np.allclose(beta[:, table], beta[:, :, None] * beta[:, None, :])
        and np.allclose(beta[table, :], beta[:, None, :] * beta[None, :, :])
    ):
        raise SystemExit("corep-32 table is not a bicharacter")
    host = ht.group_algebra(group)
    sigma = ht.DualCocycle(host, beta, ctx=ctx)
    rng = np.random.default_rng(seed)
    shape = (host.dim, host.dim)
    ops = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
    return {
        "ht": ht,
        "ctx": ctx,
        "host": host,
        "sigma": sigma,
        "ops": ops,
        "volume": ht.RTwistedVolume(np.eye(host.dim, dtype=np.complex128)),
    }


def corep32_rep(state: dict, rep: Rep) -> None:
    ht, ctx, host, sigma = state["ht"], state["ctx"], state["host"], state["sigma"]
    a, b = state["ops"]
    tol = oracles.REFERENCE_TOL
    corep = rep.call("regular_corep", lambda: ht.regular_corep(host, ctx))
    if corep is None:
        return
    report = rep.call("verify_corep", lambda: ht.verify_corep(corep, ctx))
    if report is not None:
        rep.check(report.passed, f"corep checks fail: {report.failing()}")
    h = rep.call("haar_state", lambda: ht.haar_state(host, ctx))
    pw = rep.call("decompose", lambda: ht.decompose(host, h, ctx)) if h is not None else None
    _check_blocks(rep, pw, host.dim)
    if pw is not None:
        sd = rep.call("decompose_corep", lambda: ht.decompose_corep(corep, pw, ctx))
        if sd is not None:
            spanned = sum(e["multiplicity"] * e["basis"].shape[1] for e in sd.entries)
            rep.check(spanned == corep.hdim and ctx.close(sd.residual), "adapted bases are wrong")
    vol = rep.call(
        "check_volume_preservation",
        lambda: ht.check_volume_preservation(corep, state["volume"], ctx),
    )
    if vol is not None:
        rep.check(vol["passed"], f"identity volume not preserved ({vol['residual']:.3g})")

    ref_a = oracles.reference_ad_v(corep.u, host.mul, host.star, a)
    ad_a = rep.call("ad_v", lambda: ht.ad_v(corep, a))
    if ad_a is not None:
        err = oracles.relative_error(ad_a, ref_a)
        rep.check(err <= tol, f"ad_v differs from the reference by {err:.3g}")
    rho = rep.call("rho_sigma", lambda: ht.rho_sigma(corep, sigma, a))
    if rho is not None:
        err = oracles.relative_error(rho, oracles.reference_rho_sigma(ref_a, corep.u, sigma.sigma_inv))
        rep.check(err <= tol, f"rho_sigma differs from the reference by {err:.3g}")
    prod = rep.call(
        "twisted_operator_product", lambda: ht.twisted_operator_product(corep, sigma, a, b)
    )
    if prod is not None:
        ref_b = oracles.reference_ad_v(corep.u, host.mul, host.star, b)
        want = oracles.reference_operator_product(ref_a, ref_b, sigma.sigma_inv)
        err = oracles.relative_error(prod, want)
        rep.check(err <= tol, f"twisted_operator_product differs from the reference by {err:.3g}")


# -------------------------------------------------------------------- cli-mix


def cli_mix_setup(seed: int) -> dict:
    import hopftwist.cli  # noqa: F401  (what every short command imports)

    return {"seed": seed}


def cli_mix_rep(state: dict, rep: Rep, spans_dir: str | None = None) -> list[str]:
    """One pass over CLI_COMMANDS, each in a fresh process.

    Untraced, the command is ``python3 -m hopftwist``; traced, the worker's
    CLI mode runs the same entry point with tracing and writes its spans to
    a file in spans_dir.  Returns the span files written.
    """
    span_files = []
    for idx, command in enumerate(CLI_COMMANDS):
        argv = [*command, "--seed", str(state["seed"])]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "hopftwist", *argv]
        else:
            span_file = os.path.join(spans_dir, f"cmd{idx:02d}.json")
            span_files.append(span_file)
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli", "--spans", span_file, "--", *argv]

        def run(cmd=cmd):  # the worker's PYTHONPATH points the command at src/
            return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

        label = " ".join(command)
        proc = rep.call(label, run, children=True, command=label)
        rep.outputs[label] = proc.stdout
        for problem in oracles.cli_command(list(command), proc.returncode, proc.stdout):
            rep.check(False, problem)
        if proc.returncode != 0:
            rep.check(False, proc.stderr.strip()[-300:])
    return span_files


WORKLOADS = {
    "paper-suite": (paper_suite_setup, paper_suite_rep),
    "twist-ladder": (twist_ladder_setup, twist_ladder_rep),
    "corep-32": (corep32_setup, corep32_rep),
    "cli-mix": (cli_mix_setup, cli_mix_rep),
}
