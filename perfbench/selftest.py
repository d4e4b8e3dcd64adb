"""Fast self-test of the benchmark harness; runs in a few seconds.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the metrics the harness prints,
that a printed result carries every metric with its unit, that the tracer's
self times add up, and that each oracle fed a corrupted output reports a
failure.  Needs numpy and the library under src/ for the corep and ladder
oracle cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_declared_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(declared == list(run.END_TO_END), "end_to_end metrics match the harness")
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(declared == tracer.per_layer_metrics(), "per_layer metrics match the tracer")
    expect(
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
        "workloads match the harness",
    )


def _fake_rep(walls: list[float]) -> dict:
    ops = [
        {"label": f"op{i}", "command": f"op{i}", "wall_s": w, "cpu_s": w,
         "problems": [], "expected_failure": False}
        for i, w in enumerate(walls)
    ]
    return {"ops": ops, "outputs": {}, "maxrss_mb": 50.0, "build_s": 0.1, "setup_s": 0.3,
            "env": {"numpy": "x"}, "layers": {}, "spans": 0}


def check_printed_result() -> None:
    """The command prints every metric with its unit, end to end and per layer."""
    saved = run.spawn, run.OUT, sys.argv
    scratch = os.path.join(run.OUT, "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        run.OUT = scratch
        run.spawn = lambda *a, **k: _fake_rep([0.5, 0.25, 1.0])
        for trace, wanted in ((0, list(run.END_TO_END)), (1, tracer.per_layer_metrics())):
            sys.argv = ["run.py", "--workload", "twist-ladder", "--seed", "7",
                        "--seconds", "0", "--trace", str(trace)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main()
            expect(code == 0, f"trace {trace}: exit code 0 when every oracle passes")
            last = json.loads(buf.getvalue().splitlines()[-1])
            printed = [(k, v["unit"]) for k, v in last["metrics"].items()]
            expect(printed == wanted, f"trace {trace}: every metric printed with its unit")
            expect(
                set(last) == {"correct", "attempted", "failed", "metrics"},
                f"trace {trace}: last line has exactly the four keys",
            )
            expect(
                all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()),
                f"trace {trace}: every value is a number",
            )
    finally:
        run.spawn, run.OUT, sys.argv = saved
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)


def check_tracer() -> None:
    t = tracer.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return leaf() + leaf()

    def failing():
        raise ValueError("boom")

    leaf = t.wrap("leaf", leaf)  # middle() now calls the traced leaf
    t.wrap("middle", middle)()
    try:
        t.wrap("failing", failing)()
    except ValueError:
        pass
    totals = tracer.layer_totals(t.spans)
    wall = sum(end - start for _, start, end, parent, *_ in t.spans if parent < 0)
    covered = sum(v["self_s"] for v in totals.values())
    expect(totals["leaf"]["calls"] == 2 and totals["middle"]["calls"] == 1, "span call counts")
    expect(abs(covered - wall) < 1e-9, "self times sum to the traced wall time")
    expect(totals["failing"]["fail"] == 1, "a raising call counts as a failure")


def check_oracles() -> None:
    import hopftwist as ht
    import numpy as np

    def dump(d):
        return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"

    doc = {
        "format": "verification-report.v1",
        "suite": "paper",
        "overall": True,
        "checks": [
            {"id": cid, "anchor": "", "detail": "", "residual": 0.0, "threshold": 1e-9,
             "passed": True, "waived": False}
            for cid in oracles.PAPER_CHECK_IDS
        ],
    }
    for c in doc["checks"]:
        if c["id"] in oracles.PAPER_WAIVED:
            c.update(passed=False, waived=True, residual=1e-16, threshold=0.5)
    good = dump(doc)
    expect(oracles.paper_suite(0, good) == [], "paper-suite oracle accepts a good report")
    bad = json.loads(good)
    bad["checks"][3]["passed"] = False
    bad["checks"][3]["residual"] = 1.0
    expect(oracles.paper_suite(0, dump(bad)) != [], "paper-suite oracle rejects a failing check")
    bad = json.loads(good)
    del bad["checks"][10]
    expect(oracles.paper_suite(0, dump(bad)) != [], "paper-suite oracle rejects a missing id")
    bad = json.loads(good)
    bad["checks"][5]["waived"] = True
    expect(oracles.paper_suite(0, dump(bad)) != [], "paper-suite oracle rejects an extra waiver")
    expect(oracles.paper_suite(1, dump(doc)) != [], "paper-suite oracle rejects exit code 1")
    expect(oracles.paper_suite(0, json.dumps(doc) + "\n") != [], "paper-suite oracle rejects non-canonical bytes")

    out = dump({"checks": [["x", 0.0]], "passed": True, "subject": "c-s3", "tolerance": 1e-9})
    expect(oracles.cli_command(["check-hopf", "c-s3"], 0, out) == [], "cli oracle accepts a pass")
    out = dump({"member": True, "twisted": {"member": False, "verdicts": [["v", 0.0, True]]},
                "verdicts": [["v", 0.0, True]]})
    expect(oracles.cli_command(["check-membership", "x"], 0, out) != [], "cli oracle rejects a false member")
    out = dump({"member": True, "verdicts": [["v", 1.0, False]]})
    expect(oracles.cli_command(["check-membership", "x"], 0, out) != [], "cli oracle rejects a false verdict")
    out = dump({"passed": True})
    expect(oracles.cli_command(["haar", "g-d4"], 2, out) != [], "cli oracle rejects a nonzero exit")
    out = dump({"blocks": [{"dimension": 1}, {"dimension": 1}], "haar": [[1, 0]] * 6})
    expect(oracles.cli_command(["peter-weyl", "c-s3"], 0, out) != [], "cli oracle rejects missing blocks")

    # corep references against the library on a small host, then corrupted
    ctx = ht.ScalarContext(seed=3)
    group = ht.klein_four_group()
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    table = np.array([[(-1.0 + 0j) ** (g[1] * h[0]) for h in bits] for g in bits])
    host = ht.group_algebra(group)
    sigma = ht.from_bicharacter(group, table, ctx, host=host)
    corep = ht.regular_corep(host, ctx)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ref_a = oracles.reference_ad_v(corep.u, host.mul, host.star, a)
    ref_b = oracles.reference_ad_v(corep.u, host.mul, host.star, b)
    tol = oracles.REFERENCE_TOL
    got = ht.ad_v(corep, a)
    expect(oracles.relative_error(got, ref_a) <= tol, "ad_v agrees with the reference")
    expect(oracles.relative_error(got + 1e-6, ref_a) > tol, "a corrupted ad_v is caught")
    want = oracles.reference_rho_sigma(ref_a, corep.u, sigma.sigma_inv)
    got = ht.rho_sigma(corep, sigma, a)
    expect(oracles.relative_error(got, want) <= tol, "rho_sigma agrees with the reference")
    expect(oracles.relative_error(got.T, want) > tol, "a corrupted rho_sigma is caught")
    want = oracles.reference_operator_product(ref_a, ref_b, sigma.sigma_inv)
    got = ht.twisted_operator_product(corep, sigma, a, b)
    expect(oracles.relative_error(got, want) <= tol, "twisted product agrees with the reference")

    # the ladder and corep oracles read verdicts: a false one fails the operation
    import workloads

    rep = workloads.Rep()
    rep.call("roundtrip", lambda: {"passed": False})
    rep.check(False, "roundtrip fails")
    rep.call("decompose", lambda: (_ for _ in ()).throw(ht.errors.DecompositionError("x")))
    rep.call("known", lambda: (_ for _ in ()).throw(ht.errors.DecompositionError("x")), expected_failure=True)
    result = {"ops": rep.ops, "outputs": {}}
    verdict = run.verdicts([result])
    expect(verdict["failed"] == 2 and verdict["attempted"] == 3, "failed oracle and raised check both count")
    expect(verdict["expected_failures"] == ["known"], "an expected failure is reported, not counted")
    other = {"ops": [], "outputs": {"verify": "different"}}
    verdict = run.verdicts([{"ops": [], "outputs": {"verify": "same"}}, other])
    expect(verdict["failed"] == 1, "outputs that differ between repetitions fail")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    check_declared_metrics()
    check_printed_result()
    check_tracer()
    check_oracles()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
