import gc
import json
import subprocess
import sys

import numpy as np
import pytest

from hopftwist import catalog, cli, serialize
from hopftwist.cli import run
from hopftwist.serialize import (
    algebra_from_doc,
    algebra_to_doc,
    canonical_dumps,
    host_hash,
    parse_document,
    twist_transcript_to_doc,
)


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_verify_paper_suite_passes_and_names_many_checks(capsys):
    code = run(["verify", "--suite", "paper"])
    out, _ = _capture(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "paper"
    assert doc["overall"] is True
    assert len(doc["checks"]) >= 20
    ids = [c["id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))
    waived = [c for c in doc["checks"] if c["waived"]]
    assert [c["id"] for c in waived] == ["05.twist.c-d4.noncommutativity"]


def test_verify_paper_suite_text_lists_every_check_in_id_order(capsys):
    code = run(["verify", "--suite", "paper", "--format", "text", "--seed", "7"])
    out, _ = _capture(capsys)
    assert code == 0
    *lines, summary = out.splitlines()
    statuses = [line.split()[0] for line in lines]
    ids = [line.split()[1] for line in lines]
    assert len(ids) == 78
    assert ids == sorted(set(ids))
    assert statuses.count("PASS") == 77
    assert [i for i, s in zip(ids, statuses) if s != "PASS"] == ["05.twist.c-d4.noncommutativity"]
    assert statuses[ids.index("05.twist.c-d4.noncommutativity")] == "XFAIL"
    assert summary.startswith("suite paper: PASS (77/78 checks, 1 waived) in ")


def test_check_hopf_flags_broken_associativity(tmp_path, capsys):
    code = run(["catalog", "emit", "c-z2"])
    out, _ = _capture(capsys)
    assert code == 0
    doc = json.loads(out)
    # an off-diagonal product entry: scaling it breaks associativity
    doc["mul"][0][1] = [[0.3, 0.0], [0.0, 0.0]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = run(["check-hopf", str(broken)])
    out, err = _capture(capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failing = [name for name, residual in payload["checks"] if residual > 1e-9]
    assert "associativity" in failing


def test_catalog_emit_roundtrips_through_check_hopf(tmp_path, capsys):
    code = run(["catalog", "emit", "c-z2"])
    out, _ = _capture(capsys)
    assert code == 0
    host = algebra_from_doc(parse_document(out))
    assert host.dim == 2
    assert np.array_equal(host.mul, catalog.algebra("c-z2").mul)
    path = tmp_path / "c-z2.json"
    path.write_text(out)
    assert run(["check-hopf", str(path)]) == 0
    _capture(capsys)


def test_catalog_list_names_everything(capsys):
    assert run(["catalog", "list"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert set(doc["hosts"]) == set(catalog.host_names())
    assert set(doc["cocycles"]) == set(catalog.cocycle_names())
    assert set(doc["triples"]) == set(catalog.triple_names())


def test_unknown_names_and_flags_exit_2(capsys):
    assert run(["check-hopf", "no-such-host"]) == 2
    _capture(capsys)
    assert run(["verify", "--suite", "unknown"]) == 2
    _capture(capsys)
    assert run(["--tolerance", "-1", "catalog", "list"]) == 2
    _capture(capsys)
    # nan <= 0 is false, and inf would pass every check
    for tolerance in ("nan", "inf"):
        assert run(["--tolerance", tolerance, "check-hopf", "c-s3"]) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert run(["no-such-command"]) == 2
    _capture(capsys)
    assert run(["catalog", "emit", "c-z2", "--no-such-flag"]) == 2
    _capture(capsys)


@pytest.mark.parametrize("value", ("NaN", "Infinity"))
def test_non_finite_document_entries_exit_2_without_traceback(value, tmp_path, capsys):
    code = run(["catalog", "emit", "c-z2"])
    out, _ = _capture(capsys)
    assert code == 0
    # json.loads accepts the bare NaN / Infinity tokens, so splice one in
    text = out.replace('"antipode":[[[1.0,0.0]', f'"antipode":[[[{value},0.0]', 1)
    assert text != out
    path = tmp_path / "non-finite.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "hopftwist", "check-hopf", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", (["peter-weyl", "c-z2"], ["verify", "--suite", "paper"]))
def test_negative_seed_exits_2_without_traceback(command):
    proc = subprocess.run(
        [sys.executable, "-m", "hopftwist", "--seed", "-1", *command],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _klein_document(tmp_path, capsys, entry):
    """The klein-bicharacter document with sigma[1, 1] set to entry."""
    assert run(["catalog", "emit", "klein-bicharacter"]) == 0
    doc = json.loads(_capture(capsys)[0])
    doc["sigma"][1][1] = entry
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("entry", ([2.0, 0.0], [0.0, 1.0]), ids=("not-unitary", "not-a-cocycle"))
def test_check_cocycle_exits_1_off_a_unitary_cocycle(entry, tmp_path, capsys):
    code = run(["check-cocycle", _klein_document(tmp_path, capsys, entry), "--host", "g-z2z2"])
    out, err = _capture(capsys)
    assert code == 1
    if entry == [2.0, 0.0]:
        # sigma^-1 = sigma* fails its two-sided residual: no report is built
        assert out == ""
        assert err.startswith("check failed: not unitary: ")
    else:
        # a table of phases is unitary, so only the cocycle identity fails
        report = json.loads(out)
        failing = [name for name, r in report["checks"] if r > report["tolerance"]]
        assert failing == ["cocycle-identity"]
        assert err == ""


def test_check_cocycle_reads_a_document_at_the_given_tolerance(tmp_path, capsys):
    # sigma is unitary to 2e-7: the default tolerance rejects it as it is
    # built, and --tolerance 1e-3 accepts it there and in every check
    path = _klein_document(tmp_path, capsys, [1.0 + 1e-7, 0.0])
    assert run(["check-cocycle", path, "--host", "g-z2z2"]) == 1
    assert _capture(capsys)[1].startswith("check failed: not unitary: ")
    assert run(["--tolerance", "1e-3", "check-cocycle", path, "--host", "g-z2z2"]) == 0
    assert json.loads(_capture(capsys)[0])["passed"] is True


def test_cocycle_commands_leave_numpy_ma_unimported():
    # numpy.ma takes about 17 ms to import, in every fresh CLI process
    script = (
        "import contextlib, io, sys\n"
        "from hopftwist.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['twist', '--host', 'c-d4', '--cocycle', 'klein-induced']),\n"
        "             run(['check-cocycle', 'klein-bicharacter'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.split() == ["[0,", "0]", "False"], proc.stderr


def test_commands_load_numpy_random_and_hashlib_only_where_used():
    # a fresh process, as the test process has both loaded already: no
    # command draws from numpy.random (+2.9 MB), and hashlib's OpenSSL
    # (+3.5 MB) loads only when a command hashes
    script = (
        "import contextlib, io, sys\n"
        "from hopftwist.cli import run\n"
        "def loaded():\n"
        "    return ['numpy.random' in sys.modules, '_hashlib' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['catalog', 'list']), run(['check-hopf', 'c-s3']),\n"
        "             run(['deform-triple', 'd4-regular'])]\n"
        "    unhashed = loaded()\n"
        "    codes += [run(['peter-weyl', 'c-s3']),\n"
        "              run(['verify', '--suite', 'paper', '--seed', '7'])]\n"
        "print(codes, unhashed, loaded()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    want = ["[0,", "0,", "0,", "0,", "0]", "[False,", "False]", "False"]
    assert proc.stdout.split() == want, proc.stderr


def _overflowing_document(tmp_path, capsys):
    """C(Z2) with mul scaled by 1e308: every entry stays finite, but the
    residuals overflow to NaN."""
    assert run(["catalog", "emit", "c-z2"]) == 0
    doc = json.loads(_capture(capsys)[0])
    doc["mul"] = (np.asarray(doc["mul"]) * 1e308).tolist()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return doc, path


def test_check_hopf_on_an_overflowing_document_writes_one_stderr_line(tmp_path, capsys):
    _, path = _overflowing_document(tmp_path, capsys)
    # a fresh process, where numpy warns on each first overflow
    proc = subprocess.run(
        [sys.executable, "-m", "hopftwist", "check-hopf", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("check failed: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_math_failure_exits_1_and_reports_on_stderr(tmp_path, capsys):
    from hopftwist import SpectralTriple
    from hopftwist.serialize import canonical_dumps, triple_to_doc

    scene = catalog.triple_scene("z2z2-torus")
    bad_dirac = np.diag([0.0, 1.0, 2.0, 3.0]).astype(np.complex128)
    bad_dirac[0, 1] = bad_dirac[1, 0] = 0.4
    st = SpectralTriple(4, scene["triple"].generators, bad_dirac)
    path = tmp_path / "bad-triple.json"
    path.write_text(canonical_dumps(triple_to_doc(st)))
    code = run(
        [
            "deform-triple",
            str(path),
            "--host",
            "g-z2z2",
            "--cocycle",
            "klein-bicharacter",
        ]
    )
    _, err = _capture(capsys)
    assert code == 1
    assert "check failed" in err


def test_out_flag_writes_the_payload_to_a_file(tmp_path, capsys):
    target = tmp_path / "pw.json"
    assert run(["peter-weyl", "c-s3", "--out", str(target)]) == 0
    _capture(capsys)
    doc = json.loads(target.read_text())
    dims = sorted(b["dimension"] for b in doc["blocks"])
    assert dims == [1, 1, 2]


def test_flags_are_accepted_before_and_after_the_subcommand(capsys):
    assert run(["--seed", "11", "catalog", "emit", "c-z2"]) == 0
    first, _ = _capture(capsys)
    assert run(["catalog", "emit", "c-z2", "--seed", "11"]) == 0
    second, _ = _capture(capsys)
    assert first == second


def test_cheap_commands_are_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert run(["peter-weyl", "g-d4"]) == 0
        out, _ = _capture(capsys)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n")


def test_text_format_renders_human_readable_lines(capsys):
    assert run(["check-hopf", "c-s3", "--format", "text"]) == 0
    out, _ = _capture(capsys)
    assert "PASS" in out
    assert "associativity" in out


def test_twist_subcommand_emits_transcript_and_algebra(capsys):
    assert run(["twist", "--host", "c-d4", "--cocycle", "klein-induced"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["transcript"]["report"]["passed"] is True
    twisted = algebra_from_doc(doc["twisted"])
    assert twisted.dim == 8


@pytest.mark.parametrize(
    "host, cocycle", (("c-d4", "klein-induced"), ("g-z4z4", "order4-bicharacter"))
)
def test_twist_encodes_the_twisted_host_once(host, cocycle, monkeypatch, capsys):
    twists, starts = [], []
    twist_algebra, encode = cli.twist_algebra, serialize.encode_array
    monkeypatch.setattr(
        cli, "twist_algebra", lambda *a: twists.append(twist_algebra(*a)) or twists[-1]
    )

    def recorded(a):
        # a large array is encoded in runs of leading slices: one encoding of
        # it is one run at its first entry
        if isinstance(a, np.ndarray):
            starts.append(a.ctypes.data)
        return encode(a)

    monkeypatch.setattr(serialize, "encode_array", recorded)
    assert run(["twist", "--host", host, "--cocycle", cocycle]) == 0
    out, _ = _capture(capsys)
    (tw,) = twists
    assert starts.count(tw.twisted.mul.ctypes.data) == 1
    # the bytes of the document made whole, the hash being that of the host
    doc = {"transcript": twist_transcript_to_doc(tw), "twisted": algebra_to_doc(tw.twisted)}
    assert out == canonical_dumps(doc) + "\n"
    assert json.loads(out)["transcript"]["twisted"] == host_hash(tw.twisted)


@pytest.mark.parametrize("code", (0, 1, 2))
def test_main_exits_with_the_code_of_run_and_freezes_once_after_it(code, monkeypatch):
    # both patched, so the test process's heap is never frozen
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "run", lambda argv=None: events.append("run") or code)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert events == ["run", "freeze"]


def test_run_leaves_the_collector_alone(monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(1))
    codes = [
        run(["catalog", "list"]),
        run(["haar", "nosuch"]),
        run(["--tolerance", "1e-18", "haar", "c-s3"]),
        run(["twist", "--host", "c-d4", "--cocycle", "klein-induced"]),
    ]
    _capture(capsys)
    assert codes == [0, 2, 1, 0]
    assert frozen == [] and gc.isenabled()


def test_the_frozen_exit_writes_every_byte_and_keeps_the_exit_codes(tmp_path):
    def command(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hopftwist", *argv], capture_output=True, timeout=120
        )

    twist = ["twist", "--host", "c-d4", "--cocycle", "klein-induced"]
    target = tmp_path / "twist.json"
    written, printed = command(*twist, "--out", str(target)), command(*twist)
    assert written.returncode == printed.returncode == 0
    assert written.stdout == b""
    assert target.read_bytes() == printed.stdout
    assert printed.stdout.endswith(b"}\n")
    unknown = command("haar", "nosuch")
    assert unknown.returncode == 2 and unknown.stderr.startswith(b"error:")
    strict = command("--tolerance", "1e-18", "haar", "c-s3")
    assert strict.returncode == 1 and strict.stderr.startswith(b"check failed:")


def test_deform_triple_accepts_a_scene_name(capsys):
    assert run(["deform-triple", "z2z2-torus"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["dirac_unchanged"] is True
    assert doc["commutator_identity"] <= 1e-9
    assert doc["passed"] is True


def test_check_membership_reports_twisted_verdicts(capsys):
    assert run(["check-membership", "d4-regular", "--twisted"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["member"] is True
    assert doc["twisted"]["member"] is True


def _cli(*argv):
    """Exit code, stdout and stderr of one fresh CLI process."""
    proc = subprocess.run(
        [sys.executable, "-m", "hopftwist", *argv], capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def _emitted_triple(name, capsys):
    assert run(["catalog", "emit", name]) == 0
    out, _ = _capture(capsys)
    return json.loads(out)


def test_check_hopf_on_a_non_finite_residual_exits_1_and_names_it(tmp_path, capsys):
    from hopftwist.core import verify_hopf_axioms

    doc, path = _overflowing_document(tmp_path, capsys)
    with np.errstate(all="ignore"):
        checks = verify_hopf_axioms(algebra_from_doc(doc)).checks
        first = next(name for name, r in checks if not np.isfinite(r))
        code = run(["check-hopf", str(path)])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: ") and err.count("\n") == 1
    assert "non-finite" in err and f"({first})" in err


def test_check_membership_document_pins_each_verdict(capsys):
    from hopftwist import (
        ScalarContext,
        UnitaryCorep,
        check_volume_preservation,
        equivariance_residual,
        r_sigma,
        twist_algebra,
        verify_corep,
    )

    assert run(["check-membership", "d4-regular", "--twisted"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    ctx = ScalarContext()
    scene = catalog.triple_scene("d4-regular", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    corep, dirac, volume = scene["corep"], scene["triple"].dirac, scene["volume"]
    twisted = UnitaryCorep(tw.twisted, corep.hdim, corep.u)
    sides = ((doc, corep, volume), (doc["twisted"], twisted, r_sigma(volume, corep, tw.v, ctx)))
    for side, c, rv in sides:
        residuals = (
            max(r for _, r in verify_corep(c, ctx).checks),
            float(equivariance_residual(c, dirac)),
            float(check_volume_preservation(c, rv, ctx)["residual"]),
        )
        names = ["corep-valid", "dirac-commutes", "volume-preserved"]
        assert side["verdicts"] == [[n, r, True] for n, r in zip(names, residuals)]
        assert side["member"] is True
        assert side["tolerance"] == ctx.tolerance
    assert sorted(doc) == ["format", "member", "subject", "tolerance", "twisted", "verdicts"]
    assert doc["format"] == "category-report.v1"
    assert doc["subject"] == "d4-regular"
    assert sorted(doc["twisted"]) == ["member", "subject", "tolerance", "verdicts"]
    assert doc["twisted"]["subject"] == "d4-regular^sigma"


def test_check_membership_flags_a_skewed_volume_document(tmp_path, capsys):
    from hopftwist.serialize import encode_array

    doc = _emitted_triple("d4-regular", capsys)
    # the volume of test_membership_flags_a_non_preserving_volume
    doc["r"] = encode_array(np.diag(np.arange(1.0, 9.0)))
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(doc))
    code = run(["check-membership", str(path), "--host", "c-d4", "--cocycle", "klein-induced"])
    out, _ = _capture(capsys)
    assert code == 1
    report = json.loads(out)
    assert report["member"] is False
    assert [[name, ok] for name, _, ok in report["verdicts"]] == [
        ["corep-valid", True],
        ["dirac-commutes", True],
        ["volume-preserved", False],
    ]
    assert "twisted" not in report


def test_check_membership_on_a_triple_of_another_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(_emitted_triple("z2z2-torus", capsys)))
    for command in ("check-membership", "deform-triple"):
        code, out, err = _cli(command, str(path), "--host", "c-d4", "--cocycle", "klein-induced")
        assert code == 2, err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""


def test_deform_triple_without_generators_exits_0(tmp_path, capsys):
    doc = _emitted_triple("z2z2-torus", capsys)
    doc["generators"], doc["labels"] = [], []
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps(doc))
    code, out, err = _cli(
        "deform-triple", str(path), "--host", "g-z2z2", "--cocycle", "klein-bicharacter"
    )
    assert code == 0, err
    result = json.loads(out)
    assert result["spectral_dimension"] == result["generated_dimension"] == 1
    assert result["generator_blocks"] == []
    assert result["passed"] is True


def test_haar_check_corep_and_roundtrip_pass_in_process(capsys):
    assert run(["haar", "g-d4"]) == 0
    doc = json.loads(_capture(capsys)[0])
    # on a group algebra the Haar state is the counit at the identity
    assert doc["coeffs"][0] == [1.0, 0.0] and doc["passed"] is True
    assert doc["host"] == host_hash(catalog.algebra("g-d4"))
    assert run(["check-corep", "--host", "c-s3"]) == 0
    doc = json.loads(_capture(capsys)[0])
    assert doc["subject"] == "regular-corep" and doc["passed"] is True
    assert [name for name, _ in doc["checks"]] == [
        "corep-law", "corep-counit", "unitarity-right", "unitarity-left"]
    assert run(["roundtrip", "--host", "c-d4", "--cocycle", "klein-induced"]) == 0
    doc = json.loads(_capture(capsys)[0])
    assert doc["passed"] is True and doc["coalgebra_identical"] is True


def test_catalog_list_text_indents_each_name_under_its_kind(capsys):
    assert run(["catalog", "list", "--format", "text"]) == 0
    lines = _capture(capsys)[0].splitlines()
    want = []
    for kind, names in (("hosts", catalog.host_names()), ("cocycles", catalog.cocycle_names()),
                        ("triples", catalog.triple_names())):
        want += [f"{kind}:", *(f"  {name}" for name in names)]
    assert lines == want


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_dumps(doc))
    return str(path)


def test_induce_cocycle_writes_the_catalog_klein_induced_document(tmp_path, capsys, ctx):
    mor = _write(tmp_path, "mor.json",
                 serialize.morphism_to_doc(catalog.d4_klein_restriction(ctx)))
    argv = ["induce-cocycle", mor, "--cocycle", "klein-fourier", "--source", "c-d4",
            "--target", "c-z2z2"]
    assert run(argv) == 0
    induced = _capture(capsys)[0]
    assert run(["catalog", "emit", "klein-induced"]) == 0
    assert induced == _capture(capsys)[0]


def test_a_triple_document_with_a_corep_document_deforms_as_its_scene(tmp_path, capsys, ctx):
    corep = serialize.corep_to_doc(catalog.triple_scene("d4-regular", ctx)["corep"])
    assert run(["catalog", "emit", "d4-regular"]) == 0
    triple = tmp_path / "triple.json"
    triple.write_text(_capture(capsys)[0])
    argv = ["deform-triple", str(triple), "--host", "c-d4", "--cocycle", "klein-induced",
            "--corep", _write(tmp_path, "corep.json", corep)]
    assert run(argv) == 0
    from_documents = _capture(capsys)[0]
    assert run(["deform-triple", "d4-regular"]) == 0
    assert from_documents == _capture(capsys)[0]


def test_missing_or_unmatched_inputs_exit_2(tmp_path, capsys):
    assert run(["catalog", "emit", "klein-fourier"]) == 0
    sigma = tmp_path / "sigma.json"
    sigma.write_text(_capture(capsys)[0])
    assert run(["catalog", "emit", "z2z2-torus"]) == 0
    triple = tmp_path / "triple.json"
    triple.write_text(_capture(capsys)[0])
    cases = {
        "cannot read": ["check-corep", "--host", "c-s3", str(tmp_path / "missing.json")],
        "needs --host": ["check-cocycle", str(sigma)],
        "needs a name": ["catalog", "emit"],
        "unknown catalog name": ["catalog", "emit", "no-such-name"],
        "lives on 'c-d4'": ["twist", "--host", "c-s3", "--cocycle", "klein-induced"],
        "neither a catalog cocycle": ["roundtrip", "--host", "c-s3", "--cocycle", "no-such"],
        "needs --host and --cocycle": ["deform-triple", str(triple), "--host", "g-z2z2"],
    }
    for message, argv in cases.items():
        assert run(argv) == 2, argv
        out, err = _capture(capsys)
        assert out == "" and err.startswith("error:") and message in err, (argv, err)
