"""CLI surface: subcommands, JSON interfaces, exit codes, caching."""

import json
import os
import subprocess
import sys

import pytest

from wittlab.cli import main
from wittlab.reports import SuiteReport, parse_report_json, render_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_stable_rank_command(capsys):
    code, out = run_cli(capsys, "stable-rank", "--ring", "gf2")
    assert code == 0
    data = json.loads(out)
    assert data["sr"] == 1


def test_usr_command(capsys):
    code, out = run_cli(capsys, "usr", "--ring", "gf2", "--epsilon", "1")
    assert code == 0
    data = json.loads(out)
    assert data["usr"] <= 2 and data["semi_local_bound_ok"]


def test_usr_full_u_mode(capsys):
    code, out = run_cli(capsys, "usr", "--ring", "gf2", "--eu-mode", "full-u")
    assert code == 0
    data = json.loads(out)
    assert all(r["mode"] in (None, "full-u") for r in data["reports"])


def test_inline_json_ring(capsys):
    code, out = run_cli(capsys, "stable-rank", "--ring",
                        '{"kind": "zmod", "n": 6}')
    assert code == 0
    assert json.loads(out)["sr"] == 1


def test_straighten_command(capsys):
    # e_2 in H^3 over GF(2)
    code, out = run_cli(capsys, "straighten", "--ring", "gf2",
                        "--qm", "H^3", "--seq", "[[0,0,1,0,0,0]]", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verified"]
    img = data["images"][0]
    assert all(v == 0 for v in img[2:])  # landed in P + H^1


def test_transitive_move_command(capsys):
    code, out = run_cli(capsys, "transitive-move", "--ring", "gf2",
                        "--qm", "H^2", "--v", "[0,0,1,0]")
    assert code == 0
    data = json.loads(out)
    assert data["image"] == data["target"] == [1, 0, 0, 0]


def test_cancel_command(capsys):
    code, out = run_cli(capsys, "cancel", "--ring", "gf2",
                        "--qm", "H^1", "--qn", "H^1")
    assert code == 0
    assert json.loads(out)["verified"]


def test_complex_verify_and_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    instance = json.dumps({"ring": "gf2", "module": "free:2"})
    code, out = run_cli(capsys, "complex", "verify", "--theorem", "gl",
                        "--instance", instance)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["result"] in ("homology-verified", "fully-verified")
    assert not data.get("cached")
    # second run must come from the cache and agree
    code2, out2 = run_cli(capsys, "complex", "verify", "--theorem", "gl",
                          "--instance", instance)
    data2 = json.loads(out2)
    assert code2 == 0 and data2["cached"]
    assert data2["verdict"] == data["verdict"]
    # cache invalidation: fresh recomputation equals the cached result
    code3, out3 = run_cli(capsys, "complex", "verify", "--theorem", "gl",
                          "--instance", instance, "--no-cache")
    data3 = json.loads(out3)
    assert data3["verdict"] == data["verdict"]


def test_complex_empty_poset_is_refuted(tmp_path, capsys, monkeypatch):
    # an empty poset at d >= -1 refutes non-emptiness: exit 2, fresh or cached
    from wittlab import verify
    from wittlab.posets import SequencePoset

    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(verify, "gl_poset", lambda M, cap=None: SequencePoset(
        "empty", [], lambda seq: True))
    instance = json.dumps({"ring": "gf2", "module": "free:2"})
    for cached in (False, True):
        code, out = run_cli(capsys, "complex", "verify", "--theorem", "gl",
                            "--instance", instance)
        data = json.loads(out)
        assert bool(data.get("cached")) == cached
        assert data["verdict"]["result"] == "refuted"
        assert data["verdict"]["detail"] == {"reason": "no vertices"}
        assert code == 2


def test_complex_cap_exits_are_inconclusive(capsys):
    # GF(2) H^7 has 16384 elements: past the Witt-search and pair-table caps;
    # GF(2)^13 has 8192: past the module-enumeration cap.  mu-poset's build
    # only counts mu_poset's vertices, which no cap stops.
    h7 = {"ring": "gf2", "quadratic": "H^7"}
    cases = [(t, a, h7) for t in ("iu", "hu", "lambda-poset")
             for a in ("verify", "homology", "build")]
    cases += [("mu-poset", a, h7) for a in ("verify", "homology")]
    cases += [("gl", a, {"ring": "gf2", "module": "free:13"})
              for a in ("verify", "homology", "build")]
    for theorem, action, instance in cases:
        code, out = run_cli(capsys, "complex", action, "--theorem",
                            theorem, "--instance", json.dumps(instance))
        data = json.loads(out)
        assert data["verdict"]["result"] == "inconclusive"
        assert data["verdict"]["detail"]["reason"]
        assert code == 1


def test_complex_cache_misses_after_source_change(tmp_path, capsys,
                                                  monkeypatch):
    from wittlab import cli

    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    instance = json.dumps({"ring": "gf2", "module": "free:2"})
    argv = ("complex", "verify", "--theorem", "gl", "--instance", instance)
    run_cli(capsys, *argv)
    code, out = run_cli(capsys, *argv)
    assert json.loads(out)["cached"]
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and not json.loads(out).get("cached")
    # every write went through a temp file that was renamed into place
    assert not list(tmp_path.glob("*.tmp"))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_complex_hu_tiers(capsys):
    instance = json.dumps({"ring": "gf2", "quadratic": "H^1"})
    code, out = run_cli(capsys, "complex", "verify", "--theorem", "hu",
                        "--instance", instance)
    assert code == 0
    assert json.loads(out)["verdict"]["result"] == "vacuous"


def test_suite_command_and_reports(tmp_path, capsys):
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    code, out = run_cli(capsys, "suite", "blocks", "--json", str(jpath),
                        "--csv", str(cpath))
    assert code == 0
    assert "suite blocks" in out
    rep = parse_report_json(jpath.read_text())
    assert rep.suite == "blocks"
    csv_text = cpath.read_text()
    assert csv_text.splitlines()[0] == "suite,case,status,critical,inconclusive"
    # round trip: parse then re-render matches
    assert render_csv(rep) == csv_text


def test_report_determinism():
    from wittlab.suites import run_suite

    r1 = run_suite("blocks", seed=3)
    r2 = run_suite("blocks", seed=3)
    assert r1.digest() == r2.digest()
    assert r1.to_json(with_timing=False) == r2.to_json(with_timing=False)


def test_empty_report_csv():
    rep = SuiteReport("empty").finish()
    assert render_csv(rep) == "suite,case,status,critical,inconclusive\n"


def test_exit_code_contract():
    rep = SuiteReport("x")
    rep.add("a", "pass")
    assert rep.finish().exit_code == 0
    rep.add("b", "budget", inconclusive=True)
    assert rep.exit_code == 1
    rep.add("c", "refuted", critical=True)
    assert rep.exit_code == 2


def test_console_script_entry():
    # the child imports the same wittlab as this process, however pytest
    # put it on the path (PYTHONPATH or pyproject's pythonpath)
    import wittlab

    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "wittlab.cli", "stable-rank", "--ring", "gf3"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sr"] == 1


def test_suite_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_ring": 2}))
    code, out = run_cli(capsys, "suite", "straighten", "--config", str(cfg))
    assert code == 0


def test_complex_mu_poset_theorem(capsys):
    instance = json.dumps({"ring": "gf2", "quadratic": "H^2"})
    code, out = run_cli(capsys, "complex", "verify", "--theorem", "mu-poset",
                        "--instance", instance)
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 0 and data["verdict"]["result"] in (
        "homology-verified", "fully-verified")


H2 = {"ring": "gf2", "quadratic": "H^2"}
E1 = [1, 0, 0, 0]
F1 = [0, 1, 0, 0]
# one small instance per registry name; -link names and perp-link at a base
COMPLEX_CASES = {
    "gl": {"ring": "gf2", "module": "free:3"},
    "gl-link": {"ring": "gf2", "module": "free:3", "base": [[1, 0, 0]]},
    "iu": H2,
    "iu-link": dict(H2, base=[E1]),
    "hu": H2,
    "hu-link": dict(H2, base=[[E1, F1]]),
    "hu-stable": H2,
    "hu-stable-link": dict(H2, base=[[E1, F1]]),
    "lambda-poset": H2,
    "lambda-poset-link": dict(H2, base=[E1]),
    "mu-poset": H2,
    "mu-poset-link": dict(H2, base=[E1]),
    "perp-link": {"ring": "gf2", "quadratic": "H^3",
                  "base": [[1, 0, 0, 0, 0, 0]]},
}


def test_complex_build_counts_the_verified_poset(capsys, monkeypatch):
    # build's vertex count is that of the poset verify runs its verdict on
    from wittlab import verify

    assert sorted(COMPLEX_CASES) == sorted(verify.NAMES)
    checked = []
    real = verify.connectivity_verdict

    def spy(poset, d, **kw):
        checked.append(len(poset.vertex_ids))
        return real(poset, d, **kw)

    monkeypatch.setattr(verify, "connectivity_verdict", spy)
    built = {}
    for theorem, instance in COMPLEX_CASES.items():
        argv = ("--theorem", theorem, "--instance", json.dumps(instance))
        code, out = run_cli(capsys, "complex", "build", *argv)
        assert code == 0, (theorem, out)
        built[theorem] = json.loads(out)["vertices"]
        code, out = run_cli(capsys, "complex", "verify", "--no-cache", *argv)
        assert code == 0, (theorem, out)
        assert json.loads(out)["theorem"] == theorem
        assert checked.pop() == built[theorem], theorem
    # lambda-poset: the nonzero vectors of <e_1, e_2> inside H^2 + H, not
    # IU(H^2)'s 9; perp-link: a e_1 + y with y in the H^2 on e_2, f_2, e_3,
    # f_3 and mu(y) = 0 (10 of 16), but not 0 or e_1, not mu_poset's 35
    assert built["lambda-poset"] == 3 and built["perp-link"] == 18


def test_complex_stable_link_name(capsys):
    code, out = run_cli(capsys, "complex", "verify", "--theorem",
                        "hu-stable-link", "--instance",
                        json.dumps(COMPLEX_CASES["hu-stable-link"]))
    data = json.loads(out)
    assert code == 0 and data["theorem"] == "hu-stable-link"
    assert data["hypothesis"] == {"usr": 1, "k": 1, "gbar": 2}


def test_complex_unknown_theorem_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complex", "verify", "--theorem", "iu-bogus",
              "--instance", json.dumps(H2)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_complex_link_needs_a_base(capsys):
    for theorem, instance in (("gl-link", {"ring": "gf2", "module": "free:3"}),
                              ("iu-link", H2), ("perp-link", H2)):
        for action in ("build", "verify"):
            code, out = run_cli(capsys, "complex", action, "--theorem",
                                theorem, "--instance", json.dumps(instance))
            assert code == 2
            assert json.loads(out) == {"error": "%s needs a base" % theorem}
