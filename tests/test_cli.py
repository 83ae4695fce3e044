import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u1bethe import bethe as B
from u1bethe import cli
from u1bethe import verify as V
from u1bethe import weights as W
from u1bethe.errors import ConfigError, U1BetheError

from conftest import ETA, count_builds, nan_every, nan_residual


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def six_cfg(tmp_path):
    return write(tmp_path / "six.cfg",
                 "model = six_vertex\nN = 2\neta = 0.4375\nL = 4\n")


@pytest.fixture()
def spin1_cfg(tmp_path):
    return write(tmp_path / "s1.cfg",
                 "# spin-1 chain\nmodel = higher_spin_xxz\nN = 3\n"
                 "eta = 0.4375\nL = 2\n"
                 "inhomogeneities = [0.0, 0.05+0.02j]\n")


def run(args):
    return cli.main(args)


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def test_check_r_pass(six_cfg, tmp_path):
    out = tmp_path / "r.json"
    code = run(["check-r", "--config", six_cfg, "--samples", "25",
                "--out", str(out), "--quiet"])
    assert code == 0
    text = out.read_text()
    assert '"pass": true' in text
    assert '"check": "yang_baxter"' in text


def test_report_escapes_control_characters(tmp_path):
    # the parser keeps a tab inside a config value; the report echoes it
    cfg = write(tmp_path / "tab.cfg", "model = six_vertex\neta = 0.4375\n"
                "L = 3\ninhomogeneities = [0,\t0.1, 0.2]\n")
    out = tmp_path / "r.json"
    assert run(["check-r", "--config", cfg, "--samples", "5",
                "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"]["inhomogeneities"] == "[0,\t0.1, 0.2]"


@pytest.mark.parametrize("cfg_name, args, warmup", [
    ("six_cfg", ["check-r", "--samples", "10", "--seed", "7"], None),
    ("spin1_cfg", ["rules", "--seed", "3"], None),
    ("spin1_cfg", ["check-r", "--samples", "5", "--seed", "7"], None),
    ("spin1_cfg", ["check-r", "--samples", "5", "--seed", "7"],
     ["rules", "--seed", "3"]),
], ids=["check-r", "rules", "check-r-fitted", "check-r-after-rules"])
def test_report_determinism(cfg_name, args, warmup, request, tmp_path):
    # a is written with no kernel built; b with the kernel that a built
    # or, given a `warmup` command, with a fresh one that it built
    cfg = request.getfixturevalue(cfg_name)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        if warmup and path == b:
            W._shared_kernel.cache_clear()
            assert run(warmup + ["--config", cfg, "--quiet"]) == 0
        assert run(args + ["--config", cfg, "--out", str(path),
                           "--quiet"]) == 0
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())


def test_seed_changes_report(six_cfg, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["check-r", "--config", six_cfg, "--samples", "10", "--seed", "7",
         "--out", str(a), "--quiet"])
    run(["check-r", "--config", six_cfg, "--samples", "10", "--seed", "8",
         "--out", str(b), "--quiet"])
    assert strip_timestamp(a.read_text()) != strip_timestamp(b.read_text())


def test_check_r_checks_the_kernel_it_used(six_cfg, spin1_cfg, tmp_path):
    def rows(cfg):
        out = tmp_path / "r.json"
        assert run(["check-r", "--config", cfg, "--samples", "6",
                    "--out", str(out), "--quiet"]) == 0
        return {r["check"]: r for r in json.loads(out.read_text())["results"]}

    kernel = rows(spin1_cfg)["kernel"]
    assert kernel["count"] == 6 and kernel["max"] <= 1e-12
    assert "kernel" not in rows(six_cfg)
    six = W.six_vertex(ETA)
    table = tmp_path / "w.tab"
    W.write_table_file(table, [(0.3 + 0j, 0.3 + 0j, six.eval_r(0.3, 0.3))])
    table_cfg = write(tmp_path / "t.cfg",
                      f"model = table\ntable_file = {table}\nL = 2\n")
    assert "kernel" not in rows(table_cfg)
    # N = 4 at eta = 1.5, where an intertwiner solve refuses points far
    # from the origin: the relation checks every sample
    n4_cfg = write(tmp_path / "n4.cfg",
                   "model = higher_spin_xxz\nN = 4\neta = 1.5\nL = 2\n")
    kernel = rows(n4_cfg)["kernel"]
    assert kernel["count"] == 6 and kernel["max"] <= 1e-12


def test_commands_share_one_fit(tmp_path, monkeypatch):
    # the four commands in one process fuse the weights of (N, eta) once
    cfg = write(tmp_path / "n4.cfg",
                "model = higher_spin_xxz\nN = 4\neta = 0.4375\nL = 2\n"
                "inhomogeneities = [0.0, 0.05+0.02j]\n")
    builds = count_builds(monkeypatch)
    for args in (["check-r", "--samples", "3"],
                 ["identities", "--samples", "2"], ["rules", "--tol", "5e-10"],
                 ["offshell", "--n", "2"]):
        assert run(args + ["--config", cfg, "--quiet"]) == 0
    assert builds == [(4, ETA)]


@pytest.mark.parametrize("N, eta", [(3, ETA), (4, 1.5)])
def test_perturbed_weights_fail_the_kernel_row(N, eta, tmp_path,
                                               monkeypatch):
    # negative control: one fused coefficient off by 1e-8 of the largest
    fuse = W._fused_coefficients

    def perturbed(N, eta):
        coef = fuse(N, eta)
        coef[len(coef) // 2, N - 1] += 1e-8 * np.abs(coef).max()
        return coef

    monkeypatch.setattr(W, "_fused_coefficients", perturbed)
    cfg = write(tmp_path / "n.cfg",
                f"model = higher_spin_xxz\nN = {N}\neta = {eta}\nL = 2\n")
    out = tmp_path / "r.json"
    assert run(["check-r", "--config", cfg, "--samples", "5",
                "--out", str(out), "--quiet"]) == 1
    rows = {r["check"]: r for r in _results(out)}
    assert rows["kernel"]["max"] > 1e-10


def test_identities_command(spin1_cfg, tmp_path):
    out = tmp_path / "id.json"
    code = run(["identities", "--config", spin1_cfg, "--samples", "8",
                "--tol", "1e-9", "--out", str(out), "--quiet"])
    assert code == 0
    assert '"identity": "wanted_term_assembly"' in out.read_text()


def test_identities_zero_samples_rejected(spin1_cfg, capsys):
    assert run(["identities", "--config", spin1_cfg, "--samples", "0",
                "--quiet"]) == 2
    assert "InvalidOption" in capsys.readouterr().err


def test_solve_with_spectrum_and_csv(six_cfg, tmp_path):
    out, csv = tmp_path / "s.json", tmp_path / "s.csv"
    code = run(["solve", "--config", six_cfg, "--n", "2", "--spectrum",
                "--seeds", "30", "--out", str(out), "--csv", str(csv),
                "--quiet"])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "sector,index,re,im"
    assert len(lines) == 1 + 2 ** 4
    text = out.read_text()
    assert '"spectrum_distance"' in text and '"pass": true' in text


def test_solve_n0_trace(six_cfg, tmp_path):
    out = tmp_path / "t.json"
    assert run(["solve", "--config", six_cfg, "--n", "0",
                "--out", str(out), "--quiet"]) == 0
    text = out.read_text()
    assert '"eigenstate_residuals"' in text and '"pass": true' in text


def test_solve_spectrum_dimension_guard(tmp_path, capsys):
    # sector 8 of L=16 has 12,870 states, over the dense limit
    cfg = write(tmp_path / "big.cfg",
                "model = six_vertex\neta = 0.4375\nL = 16\n")
    assert run(["solve", "--config", cfg, "--n", "8", "--spectrum",
                "--quiet"]) == 2
    assert "DimensionTooLarge" in capsys.readouterr().err


def test_solve_spectrum_on_a_long_chain(tmp_path):
    # 2^16 states, but sector 2 has 120: only that block is diagonalized
    cfg = write(tmp_path / "long.cfg",
                "model = six_vertex\neta = 0.4375\nL = 16\n")
    out = tmp_path / "s.json"
    assert run(["solve", "--config", cfg, "--n", "2", "--spectrum",
                "--out", str(out), "--quiet"]) == 0
    assert '"spectrum_distance"' in out.read_text()


@pytest.mark.parametrize("extra, found", [
    (["--n", "2", "--seeds", "30"], True),
    (["--seeds", "1", "--max-iter", "1"], False),
], ids=["found", "none-found"])
def test_solve_reports_seed_outcomes(six_cfg, extra, found, tmp_path):
    # every seed is counted once, by what became of it
    out = tmp_path / "s.json"
    assert run(["solve", "--config", six_cfg, *extra, "--out", str(out),
                "--quiet"]) == (0 if found else 1)
    report = json.loads(out.read_text())
    counts = report["seed_outcomes"]
    assert counts.pop("n") == (2 if found else 1)
    assert tuple(counts) == B.SEED_OUTCOMES
    assert sum(counts.values()) == (30 if found else 1)
    if found:
        assert counts["converged"] == len(report["results"])
    else:
        assert counts["max_iter"] == 1


@pytest.mark.parametrize("args", [
    ["--spectrum", "--lambdas", "0"],
    ["--seeds", "0"],
], ids=["lambdas", "seeds"])
def test_solve_rejects_empty_options(six_cfg, args, capsys):
    assert run(["solve", "--config", six_cfg, "--n", "1", *args,
                "--quiet"]) == 2
    assert "InvalidOption" in capsys.readouterr().err


def test_solve_without_roots_fails(six_cfg, tmp_path):
    # one seed with one Newton step cannot converge; no state is no pass
    out = tmp_path / "s.json"
    assert run(["solve", "--config", six_cfg, "--seeds", "1",
                "--max-iter", "1", "--out", str(out), "--quiet"]) == 1
    text = out.read_text()
    assert '"note": "no roots found"' in text
    assert '"best_residual"' in text and '"pass": false' in text


def test_summary_line_without_residuals(six_cfg, tmp_path, capsys):
    # with no state found no residual is checked: the line gives the note
    # and best residual of the report, not the empty summary's max of 0
    out = tmp_path / "s.json"
    assert run(["solve", "--config", six_cfg, "--seeds", "1",
                "--max-iter", "1", "--out", str(out)]) == 1
    result, = json.loads(out.read_text())["results"]
    assert capsys.readouterr().out == (
        f"solve: FAIL (no residuals; no roots found, best residual "
        f"{result['best_residual']:.3e})\n")


def test_chain_size_cap_exits_2(tmp_path, capsys):
    # check-r never touches the chain, so no commit allocates 2^40 states
    cfg = write(tmp_path / "huge.cfg",
                "model = six_vertex\neta = 0.4375\nL = 40\n")
    assert run(["check-r", "--config", cfg, "--samples", "1",
                "--quiet"]) == 2
    assert "DimensionTooLarge" in capsys.readouterr().err


def test_csv_requires_spectrum(six_cfg, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["solve", "--config", six_cfg, "--n", "1", "--out", str(out),
                "--csv", str(tmp_path / "x.csv"), "--quiet"]) == 2
    assert "InvalidOption" in capsys.readouterr().err
    assert not out.exists()                  # rejected before any solving


@pytest.mark.parametrize("args", [
    ["solve", "--samples", "3"], ["offshell", "--samples", "3"],
    ["rules", "--samples", "3"], ["check-r", "--csv", "x.csv"],
    ["identities", "--csv", "x.csv"], ["offshell", "--csv", "x.csv"],
    ["rules", "--csv", "x.csv"], ["solve", "--match-tol", "1e-8"],
    ["rules", "--pairs", "3"]], ids=[
    "solve-samples", "offshell-samples", "rules-samples", "check-r-csv",
    "identities-csv", "offshell-csv", "rules-csv", "solve-match-tol",
    "rules-pairs"])
def test_options_only_where_read(six_cfg, args):
    with pytest.raises(SystemExit) as err:
        run(args + ["--config", six_cfg, "--quiet"])
    assert err.value.code == 2


_COMMANDS = ("check-r", "identities", "solve", "offshell", "rules")
_BAD_OPTIONS = [(cmd, ["--tol", tol]) for cmd in _COMMANDS
                for tol in ("nan", "0", "-1")] \
    + [(cmd, ["--seed", "-1"]) for cmd in _COMMANDS] \
    + [("check-r", ["--samples", "0"]), ("solve", ["--max-iter", "0"]),
       ("offshell", ["--root", "abc"]), ("offshell", ["--lam", "x,y"])]


@pytest.mark.parametrize("command, args", _BAD_OPTIONS,
                         ids=[f"{c}{'='.join(a)}" for c, a in _BAD_OPTIONS])
def test_bad_option_values_exit_2(six_cfg, tmp_path, capsys, command, args):
    out = tmp_path / "r.json"
    extra = ["--n", "1"] if command in ("solve", "offshell") else []
    assert run([command, "--config", six_cfg, *extra, *args,
                "--out", str(out), "--quiet"]) == 2
    assert "InvalidOption" in capsys.readouterr().err
    assert not out.exists()


def test_offshell_command(spin1_cfg, tmp_path):
    out = tmp_path / "o.json"
    code = run(["offshell", "--config", spin1_cfg,
                "--root=0.41,-0.23", "--root=-0.37,0.52",
                "--lam", "0.29,0.17", "--tol", "1e-8",
                "--out", str(out), "--quiet"])
    assert code == 0
    assert '"unwanted_over_wanted"' in out.read_text()


def test_offshell_random_roots(spin1_cfg, tmp_path):
    assert run(["offshell", "--config", spin1_cfg, "--n", "2",
                "--tol", "1e-8", "--out", str(tmp_path / "o.json"),
                "--quiet"]) == 0


def test_offshell_coincident_roots(spin1_cfg, capsys):
    assert run(["offshell", "--config", spin1_cfg,
                "--root", "0.3,0.1", "--root", "0.3,0.1", "--quiet"]) == 2
    assert "Singularity" in capsys.readouterr().err


def test_rules_command(spin1_cfg, tmp_path):
    out = tmp_path / "rules.json"
    code = run(["rules", "--config", spin1_cfg, "--out", str(out), "--quiet"])
    assert code == 0
    text = out.read_text()
    assert '"counts_match": true' in text
    assert '"family": "annihilation_creation"' in text


def test_config_diagnostics(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", "model = six_vertex\nL equals 2\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(bad)
    assert err.value.line == 2
    assert run(["check-r", "--config", bad, "--quiet"]) == 2
    dup = write(tmp_path / "dup.cfg", "model = six_vertex\nmodel = table\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(dup)
    assert err.value.line == 2
    for name, text, line in [
            ("n.cfg", "model = six_vertex\nL = 2\nN = abc\n", 3),
            ("key.cfg", "model = six_vertex\nfoo = 1\nL = 2\n", 2)]:
        cfg = write(tmp_path / name, text)
        with pytest.raises(ConfigError) as err:
            cli.build_model(*cli.parse_config(cfg))
        assert err.value.line == line
        assert run(["check-r", "--config", cfg, "--quiet"]) == 2
    assert "'foo'" in str(err.value)
    six, spin1 = "model = six_vertex", "model = higher_spin_xxz\nN = 3"
    for head, eta, message in [
            (six, "0", "anisotropy"), (spin1, "0", "anisotropy"),
            (six, "1000", "anisotropy"), (spin1, "1000", "anisotropy"),
            # sinh(eta) is finite, but the weights overflow
            (six, "709.5", "overflow"), (spin1, "300", "overflow"),
            (spin1, "400", "overflow"), (spin1, "700", "overflow")]:
        cfg = write(tmp_path / "eta.cfg", f"{head}\neta = {eta}\nL = 2\n")
        capsys.readouterr()
        assert run(["check-r", "--config", cfg, "--samples", "3",
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "ParameterDomain" in err and message in err
        assert "RuntimeWarning" not in err


def test_summary_propagates_nan():
    summary = cli._summary([0.5, float("nan")])
    assert summary["max"] != summary["max"] and summary["count"] == 2


def _results(path):
    return json.loads(path.read_text())["results"]


def test_nan_identity_residual_exits_1(tmp_path, monkeypatch):
    cfg = write(tmp_path / "s32.cfg", "model = higher_spin_xxz\nN = 4\n"
                "eta = 0.4375\nL = 2\n")
    out = tmp_path / "id.json"
    args = ["identities", "--config", cfg, "--samples", "2", "--out",
            str(out), "--quiet"]
    assert run(args) == 0
    # wanted_term_assembly takes a = 2, then the top index a = 3 (continued)
    real = V._wanted_assembly_residual
    monkeypatch.setattr(
        V, "_wanted_assembly_residual",
        lambda model, a, cont, *pts: (float("nan") if cont
                                      else real(model, a, cont, *pts)))
    assert run(args) == 1
    failed = [r["identity"] for r in _results(out) if not r["pass"]]
    assert failed == ["wanted_term_assembly"]


def test_nan_rule_trial_exits_1(spin1_cfg, tmp_path, monkeypatch):
    out = tmp_path / "rules.json"
    nan_every(monkeypatch, V, "relative_residual", 3)  # each rule's last trial
    assert run(["rules", "--config", spin1_cfg, "--out", str(out),
                "--quiet"]) == 1
    assert all(r["residual"] == "nan" for r in _results(out)[:-1])


def test_nan_kernel_difference_fails_check_r(spin1_cfg, tmp_path,
                                             monkeypatch):
    # the fifth u of the row, u = 0 of the first sample, reads nan
    nan_residual(monkeypatch, 4)
    out = tmp_path / "r.json"
    assert run(["check-r", "--config", spin1_cfg, "--samples", "3",
                "--out", str(out), "--quiet"]) == 1
    rows = {r["check"]: r for r in _results(out)}
    assert rows["kernel"]["max"] == "nan"
    assert rows["yang_baxter"]["max"] <= 1e-10


def test_large_n_exits_2(tmp_path, capsys, monkeypatch):
    # refused before any fusion build
    builds = count_builds(monkeypatch)
    cfg = write(tmp_path / "n20.cfg",
                "model = higher_spin_xxz\nN = 20\neta = 0.4375\nL = 2\n")
    assert run(["check-r", "--config", cfg, "--samples", "1",
                "--quiet"]) == 2
    assert "ParameterDomain" in capsys.readouterr().err
    assert builds == []


def test_nonfinite_inhomogeneity_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "nan.cfg", "model = six_vertex\neta = 0.4375\n"
                "L = 2\ninhomogeneities = [nan, 0]\n")
    assert run(["solve", "--config", cfg, "--n", "1", "--quiet"]) == 2
    assert "inhomogeneity must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("body, line", [
    ("0.3 0 0.1 0 1 1 1 1 abc 0\n", 1),          # non-numeric field
    ("", 1),                                      # no records at all
    ("0.3 0 0.1 0 1 1 1 1 1 0\n0.3 0 0.1 0 1 1 1 2 0.5 0\n", 2),  # off ice
    ("0.3 0 0.1 0 0 2 1 1 1 0\n", 1)],           # index below 1, on ice
    ids=["non-numeric", "empty", "off-ice", "index-below-1"])
def test_table_file_errors_located(tmp_path, capsys, body, line):
    table = write(tmp_path / "w.tab", body)
    cfg = write(tmp_path / "t.cfg",
                f"model = table\ntable_file = {table}\nL = 2\n")
    assert run(["check-r", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "ParameterDomain" in err and f"{table}:{line}:" in err


@pytest.mark.parametrize("case", ["config-is-dir", "config-not-utf8",
                                  "table-not-utf8", "out-dir-missing",
                                  "csv-dir-missing"])
def test_file_errors_exit_2(case, six_cfg, tmp_path, capsys):
    missing = tmp_path / "missing"
    args = ["check-r", "--config", six_cfg, "--samples", "2"]
    if case == "config-is-dir":
        args[2] = str(tmp_path)
    elif case == "config-not-utf8":
        (tmp_path / "bad.cfg").write_bytes(b"model = six_vertex\nL = \xff\n")
        args[2] = str(tmp_path / "bad.cfg")
    elif case == "table-not-utf8":
        (tmp_path / "w.tab").write_bytes(b"# \xff\n")
        args[2] = write(tmp_path / "t.cfg", f"model = table\ntable_file = "
                        f"{tmp_path / 'w.tab'}\nL = 2\n")
    elif case == "out-dir-missing":
        args += ["--out", str(missing / "r.json")]
    else:
        args = ["solve", "--config", six_cfg, "--n", "1", "--spectrum",
                "--csv", str(missing / "s.csv"), "--quiet"]
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option, path", [
    ("--out", "missing/r.json"), ("--csv", "missing/s.csv"), ("--out", ".")],
    ids=["out-dir-missing", "csv-dir-missing", "out-is-a-dir"])
def test_unusable_output_paths_exit_2_before_the_run(
        option, path, six_cfg, tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_command", never)
    capsys.readouterr()
    assert run(["solve", "--config", six_cfg, "--n", "1", "--spectrum",
                option, str(tmp_path / path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


_ANY_VALUE = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "[]", "[nan]", "[inf, 0]", "[,]",
                     "[1, 2", "abc", "1e400", "0", "-1", "1+2j", "custom")),
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.floats().map(repr),
    st.complex_numbers().map(str),
    st.lists(st.complex_numbers(), max_size=4).map(
        lambda zs: "[" + ", ".join(map(str, zs)) + "]"),
    st.text(max_size=12))
# usual values for each key, so that most configs get past the first error
_USUAL_VALUES = {
    "model": ("six_vertex", "higher_spin_xxz"),
    "N": ("2", "3", "4"),
    "eta": ("0.4375", "0.3+0.1j"),
    "L": ("1", "3", "40"),
    "inhomogeneities": ("[0.0, 0.05+0.02j, -0.1]", "[0.1]"),
}


@st.composite
def _config_lines(draw):
    """One line per key; now and then a key is missing or repeated."""
    lines = [(key, draw(st.sampled_from(usual) if draw(st.integers(0, 3))
                        else _ANY_VALUE))
             for key, usual in _USUAL_VALUES.items()
             if draw(st.integers(0, 9))]
    if lines and not draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(lines)))
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None)
@given(_config_lines())
def test_config_front_end_raises_only_typed_errors(tmp_path_factory, items):
    # no weight is evaluated on this path
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in items),
                    encoding="utf-8")
    try:
        raw, lines = cli.parse_config(str(path))
        cli.build_context(cli.build_model(raw, lines), raw, lines)
    except U1BetheError:
        pass


def test_custom_model_rejected_in_config(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "model = custom\nL = 2\n")
    assert run(["check-r", "--config", cfg, "--quiet"]) == 2
    assert "library-level" in capsys.readouterr().err


def test_table_model_checks(tmp_path):
    six = W.six_vertex(ETA)
    lam, mu = 0.31 + 0.0j, -0.22 + 0.0j
    rec = [(lam, mu, six.eval_r(lam, mu)), (mu, lam, six.eval_r(mu, lam)),
           (lam, lam, six.eval_r(lam, lam))]
    table = tmp_path / "w.tab"
    W.write_table_file(table, rec)
    cfg = write(tmp_path / "t.cfg",
                f"model = table\ntable_file = {table}\nL = 2\n")
    out = tmp_path / "t.json"
    assert run(["check-r", "--config", cfg, "--tol", "1e-12",
                "--out", str(out), "--quiet"]) == 0
    assert '"check": "regularity"' in out.read_text()


def test_table_model_missing_pair_exits(tmp_path, capsys):
    six = W.six_vertex(ETA)
    lam, mu = 0.31 + 0.0j, -0.22 + 0.0j
    table = tmp_path / "w.tab"
    # unitarity needs the swapped pair, which is deliberately absent
    W.write_table_file(table, [(lam, mu, six.eval_r(lam, mu))])
    cfg = write(tmp_path / "t.cfg",
                f"model = table\ntable_file = {table}\nL = 2\n")
    assert run(["check-r", "--config", cfg, "--quiet"]) == 2
    assert "UnknownGridPoint" in capsys.readouterr().err


def test_table_model_failing_weights_located(tmp_path):
    six = W.six_vertex(ETA)
    lam, mu = 0.31 + 0.0j, -0.22 + 0.0j
    arr = six.eval_r(lam, mu).dense().copy()
    arr[1, 2] += 1e-3                        # (1,2)->(2,1)
    broken = W.WeightMatrix.from_dense(2, arr)
    rec = [(lam, mu, broken), (mu, lam, six.eval_r(mu, lam)),
           (lam, lam, six.eval_r(lam, lam))]
    table = tmp_path / "w.tab"
    W.write_table_file(table, rec)
    cfg = write(tmp_path / "t.cfg",
                f"model = table\ntable_file = {table}\nL = 2\n")
    out = tmp_path / "t.json"
    assert run(["check-r", "--config", cfg, "--out", str(out),
                "--quiet"]) == 1
    text = out.read_text()
    assert '"pass": false' in text
    assert '"worst_sample"' in text


def test_report_float_precision(six_cfg, tmp_path):
    out = tmp_path / "p.json"
    run(["solve", "--config", six_cfg, "--n", "1", "--seeds", "20",
         "--out", str(out), "--quiet"])
    # roots are serialized with 17 significant digits
    m = re.search(r'"roots": \[\[(-?\d+\.\d{13,})', out.read_text())
    assert m is not None
