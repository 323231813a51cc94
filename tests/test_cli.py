"""End-to-end tests of the command-line driver (exit codes, files, messages);
the bytes of its artifacts are pinned in test_byte_contract.py."""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsethresh import (
    PartitionedDictionary, cli, concentration, load_dictionary, recovery, save_dictionary,
)
from sparsethresh.cli import main


@pytest.fixture(scope="module")
def dict_dir(tmp_path_factory):
    """Prepared dictionary files shared by the CLI tests."""
    base = tmp_path_factory.mktemp("dicts")
    out = {}
    rc = main(["build-dict", "--mub", "7", "--out", str(base / "mub7.dict.json")])
    assert rc == 0
    out["mub7"] = str(base / "mub7.dict.json")
    rc = main(["build-dict", "--two-onb", "4", "--out", str(base / "onb4.dict.json")])
    assert rc == 0
    out["onb4"] = str(base / "onb4.dict.json")
    save_dictionary(PartitionedDictionary(np.eye(2), 1), base / "tiny.dict.json")
    out["tiny"] = str(base / "tiny.dict.json")
    save_dictionary(PartitionedDictionary(np.eye(24), 4), base / "eye24.dict.json")
    out["eye24"] = str(base / "eye24.dict.json")
    save_dictionary(PartitionedDictionary(np.eye(110), 10), base / "eye110.dict.json")
    out["eye110"] = str(base / "eye110.dict.json")
    return out


# ==============================
# build-dict and analyze
# ==============================


class TestBuildDict:
    def test_mub_file_round_trips(self, dict_dir):
        D = load_dictionary(dict_dir["mub7"])
        assert (D.m, D.N, D.Na) == (7, 56, 7)

    def test_prints_stats(self, tmp_path, capsys):
        rc = main(["build-dict", "--two-onb", "8", "--out", str(tmp_path / "d.dict.json")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mu   = 0.35355339" in captured.out
        assert "wrote" in captured.out

    def test_mub_rejects_non_prime(self, capsys):
        rc = main(["build-dict", "--mub", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "odd prime" in captured.err

    def test_requires_a_builder(self, capsys):
        rc = main(["build-dict"])
        assert rc == 2
        assert "pick a builder" in capsys.readouterr().err

    @pytest.mark.parametrize("second", [["--two-onb", "4"], ["--random", "4", "9"]])
    def test_two_builders_are_a_usage_error(self, tmp_path, capsys, second):
        out = tmp_path / "x.dict.json"
        rc = main(["build-dict", "--mub", "5", *second, "-o", str(out)])
        assert rc == 2
        assert "not allowed with argument --mub" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["build-dict", "--two-onb", "1000000"], None),
            (["build-dict", "--random", "1000000", "1000000"], None),
            (["build-dict", "--mub", "1000003"], None),
            (["analyze"], {"two_onb": 1000000}),
            (["analyze"], {"random": [1000000, 1000000]}),
        ],
        ids=["two-onb", "random", "mub", "config-two-onb", "config-random"],
    )
    def test_impossible_size_exits_2(self, tmp_path, capsys, monkeypatch, argv, config):
        # the builder's matrix (up to 32 TB) is allocated before any work
        def no_work(*args, **kwargs):
            raise AssertionError("a dictionary was built or saved")

        monkeypatch.setattr(np, "meshgrid", no_work)
        monkeypatch.setattr(cli.dictionary, "save_dictionary", no_work)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps({"dictionary": config}))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a ") and "dictionary is too large to hold" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == ([] if config is None else [tmp_path / "cfg.json"])

    def test_an_output_path_naming_a_directory_exits_2_and_leaves_no_file(
        self, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["build-dict", "--mub", "3", "-o", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.glob("*.tmp*")) == []
        assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("target", ["taken", "nodir/x.dict.json"])
    def test_a_failed_write_names_the_path_asked_for(self, tmp_path, capsys, monkeypatch, target):
        # the file is written under a temporary name first; the error must not show it
        (tmp_path / "taken").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["build-dict", "--mub", "3", "-o", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write dictionary file {target}: ")
        assert ".tmp" not in err and "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_negative_random_seed_is_refused_by_name(self, tmp_path, capsys):
        # numpy's own message, "expected non-negative integer", named no seed
        out = tmp_path / "r.dict.json"
        assert main(["build-dict", "--random", "4", "8", "--seed", "-1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not out.exists()


class TestAnalyze:
    def test_json_output(self, dict_dir, capsys):
        rc = main(["analyze", "--dict", dict_dir["mub7"], "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 7 and doc["N"] == 56
        assert abs(doc["mu"] - 1.0 / math.sqrt(7.0)) <= 1e-12
        assert doc["muA"] == 0.0

    def test_table_output(self, dict_dir, capsys):
        rc = main(["analyze", "--dict", dict_dir["onb4"]])
        assert rc == 0
        assert "mu   = 0.50000000" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["analyze", "--dict", str(tmp_path / "absent.dict.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_no_dictionary_source(self, capsys):
        rc = main(["analyze"])
        assert rc == 2
        assert "no dictionary" in capsys.readouterr().err


# ==============================
# check
# ==============================


class TestCheck:
    def test_zero_budget_passes(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["mub7"], "--na", "0", "--nb", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eq1" in out and "NO" not in out

    def test_zero_budget_passes_where_eq1_underflows(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["mub7"], "--s", "1e308"])
        assert rc == 0
        assert "NO" not in capsys.readouterr().out

    def test_overloaded_budget_fails_with_exit_3(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["mub7"], "--na", "2", "--nb", "2"])
        assert rc == 3
        assert "NO" in capsys.readouterr().out

    def test_tiny_dictionary_is_a_usage_error(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["tiny"]])
        assert rc == 2
        assert "N > 2" in capsys.readouterr().err

    def test_maximize_orthonormal_profile(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["eye110"], "--maximize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best n_a = 10, n_b = 6, gamma = 0.95, total = 16" in out

    def test_json_report(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["mub7"], "--na", "0", "--nb", "0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_satisfied"] is True
        assert len(doc["conditions"]) == 7

    def test_infinite_rhs_serializes_as_null(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["eye24"], "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        rhs_by_id = {c["id"]: c["rhs"] for c in doc["conditions"]}
        assert rhs_by_id["eq1"] is None        # +inf in JSON output

    @pytest.mark.parametrize("command", ["check", "report"])
    @pytest.mark.parametrize("na, nb", [("100", "1"), ("1", "100"), ("8", "0"), ("0", "50")])
    def test_impossible_budget_exits_2_before_any_evaluation(
        self, dict_dir, tmp_path, capsys, monkeypatch, command, na, nb
    ):
        # mub7 has Na = 7 and Nb = 49
        def no_work(*args, **kwargs):
            raise AssertionError("the dictionary was analyzed before the budgets were checked")

        monkeypatch.setattr(cli.dictionary, "analyze", no_work)
        out = tmp_path / "report.json"
        argv = [command, "--dict", dict_dir["mub7"], "--na", na, "--nb", nb]
        assert main(argv + (["--out", str(out)] if command == "report" else [])) == 2
        captured = capsys.readouterr()
        assert "budgets must satisfy 0 <= n_a <= 7 and 0 <= n_b <= 49" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_maximize_ignores_the_budgets(self, dict_dir, capsys):
        rc = main(["check", "--dict", dict_dir["mub7"], "--maximize", "--na", "100"])
        assert rc == 0
        assert "best n_a" in capsys.readouterr().out


# ==============================
# config file handling
# ==============================


class TestConfig:
    def _write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_config_supplies_everything(self, dict_dir, tmp_path):
        cfg = self._write_config(
            tmp_path, {"dictionary": {"two_onb": 4}, "na": 0, "nb": 0}
        )
        assert main(["check", "--config", cfg]) == 0

    def test_flags_override_config(self, dict_dir, tmp_path, capsys):
        # gamma 0.2 starves the B-side condition; the flag rescues it
        cfg = self._write_config(
            tmp_path,
            {"dictionary": {"path": dict_dir["eye24"]}, "nb": 1, "gamma": 0.2},
        )
        assert main(["check", "--config", cfg]) == 3
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--gamma", "0.9"]) == 0

    def test_config_dictionary_builders(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"dictionary": {"mub": 5}})
        assert main(["analyze", "--config", cfg, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["N"] == 30

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["analyze", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_ambiguous_dictionary_source(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"dictionary": {"mub": 5, "two_onb": 4}})
        assert main(["analyze", "--config", cfg]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_key_of_another_subcommand_is_accepted(self, tmp_path, capsys):
        # one file can serve several commands: q and na_range are not check's
        cfg = self._write_config(
            tmp_path,
            {"dictionary": {"mub": 3}, "na": 0, "nb": 0, "q": 8.0, "na_range": "0:1"},
        )
        assert main(["check", "--config", cfg]) == 0


# ==============================
# malformed input
# ==============================


def _malformed_argv(tmp, file_fields=None, config=None, command="analyze") -> list[str]:
    """``command`` on a 1 x 1 dictionary file with ``file_fields`` overridden,
    or on mub3 through a config file holding ``config``; its 'dictionary'
    object, if any, replaces mub3.  Experiments write into ``tmp``."""
    tmp = Path(tmp)
    out = ["--out", str(tmp)] if command in ("smin", "moments", "recover") else []
    if config is not None:
        (tmp / "cfg.json").write_text(json.dumps({"dictionary": {"mub": 3}, **config}))
        return [command, "--config", str(tmp / "cfg.json"), *out]
    path = tmp / "one.dict.json"
    save_dictionary(PartitionedDictionary(np.eye(1), 0), path)
    doc = {**json.loads(path.read_text()), **file_fields}
    path.write_text(json.dumps(doc))
    return [command, "--dict", str(path), *out]


# the subcommand that reads each fuzzed key, run on a config small enough
# to finish in well under a second whatever the key's value
_FUZZ_RUNS = {
    **dict.fromkeys(("entries", "m", "mub", "path", "json", "renormalize"), "analyze"),
    **dict.fromkeys(("na", "nb", "s", "gamma"), "report"),
    "maximize": "check",
    **dict.fromkeys(("trials", "seed", "threads", "strategy", "support_a"), "smin"),
    "q": "moments",
    **dict.fromkeys(("na_range", "nb_range", "strategies"), "recover"),
}
_FUZZ_BASE = {
    "smin": {"trials": 3},
    "moments": {"trials": 1000},
    "recover": {"trials": 1, "na_range": "0:1", "nb_range": "0:1", "strategies": "first-n"},
}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, file_fields, config, message",
        [
            ("analyze", {"entries": 5}, None, "entries must be a list"),
            ("analyze", {"m": True}, None, "must be integers"),
            ("analyze", {"m": 2, "N": 2, "Na": 1,
                         "entries": [["1", 0], [0, 0], [0, 0], [1, 0]]},
             None, "pairs of numbers"),
            ("analyze", {"m": 2, "N": 2, "Na": 1,
                         "entries": [[1, 0], [0, 0], [0, 0], [True, False]]},
             None, "pairs of numbers"),
            ("analyze", {"m": 2, "N": 2, "Na": 1,
                         "entries": [[True, False], [False, False], [False, False], [True, False]]},
             None, "pairs of numbers"),
            ("analyze", None, {"dictionary": {"mub": None}}, "dictionary.mub"),
            ("analyze", None, {"dictionary": {"path": None}}, "dictionary.path"),
            ("analyze", None, {"dictionary": {"mub": 3, "seed": "x"}},
             "config 'dictionary.seed' must be an integer"),
            ("analyze", None, {"dictionary": {"two_onb": 4, "split": True}},
             "config 'dictionary.split' must be an integer"),
            ("analyze", None, {"dictionary": {"mub": 3, "bogus": 1}},
             "unknown config key 'dictionary.bogus'"),
            ("analyze", None, {"dictionary": {"random": [4, 8], "seed": -1}},
             "seed must be a nonnegative integer, got -1"),
            ("smin", None, {"trials": [5]}, "'trials' must be a JSON integer"),
            ("moments", None, {"trials": [5]}, "'trials' must be a JSON integer"),
            ("recover", None, {"trials": [5]}, "'trials' must be a JSON integer"),
            ("smin", None, {"na": None}, "'na' must be a JSON integer"),
            ("moments", None, {"na": None}, "'na' must be a JSON integer"),
            ("moments", None, {"q": [4]}, "'q' must be a JSON number"),
            ("recover", None, {"strategies": 5}, "'strategies' must be a string or a list"),
            ("recover", None, {"na_range": [None]}, "'na_range' must be a string or a list"),
            ("check", None, {"nb": True}, "'nb' must be a JSON integer"),
            ("check", None, {"s": "2"}, "'s' must be a JSON number"),
            ("check", None, {"maximize": 1}, "'maximize' must be a JSON boolean"),
            ("analyze", None, {"json": "yes"}, "'json' must be a JSON boolean"),
            ("smin", None, {"support_a": [1.0]}, "'support_a' must be a string or a list"),
            ("report", None, {"out": 5}, "'out' must be a JSON string"),
            ("smin", None, {"trails": 7}, "unknown config key 'trails'"),
            ("check", None, {"q": "8"}, "'q' must be a JSON number"),
            ("check", None, {"maximize": True, "na": 99, "gamma": 7},
             "gamma must lie in [0, 1]"),
            ("recover", None, {"na_range": "0:3,3"},
             "config 'na_range': expected integers as a,b,c or lo:hi[:step], got '0:3,3'"),
        ],
        ids=[
            "entries-not-a-list", "m-is-a-bool", "entries-string",
            "entries-bool-among-numbers", "entries-all-bool", "mub-null", "path-null",
            "mub-seed-string", "two-onb-split-bool", "dictionary-unknown-key",
            "random-seed-negative",
            "smin-trials-list", "moments-trials-list", "recover-trials-list",
            "smin-na-null", "moments-na-null", "moments-q-list",
            "recover-strategies-int", "recover-na-range-null-item", "check-nb-bool",
            "check-s-string", "check-maximize-int", "analyze-json-string",
            "smin-support-a-floats", "report-out-int", "smin-unknown-key",
            "check-other-command-key-string", "check-maximize-gamma-out-of-range",
            "recover-na-range-string-malformed",
        ],
    )
    def test_exits_2_with_a_message(
        self, tmp_path, capsys, command, file_fields, config, message
    ):
        assert main(_malformed_argv(tmp_path, file_fields, config, command)) == 2
        assert message in capsys.readouterr().err

    def test_config_nested_past_the_recursion_limit(self, dict_dir, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["analyze", "--config", str(path), "--dict", dict_dir["mub7"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["recover", "--na-range", "0:3,3"], "--na-range", "'0:3,3'"),
            (["smin", "--strategy", "prescribed", "--support-a", "x"], "--support-a", "'x'"),
        ],
        ids=["recover-na-range", "smin-support-a"],
    )
    def test_a_malformed_list_flag_names_the_flag_and_its_syntax(
        self, dict_dir, tmp_path, capsys, argv, flag, value
    ):
        assert main([*argv, "--dict", dict_dir["mub7"], "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag}: expected integers as a,b,c or lo:hi[:step], got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--s", "nan"],
            ["check", "--maximize", "--s", "nan"],
            ["smin", "--s", "nan", "--trials", "5"],
        ],
        ids=["check", "check-maximize", "smin"],
    )
    def test_non_finite_s_exits_2(self, dict_dir, tmp_path, capsys, argv):
        argv = [*argv, "--dict", dict_dir["mub7"]]
        if argv[0] == "smin":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        assert "s must be a finite number >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(sorted(_FUZZ_RUNS)),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-3, 12) | st.just(10**400)
            | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
    )
    def test_any_json_value_exits_0_or_2(self, field, value):
        command = _FUZZ_RUNS[field]
        with tempfile.TemporaryDirectory() as tmp:
            if field in ("entries", "m"):
                argv = _malformed_argv(tmp, file_fields={field: value})
            elif field in ("mub", "path"):
                argv = _malformed_argv(tmp, config={"dictionary": {field: value}})
            else:
                config = {**_FUZZ_BASE.get(command, {}), field: value}
                argv = _malformed_argv(tmp, config=config, command=command)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(argv) in (0, 2)


# ==============================
# experiments
# ==============================


class TestSmin:
    def test_artifacts(self, dict_dir, tmp_path, capsys):
        assert main([
            "smin", "--dict", dict_dir["mub7"], "--na", "1", "--nb", "2",
            "--trials", "60", "--seed", "9", "--out", str(tmp_path),
        ]) == 0
        for name in ("smin_trials.csv", "smin_summary.json", "smin_sigma_hist.svg"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "smin_trials.csv").read_text().splitlines()[0]
        assert header == "trialIndex,sigmaMin,xiS,xiA,xiB,xiX"
        summary = json.loads((tmp_path / "smin_summary.json").read_text())
        assert summary["lemma1_bound"] == 56.0 ** (-1.0)
        assert summary["trials"] == 60

    def test_json_to_stdout(self, dict_dir, tmp_path, capsys):
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--na", "1", "--nb", "1",
            "--trials", "20", "--out", str(tmp_path), "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "lemma1_bound" in doc and doc["trials"] == 20

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, dict_dir, tmp_path, capsys, threads):
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--trials", "10",
            "--threads", threads, "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_bad_s_fails_before_any_trial(self, dict_dir, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran before the parameters were checked")

        monkeypatch.setattr(concentration, "fan_out", no_trials)
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--s", "0.5", "--trials", "5000",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "s must be a finite number >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "na, nb, message",
        [("0", "0", "empty sub-dictionary"), ("8", "1", "budgets"), ("1", "50", "budgets")],
    )
    def test_bad_budget_fails_before_any_trial(
        self, dict_dir, tmp_path, capsys, monkeypatch, na, nb, message
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran before the budgets were checked")

        monkeypatch.setattr(concentration, "fan_out", no_trials)
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--na", na, "--nb", nb,
            "--strategy", "random-baseline", "--trials", "5000", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_prescribed_support_flag(self, dict_dir, tmp_path):
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--strategy", "prescribed",
            "--support-a", "3,1", "--na", "2", "--nb", "1",
            "--trials", "10", "--out", str(tmp_path), "--json",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "smin_summary.json").read_text())
        assert summary["support_a"] == [3, 1]

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--support-a", "3,5"], {}),
            ([], {"strategy": "spread", "support_a": [3, 5]}),
            (["--strategy", "random-baseline", "--support-a", "3,5"], {}),
        ],
        ids=["first-n", "config-spread", "random-baseline"],
    )
    def test_support_a_needs_prescribed(self, dict_dir, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dictionary": {"path": dict_dir["mub7"]}, **config}))
        out = tmp_path / "out"
        rc = main([
            "smin", "--config", str(cfg), "--na", "2", "--nb", "1", "--trials", "5",
            "--out", str(out), *flags,
        ])
        assert rc == 2
        assert "apply only to the prescribed strategy" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_numbers_are_plain_floats(self, dict_dir, tmp_path):
        rc = main([
            "smin", "--dict", dict_dir["mub7"], "--na", "1", "--nb", "1",
            "--trials", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        for line in (tmp_path / "smin_trials.csv").read_text().splitlines()[1:]:
            for cell in line.split(",")[1:]:
                float(cell)


class TestMoments:
    def test_artifacts(self, dict_dir, tmp_path, capsys):
        assert main([
            "moments", "--dict", dict_dir["mub7"], "--na", "2", "--nb", "3",
            "--q", "8", "--trials", "1000", "--seed", "4", "--out", str(tmp_path),
        ]) == 0
        for name in ("moment_trials.csv", "moment_summary.json", "moment_bounds.svg"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "moment_summary.json").read_text())
        assert summary["q"] == 8.0
        assert summary["estimate_b"] <= summary["bound_b"]
        assert summary["estimate_x"] is not None

    def test_rejects_q_below_floor(self, dict_dir, tmp_path, capsys):
        rc = main([
            "moments", "--dict", dict_dir["mub7"], "--na", "1", "--nb", "20",
            "--q", "4", "--trials", "1000", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--q", "nan"], {}, "q must be a finite number"),
            (["--q", "inf"], {}, "q must be a finite number"),
            ([], {"q": math.nan}, "q must be a finite number"),
            (["--strategy", "random-baseline"], {}, "moments need a fixed A-support"),
            ([], {"strategy": "random-baseline"}, "moments need a fixed A-support"),
            (["--support-a", "3"], {}, "apply only to the prescribed strategy"),
            ([], {"strategy": "spread", "support_a": [3]},
             "apply only to the prescribed strategy"),
        ],
        ids=[
            "q-nan", "q-inf", "config-q-nan", "random-baseline", "config-random-baseline",
            "support-a-first-n", "config-support-a-spread",
        ],
    )
    def test_rejected_parameters_write_nothing(
        self, dict_dir, tmp_path, capsys, flags, config, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dictionary": {"path": dict_dir["mub7"]}, **config}))
        out = tmp_path / "out"
        rc = main([
            "moments", "--config", str(cfg), "--na", "1", "--nb", "1",
            "--trials", "1000", "--out", str(out), *flags,
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRecover:
    def test_artifacts(self, dict_dir, tmp_path, capsys):
        assert main([
            "recover", "--dict", dict_dir["onb4"], "--na-range", "0:1",
            "--nb-range", "0:1", "--trials", "4", "--seed", "8", "--out", str(tmp_path),
        ]) == 0
        names = (
            "recovery_rates.csv", "recovery_summary.json", "recovery_rates.svg",
            "recovery_heatmap_first-n.svg", "recovery_heatmap_random-baseline.svg",
        )
        for name in names:
            assert (tmp_path / name).exists(), name
        lines = (tmp_path / "recovery_rates.csv").read_text().splitlines()
        assert lines[0] == "nA,nB,strategy,trials,successes,rate"
        assert lines[1] == "0,0,first-n,4,4,1.0"
        summary = json.loads((tmp_path / "recovery_summary.json").read_text())
        for grid in ("nonconverged", "iterations_max", "handed_over"):
            assert np.shape(summary[grid]) == np.shape(summary["rates"]), grid

    def test_range_syntax_error(self, dict_dir, capsys):
        rc = main([
            "recover", "--dict", dict_dir["onb4"], "--na-range", "5:1", "--trials", "2",
        ])
        assert rc == 2
        assert "bad range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["recover", "--dict", "onb4", "--na-range", "0:20000000"],
             "na_values has more than 5 entries"),
            (["recover", "--dict", "onb4", "--nb-range", "3:20000000:2"],
             "nb_values has more than 5 entries"),
            (["smin", "--dict", "mub7", "--strategy", "prescribed", "--na", "2",
              "--support-a", "0:20000000"], "expected 2 indices, got more"),
            (["moments", "--dict", "mub7", "--strategy", "prescribed", "--na", "2",
              "--support-a", "0:20000000"], "expected 2 indices, got more"),
            (["smin", "--dict", "mub7", "--seed", "-1"],
             "master_seed must be a nonnegative integer"),
            (["moments", "--dict", "mub7", "--seed", "-1"],
             "master_seed must be a nonnegative integer"),
            (["recover", "--dict", "onb4", "--seed", "-1", "--threads", "2"],
             "master_seed must be a nonnegative integer"),
        ],
        ids=["na-range", "nb-range-step", "smin-support-a", "moments-support-a",
             "smin-seed", "moments-seed", "recover-seed"],
    )
    def test_a_huge_range_exits_2_fast_with_a_short_message(
        self, dict_dir, tmp_path, capsys, monkeypatch, argv, message
    ):
        # 0:20000000 once expanded to 20 million values before the check, and
        # the error line listed every one of them
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the range was checked")

        monkeypatch.setattr(recovery, "fan_out", no_work)
        monkeypatch.setattr(concentration, "fan_out", no_work)
        argv = [dict_dir.get(a, a) for a in argv]
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err) < 200
        assert not (tmp_path / "out").exists()

    def test_strategy_list_and_comma_values(self, dict_dir, tmp_path):
        rc = main([
            "recover", "--dict", dict_dir["onb4"], "--na-range", "0,1",
            "--nb-range", "1", "--trials", "2", "--strategies", "spread",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "recovery_rates.csv").read_text().splitlines()
        assert len(lines) == 1 + 2        # one strategy, 2 x 1 grid

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--strategies", "first-n,first-n"], "strategies has repeated"),
            (["--na-range", "1,1"], "na_values has repeated"),
            (["--na-range", "0,1,-1", "--nb-range", "0:4", "--trials", "20"], "block sizes"),
        ],
        ids=["strategy-twice", "na-twice", "na-negative"],
    )
    def test_bad_grid_exits_2_before_any_solve(
        self, dict_dir, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was solved before the grid was checked")

        monkeypatch.setattr(recovery, "fan_out", no_work)
        out = tmp_path / "out"
        rc = main(["recover", "--dict", dict_dir["onb4"], "--out", str(out), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_writes_combined_document(self, dict_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["report", "--dict", dict_dir["mub7"], "--na", "1", "--nb", "1",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        for key in ("stats", "params", "conditions", "search", "scaling"):
            assert key in doc
        assert doc["N"] == 56
        assert doc["scaling"]["r1"] == pytest.approx(1.0, abs=1e-12)

    def test_stdout_by_default(self, dict_dir, capsys):
        rc = main(["report", "--dict", dict_dir["onb4"]])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["search"]["best_total"] >= 0


# ==============================
# option resolution
# ==============================


_RUNNERS = {
    "smin": (concentration, "run_smin_trials"),
    "moments": (concentration, "estimate_moment"),
    "recover": (recovery, "run_recovery_sweep"),
}
_SMALL_RUNS = {
    "smin": ["--na", "1", "--nb", "1", "--trials", "5"],
    "moments": ["--na", "1", "--nb", "1", "--trials", "1000"],
    "recover": ["--na-range", "0:1", "--nb-range", "1", "--trials", "1",
                "--strategies", "first-n,spread"],
}
# (flag text, config value) of each option type, none of them a default
_SAMPLES = {
    "int": ("3", 3),
    "float": ("2.5", 2.5),
    "str": ("spread", "spread"),
    "[int]": ("1:3", [1, 2, 3]),
    "[str]": ("first-n,spread", ["first-n", "spread"]),
}


class TestResolveFirst:
    @pytest.mark.parametrize("config", [{"out": 5}, {"json": "yes"}], ids=["out-int", "json-str"])
    @pytest.mark.parametrize("command", sorted(_RUNNERS))
    def test_bad_config_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, config
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(*_RUNNERS[command], no_work)
        monkeypatch.setattr(cli, "_resolve_dictionary", no_work)
        (tmp_path / "cfg.json").write_text(json.dumps({"dictionary": {"mub": 3}, **config}))
        out = tmp_path / "out"
        rc = main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert rc == 2
        key = next(iter(config))
        assert f"config '{key}' must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_RUNNERS))
    def test_wrote_line_names_every_file(self, dict_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main([command, "--dict", dict_dir["mub7"], "--out", str(out),
                   *_SMALL_RUNS[command]])
        assert rc == 0
        wrote = capsys.readouterr().out.splitlines()[-1]
        prefix = f"wrote {out}/"
        assert wrote.startswith(prefix)
        named = wrote[len(prefix):].split(", ")
        assert sorted(named) == sorted(p.name for p in out.iterdir())

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flag_and_config_key_give_the_same_value(
        self, tmp_path, monkeypatch, command
    ):
        seen = []
        _, help_text, defaults = cli._COMMANDS[command]
        monkeypatch.setitem(
            cli._COMMANDS, command,
            (lambda args, cfg: seen.append(vars(args)) or 0, help_text, defaults),
        )
        cfg = tmp_path / "cfg.json"
        for name, default in defaults.items():
            kind = cli._OPTIONS[name][0]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                flags, value = [flag], True
            else:
                tag = f"[{kind[0].__name__}]" if isinstance(kind, list) else kind.__name__
                text, value = _SAMPLES[tag]
                flags = [flag, text]
            cfg.write_text(json.dumps({name: value}))
            assert main([command, *flags]) == 0
            assert main([command, "--config", str(cfg)]) == 0
            # a flag's lo:hi stays a lazy range: compare the values it holds
            from_flag, from_config = (
                {**{k: list(x) if isinstance(x, range) else x for k, x in v.items()},
                 "config": None}
                for v in seen[-2:]
            )
            assert from_flag == from_config, name
            assert from_flag[name] != default, name


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["smin", "moments"])
    def test_too_many_trials_to_hold_is_a_usage_error(
        self, dict_dir, tmp_path, capsys, monkeypatch, command
    ):
        # smin and moments keep one row per trial, allocated before any block
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape) > 10**9:
                raise MemoryError("Unable to allocate 36.4 TiB for an array")
            return real_empty(shape, *args, **kwargs)

        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran before the rows were allocated")

        monkeypatch.setattr(concentration.np, "empty", empty)
        monkeypatch.setattr(concentration, "fan_out", no_trials)
        rc = main([
            command, "--dict", dict_dir["mub7"], "--trials", str(10**12), "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: too many trials to hold one row each: Unable to allocate")
        assert "Traceback" not in err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
