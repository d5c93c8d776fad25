import json

import pytest

from partmeas import fuzzing, symbolic
from partmeas.cli import main
from partmeas.fuzzing import PropertyViolation


MAXIMAL = {
    "kind": "maximal",
    "payload": {
        "space": {"points": ["a", "b", "c", "d"]},
        "atom_values": {"a": "3/2", "b": "-2", "c": "+inf", "d": "-inf"},
    },
}
PROBABILITY = {
    "kind": "probability",
    "payload": {
        "space": {"points": ["a", "b", "c", "d"]},
        "probs": {"a": "1/2", "b": "1/2", "c": "0", "d": "0"},
    },
}
RANDOMVARIABLE = {
    "kind": "randomvariable",
    "payload": {
        "space": {"points": ["a", "b", "c", "d"]},
        "values": {"a": "1", "b": "-6", "c": "+inf", "d": "-inf"},
    },
}
PARTIAL = {
    "kind": "partial",
    "payload": {
        "space": {"points": ["a", "b"]},
        "domain": [[], ["a"]],
        "values": {"": "0", "a": "-inf"},
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (
        ("maximal", MAXIMAL),
        ("prob", PROBABILITY),
        ("rv", RANDOMVARIABLE),
        ("partial", PARTIAL),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_validate_normalizes(files, capsys):
    code, out = run(capsys, "validate", files["maximal"], "--no-banner")
    assert code == 0
    assert out["valid"] is True
    assert out["kind"] == "maximal"
    assert out["payload"]["atom_values"]["a"] == "3/2"


def test_validate_reports_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "measure",
                "payload": {
                    "space": {"points": ["a", "b"]},
                    "values": {"a": "+inf", "b": "-inf"},
                },
            }
        )
    )
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert out["error"]["code"] == "MixedInfinities"


def test_jordan_worked_example(files, capsys):
    code, out = run(capsys, "jordan", files["maximal"], "--no-banner")
    assert code == 0
    assert out["mu_plus"]["payload"]["values"] == {
        "a": "3/2",
        "b": "0",
        "c": "+inf",
        "d": "0",
    }
    assert out["mu_minus"]["payload"]["values"] == {
        "a": "0",
        "b": "2",
        "c": "0",
        "d": "+inf",
    }
    assert out["attaining_sets"]["plus"]["a"] == "a"


def test_jordan_output_feeds_back_in(files, capsys, tmp_path):
    code, out = run(capsys, "jordan", files["maximal"], "--no-banner")
    assert code == 0
    plus_file = tmp_path / "plus.json"
    plus_file.write_text(json.dumps(out["mu_plus"]))
    code, validated = run(capsys, "validate", str(plus_file), "--no-banner")
    assert code == 0
    assert validated["payload"] == out["mu_plus"]["payload"]


def test_hahn_on_both_kinds(files, capsys, tmp_path):
    code, out = run(capsys, "hahn", files["maximal"], "--no-banner")
    assert code == 0
    assert out == {"positive": "a,c", "negative": "b,d"}
    measure = {
        "kind": "measure",
        "payload": {
            "space": {"points": ["a", "b"]},
            "values": {"a": "-1", "b": "3"},
        },
    }
    f = tmp_path / "measure.json"
    f.write_text(json.dumps(measure))
    code, out = run(capsys, "hahn", str(f), "--no-banner")
    assert code == 0
    assert out == {"positive": "b", "negative": "a"}


def test_corollary1(files, capsys):
    code, out = run(capsys, "corollary1", files["maximal"], "--set", "c,d", "--no-banner")
    assert code == 0
    assert out == {"set": "c,d", "a_prime": "c", "a_double_prime": "d"}
    code, out = run(capsys, "corollary1", files["maximal"], "--set", "a,b")
    assert code == 2
    assert out["error"]["code"] == "InDomain"


def test_maximalize_with_fill(files, capsys):
    code, out = run(
        capsys, "maximalize", files["partial"], "--fill", "b=+inf", "--no-banner"
    )
    assert code == 0
    assert out["kind"] == "maximal"
    assert out["payload"]["atom_values"] == {"a": "-inf", "b": "+inf"}
    code, out = run(capsys, "maximalize", files["partial"], "--fill", "a=1")
    assert code == 2
    assert out["error"]["code"] == "FillConflict"


def test_musxi_and_rn(files, capsys):
    code, out = run(capsys, "musxi", files["rv"], files["prob"], "--no-banner")
    assert code == 0
    assert out["payload"]["atom_values"] == {
        "a": "1/2",
        "b": "-3",
        "c": "0",
        "d": "0",
    }
    code, out = run(capsys, "rn", files["maximal"], files["prob"])
    assert code == 2
    assert out["error"]["code"] == "NotAbsContinuous"


def test_rn_round_trip(files, capsys, tmp_path):
    code, integrated = run(capsys, "musxi", files["rv"], files["prob"], "--no-banner")
    mu_file = tmp_path / "mu.json"
    mu_file.write_text(json.dumps(integrated))
    code, out = run(capsys, "rn", str(mu_file), files["prob"], "--no-banner")
    assert code == 0
    # canonical density is zero on the null atoms
    assert out["payload"]["values"] == {"a": "1", "b": "-6", "c": "0", "d": "0"}


def test_esssup(files, capsys):
    code, out = run(
        capsys, "esssup", files["prob"], "--set", "a,c", "--set", "d", "--no-banner"
    )
    assert code == 0
    assert out == {"ess_sup": "a"}


def test_example3_report(capsys):
    code, out = run(capsys, "example3", "--seed", "4", "--trials", "500", "--no-banner")
    assert code == 0
    assert out["hahn_split_exists"] is False
    assert out["counterexamples"] == 0
    assert out["trials"] == 500


def test_fuzz_small_run(capsys, tmp_path):
    code, out = run(
        capsys,
        "fuzz",
        "--seed", "1",
        "--trials", "5",
        "--max-atoms", "4",
        "--output", str(tmp_path / "report.json"),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failures"] == 0
    assert report["trials"] == 5
    assert all(p["failures"] == 0 for p in report["properties"])


def test_banner_toggle(files, capsys):
    code, with_banner = run(capsys, "hahn", files["maximal"])
    assert code == 0
    assert with_banner["banner"]["tool"] == "partmeas"
    code, without = run(capsys, "hahn", files["maximal"], "--no-banner")
    assert "banner" not in without


def test_deterministic_output_bytes(files, capsys):
    code = main(["jordan", files["maximal"], "--no-banner"])
    first = capsys.readouterr().out
    code = main(["jordan", files["maximal"], "--no-banner"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_unknown_command_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_no_command_exits_64(capsys):
    assert main([]) == 64


def test_missing_file_exits_1(capsys):
    code, out = run(capsys, "jordan", "/nonexistent/path.json")
    assert code == 1
    assert out["error"]["code"] == "Schema"


def test_malformed_json_exits_1(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, out = run(capsys, "jordan", str(f))
    assert code == 1


def test_wrong_kind_exits_1(files, capsys):
    code, out = run(capsys, "jordan", files["prob"])
    assert code == 1
    assert "expected" in out["error"]["detail"]


def test_unknown_point_in_set_flag(files, capsys):
    code, out = run(capsys, "corollary1", files["maximal"], "--set", "z")
    assert code == 2
    assert out["error"]["code"] == "UnknownPoint"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_example3_rejects_nonpositive_trials(capsys, trials):
    code, out = run(capsys, "example3", "--trials", trials)
    assert code == 2
    assert out["error"]["code"] == "InvalidConfig"


@pytest.mark.parametrize(
    "command,bound",
    [("fuzz", fuzzing.MAX_FUZZ_TRIALS), ("example3", symbolic.MAX_HAHN_TRIALS)],
)
def test_trials_past_the_bound_exit_2(capsys, command, bound):
    code, out = run(capsys, command, "--trials", str(bound + 1), "--no-banner")
    assert code == 2
    assert out["error"] == {
        "code": "InvalidConfig",
        "detail": f"trials must be between 1 and {bound}",
    }


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    f = tmp_path / "nested.json"
    f.write_text("[" * 100_000)
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert out["error"]["code"] == "Schema"


def test_jordan_at_the_enumeration_cap(tmp_path, capsys):
    labels = [f"p{i:02d}" for i in range(20)]
    f = tmp_path / "ones.json"
    f.write_text(json.dumps({
        "kind": "maximal",
        "payload": {"space": {"points": labels},
                    "atom_values": {lab: "1" for lab in labels}},
    }))
    code, out = run(capsys, "jordan", str(f), "--no-banner")
    assert code == 0
    assert out["mu_plus"]["payload"]["values"] == {lab: "1" for lab in labels}
    assert out["mu_minus"]["payload"]["values"] == {lab: "0" for lab in labels}


def test_unwritable_output_exits_1(files, tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "out.json")
    for source in (files["maximal"], str(tmp_path / "missing.json")):
        code, out = run(capsys, "validate", source, "--output", target)
        assert code == 1
        assert out["error"]["code"] == "Schema"
        assert target in out["error"]["detail"]


def test_fuzz_exits_3_on_failing_property(monkeypatch, tmp_path, capsys):
    calls = []

    def fails_first_trial(rng, cfg):
        calls.append(None)
        if len(calls) == 1:
            raise PropertyViolation("broken invariant")

    monkeypatch.setattr(fuzzing, "PROPERTIES", [("fails_once", fails_first_trial)])
    target = tmp_path / "report.json"
    code = main(["fuzz", "--seed", "2", "--trials", "3", "--no-banner",
                 "--output", str(target)])
    assert code == 3
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["failures"] == 1
    assert report["properties"] == [{"name": "fails_once", "trials": 3, "failures": 1}]
    written = tmp_path / "counterexample_fails_once_0.json"
    assert report["counterexample_files"] == [str(written)]
    assert json.loads(written.read_text())["detail"] == "broken invariant"


def wide_partial(tmp_path, n_points, n_set):
    """A partial file on ``n_points`` points with one ``n_set``-atom domain set."""
    points = [f"p{i:02d}" for i in range(n_points)]
    labels = points[:n_set]
    domain = [[lab] for lab in labels] + [labels]
    values = {lab: "1" for lab in labels}
    values[",".join(labels)] = str(n_set)
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({
        "kind": "partial",
        "payload": {"space": {"points": points}, "domain": domain, "values": values},
    }))
    return str(f)


def test_partial_domain_set_past_the_cap_exits_2(tmp_path, capsys):
    code, out = run(capsys, "validate", wide_partial(tmp_path, 21, 21), "--no-banner")
    assert code == 2
    assert out["error"]["code"] == "TooLarge"


def test_too_large_detail_counts_the_domain_set(tmp_path, capsys):
    code, out = run(capsys, "validate", wide_partial(tmp_path, 22, 21), "--no-banner")
    assert code == 2
    assert out["error"] == {
        "code": "TooLarge",
        "detail": "domain set has 21 atoms; enumeration capped at 20",
    }


def test_domain_closure_past_the_budget_exits_2(tmp_path, capsys):
    # a 20-atom domain set alone closes to 2**20 sets, the budget; one
    # more singleton outside it makes 2**20 + 1
    points = [f"p{i:02d}" for i in range(21)]
    wide = points[:20]
    domain = [[lab] for lab in points] + [wide]
    values = {lab: "1" for lab in points}
    values[",".join(wide)] = "20"
    f = tmp_path / "closure.json"
    f.write_text(json.dumps({
        "kind": "partial",
        "payload": {"space": {"points": points}, "domain": domain, "values": values},
    }))
    code, out = run(capsys, "validate", str(f), "--no-banner")
    assert code == 2
    assert out["error"] == {
        "code": "TooLarge",
        "detail": "domain has 1048577 sets; enumeration capped at 2**20",
    }


def test_maximalize_does_not_list_the_domain(tmp_path, capsys):
    # three disjoint 20-atom domain sets: maximalize needs only the atom
    # vector, while validate echoes the domain and meets its budget
    points = [f"p{i:02d}" for i in range(60)]
    blocks = [points[i:i + 20] for i in (0, 20, 40)]
    values = {lab: "1" for lab in points}
    values.update({",".join(block): "20" for block in blocks})
    f = tmp_path / "blocks.json"
    f.write_text(json.dumps({
        "kind": "partial",
        "payload": {"space": {"points": points},
                    "domain": [[lab] for lab in points] + blocks,
                    "values": values},
    }))
    code, out = run(capsys, "maximalize", str(f), "--no-banner")
    assert code == 0
    assert out == {
        "kind": "maximal",
        "payload": {"space": {"points": points, "generators": [[p] for p in points]},
                    "atom_values": {lab: "1" for lab in points}},
    }
    code, out = run(capsys, "validate", str(f), "--no-banner")
    assert code == 2
    assert out["error"] == {
        "code": "TooLarge",
        "detail": "domain has 2097151 sets; enumeration capped at 2**20",
    }


@pytest.mark.parametrize("text", [
    '{"kind": "measure", "kind": "maximal", "payload": %s}',
    '{"kind": "measure", "payload": {"space": {"points": ["a"]},'
    ' "values": {"a": "1", "a": "2"}}}',
])
def test_duplicate_json_keys_exit_1(tmp_path, capsys, text):
    f = tmp_path / "dup.json"
    f.write_text(text.replace("%s", json.dumps(MAXIMAL["payload"])))
    code, out = run(capsys, "validate", str(f), "--no-banner")
    assert code == 1
    assert out["error"]["code"] == "Schema"
    assert "duplicate key" in out["error"]["detail"]


def test_non_ascii_digits_exit_1(tmp_path, capsys):
    f = tmp_path / "prob.json"
    f.write_text(json.dumps({
        "kind": "probability",
        "payload": {"space": {"points": ["a", "b"]},
                    "probs": {"a": "\u0661", "b": "0"}},
    }))
    code, out = run(capsys, "validate", str(f), "--no-banner")
    assert code == 1
    assert out["error"]["code"] == "Schema"


def test_memory_error_while_loading_exits_1(files, monkeypatch, capsys):
    def exhausted(handle, **kwargs):
        raise MemoryError

    monkeypatch.setattr(json, "load", exhausted)
    code, out = run(capsys, "validate", files["maximal"])
    assert code == 1
    assert out["error"]["code"] == "Schema"
    assert out["error"]["detail"].endswith("JSON document is too large")
