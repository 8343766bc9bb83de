import dataclasses
import json
import subprocess
import sys

import pytest

import typesemigroup as ts
from typesemigroup import cli, simplex
from typesemigroup.cli import main

MALFORMED = [
    ("not json at all", None),
    (json.dumps({"no": "kind"}), None),
    (json.dumps({"kind": "mystery"}), None),
    (json.dumps({"kind": "graph", "vertices": ["v"], "edges": []}), "ROW_ZERO"),
    (
        json.dumps(
            {
                "kind": "graph",
                "vertices": ["v"],
                "edges": [{"id": "a", "range": "v", "source": "x"}],
            }
        ),
        "BAD_REFERENCE",
    ),
    (
        json.dumps(
            {
                "kind": "kgraph",
                "vertices": ["u", "w"],
                "matrices": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]],
            }
        ),
        "NONCOMMUTING_MATRICES",
    ),
    (json.dumps({"kind": "action", "points": [1, 2], "generators": [[1, 1]]}), "NOT_A_PERMUTATION"),
    (json.dumps({"kind": "kgraph", "vertices": ["v"]}), None),
    (json.dumps({"kind": "graph", "vertices": ["v"], "edges": ["oops"]}), "BAD_REFERENCE"),
    (json.dumps({"kind": "kgraph", "vertices": ["v"], "matrices": "nope"}), None),
    (json.dumps({"kind": "action", "points": [1], "generators": 3}), None),
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestModelsAndExitCodes:
    def test_classify_two_loops(self, models_dir, capsys):
        code, out = run_cli(["classify", str(models_dir / "two_loops.json")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "PURELY_INFINITE"

    def test_classify_one_loop(self, models_dir, capsys):
        code, out = run_cli(["classify", str(models_dir / "one_loop.json")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "HYPOTHESES_NOT_MET"
        assert payload["report"]["faithful_state"] == [1]

    def test_equiv_certificate(self, models_dir, capsys):
        code, out = run_cli(
            ["equiv", str(models_dir / "two_loops.json"), "--lhs", "1", "--rhs", "2"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["verdict"] == "equiv"
        assert payload["outcome"]["certificate"]["steps"] == [
            {"move": 0, "direction": "forward"}
        ]

    def test_state_certificate(self, models_dir, capsys):
        code, out = run_cli(
            ["state", str(models_dir / "one_loop.json"), "--target", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["state"]["values"] == [1]

    def test_paradox_action_model(self, models_dir, capsys):
        code, out = run_cli(
            [
                "paradox",
                str(models_dir / "transposition.json"),
                "--target",
                "1,0",
                "--k",
                "2",
                "--l",
                "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["paradoxical"] is False

    def test_unknown_exit_code(self, models_dir, capsys):
        code, out = run_cli(
            [
                "equiv",
                str(models_dir / "two_loops.json"),
                "--lhs",
                "1",
                "--rhs",
                "7",
                "--budget-states",
                "2",
            ],
            capsys,
        )
        assert code == 3
        outcome = json.loads(out)["outcome"]
        assert outcome["verdict"] == "unknown"
        assert outcome["budget"]["exhausted"] is False

    def test_inconclusive_classify_exit_code(self, models_dir, capsys):
        code, out = run_cli(
            [
                "classify",
                str(models_dir / "two_loops.json"),
                "--budget-states",
                "4",
                "--budget-coord",
                "1",
            ],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["report"]["verdict"] == "INCONCLUSIVE"

    def test_coboundary(self, models_dir, capsys):
        code, out = run_cli(["coboundary", str(models_dir / "cross_double.json")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["coboundary"]["holds"] is False

    def test_unperforation(self, models_dir, capsys):
        code, out = run_cli(
            [
                "unperforation",
                str(models_dir / "two_loops.json"),
                "--coeff-bound",
                "3",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "model", "coeff_bound", "sweep"}
        assert payload["sweep"] == {"pairs_checked": 16, "unknown_pairs": 0, "truncated": False}

    @pytest.mark.parametrize("command", ["classify", "unperforation"])
    def test_mult_bound_flag_removed(self, models_dir, command):
        # the flag changed nothing and is no longer accepted
        with pytest.raises(SystemExit) as e:
            main([command, str(models_dir / "two_loops.json"), "--mult-bound", "3"])
        assert e.value.code == 2

    @pytest.mark.parametrize("command,flag", [
        *((c, "--seed") for c in ("classify", "equiv", "leq", "paradox", "state", "coboundary",
                                  "unperforation", "stabilize-test")),
        *((c, f) for c in ("state", "coboundary", "stabilize-test")
          for f in ("--budget-states", "--budget-coord")),
    ])
    def test_unread_flags_removed(self, models_dir, capsys, command, flag):
        # registered only where a command reads it
        argv = [command, str(models_dir / "two_loops.json")] + {
            "equiv": ["--lhs", "1", "--rhs", "2"], "leq": ["--lhs", "1", "--rhs", "2"],
            "paradox": ["--target", "1", "--k", "2", "--l", "1"], "state": ["--target", "1"],
        }.get(command, [])
        main(argv)  # the command itself parses
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, "3"])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_unperforation_with_unknown_pairs_exits_unknown(self, models_dir, capsys):
        code, out = run_cli(
            ["unperforation", str(models_dir / "two_loops.json"),
             "--budget-states", "4", "--budget-coord", "1"],
            capsys,
        )
        assert code == 3
        sweep = json.loads(out)["sweep"]
        assert (sweep["pairs_checked"], sweep["unknown_pairs"], sweep["truncated"]) == (25, 6, False)

    def test_oracle_compare(self, models_dir, capsys):
        code, out = run_cli(
            [
                "oracle-compare",
                str(models_dir / "three_cycle.json"),
                "--samples",
                "50",
                "--seed",
                "11",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["agreement"] is True

    def test_stabilize_test(self, models_dir, capsys):
        code, out = run_cli(
            ["stabilize-test", str(models_dir / "transposition.json"), "--n", "4"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["invariant"] is True

    def test_state_on_action_rejected(self, models_dir, capsys):
        code, out = run_cli(
            ["state", str(models_dir / "transposition.json"), "--target", "1,0"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "UNSUPPORTED_MODEL"

    def test_vector_length_mismatch(self, models_dir, capsys):
        code, out = run_cli(
            ["equiv", str(models_dir / "two_loops.json"), "--lhs", "1,2", "--rhs", "2"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("content,expected_code", MALFORMED)
    def test_malformed_suite(self, tmp_path, capsys, content, expected_code):
        path = tmp_path / "model.json"
        path.write_text(content, encoding="utf-8")
        code, out = run_cli(["classify", str(path)], capsys)
        assert code == 2
        payload = json.loads(out)
        assert "error" in payload
        if expected_code is not None:
            assert payload["error"]["code"] == expected_code

    @pytest.mark.parametrize("argv", [
        ["classify"], ["coboundary"], ["state", "--target", "1"],
        ["equiv", "--lhs", "1", "--rhs", "2"], ["unperforation"],
    ])
    def test_non_integral_matrix_rejected_by_every_command(self, tmp_path, capsys, argv):
        path = tmp_path / "model.json"
        for entry in (1.5, 1.0, True):
            path.write_text(json.dumps(
                {"kind": "kgraph", "vertices": ["v"], "matrices": [[[entry]]]}), encoding="utf-8")
            code, out = run_cli([argv[0], str(path)] + argv[1:], capsys)
            assert code == 2
            assert json.loads(out)["error"]["code"] == "NON_INTEGRAL_ENTRY"

    @pytest.mark.parametrize("argv", [
        ["unperforation", "--coeff-bound", "-1"],
        ["classify", "--coeff-bound", "-1"],
        ["classify", "--budget-states", "-1"],
        ["equiv", "--lhs", "1", "--rhs", "2", "--budget-coord", "-1"],
        ["paradox", "--target", "1", "--k", "2", "--l", "1", "--budget-states", "-5"],
    ])
    def test_negative_budget_rejected(self, models_dir, capsys, argv):
        code, out = run_cli([argv[0], str(models_dir / "two_loops.json")] + argv[1:], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA_VIOLATION"

    def test_zero_budgets_accepted(self, models_dir, capsys):
        code, out = run_cli(
            ["unperforation", str(models_dir / "two_loops.json"), "--coeff-bound", "0",
             "--budget-states", "0", "--budget-coord", "0"],
            capsys,
        )
        assert code == 0
        sweep = json.loads(out)["sweep"]
        assert (sweep["pairs_checked"], sweep["truncated"]) == (1, False)

    def test_internal_failure_is_a_consistency_diagnostic(self, models_dir, capsys, monkeypatch):
        # one_loop is a coboundary, so classify proves the coboundary LP
        # infeasible, and the Farkas certificate of that proof is rejected
        monkeypatch.setattr(simplex, "_check_farkas", lambda A, b, y: False)
        code, out = run_cli(["classify", str(models_dir / "one_loop.json")], capsys)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "CONSISTENCY_FAILURE"

    @pytest.mark.parametrize("argv,decider,forge", [
        # an EQUIV chain that ends at the right-hand side but does not start
        # at the left-hand one
        (["equiv", "two_loops.json", "--lhs", "1", "--rhs", "7"], "decide_equiv",
         lambda out: ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=ts.EquivCertificate((7,), (), (7,)))),
        # a true LEQ chain whose slack is off by one
        (["leq", "cross_double.json", "--lhs", "1,0", "--rhs", "0,2"], "decide_leq",
         lambda out: dataclasses.replace(out, slack=(1, 0))),
        (["paradox", "rank2_single_vertex.json", "--target", "1", "--k", "2", "--l", "1"],
         "kl_paradoxical", lambda out: dataclasses.replace(out, slack=(1,))),
        # a chain from k.target, not l.target
        (["paradox", "rank2_single_vertex.json", "--target", "1", "--k", "2", "--l", "1"],
         "kl_paradoxical",
         lambda out: ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=ts.EquivCertificate((2,), (), (2,)),
                                        slack=(0,))),
        # invariant separators that do not separate
        (["paradox", "rank2_single_vertex.json", "--target", "1", "--k", "2", "--l", "1"],
         "kl_paradoxical",
         lambda out: ts.DecisionOutcome(ts.Verdict.NOT_EQUIV,
                                        separator=ts.LinearSeparator(ts.SeparatorKind.RATIONAL, (0,)))),
        (["equiv", "one_loop.json", "--lhs", "1", "--rhs", "2"], "decide_equiv",
         lambda out: dataclasses.replace(
             out, separator=ts.LinearSeparator(ts.SeparatorKind.RATIONAL, (0,)))),
    ], ids=["equiv-start", "leq-slack", "paradox-slack", "paradox-start", "paradox-separator",
            "equiv-separator"])
    def test_forged_evidence_is_a_consistency_failure(self, models_dir, capsys, monkeypatch,
                                                      argv, decider, forge):
        argv = [argv[0], str(models_dir / argv[1])] + argv[2:]
        assert run_cli(argv, capsys)[0] == 0
        real = getattr(cli, decider)
        monkeypatch.setattr(cli, decider, lambda *args: forge(real(*args)))
        code, out = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "CONSISTENCY_FAILURE"

    @pytest.mark.parametrize("argv", [
        ["oracle-compare", "--samples", "-1"],
        ["stabilize-test", "--n", "-2"],
    ])
    def test_negative_sample_counts_rejected(self, models_dir, capsys, argv):
        # a negative count used to check nothing and report agreement
        code, out = run_cli([argv[0], str(models_dir / "transposition.json")] + argv[1:], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "SCHEMA_VIOLATION"
        assert error["details"] == {"flag": argv[1], "value": int(argv[2])}

    def test_zero_sample_counts_accepted(self, models_dir, capsys):
        model = str(models_dir / "transposition.json")
        code, out = run_cli(["oracle-compare", model, "--samples", "0"], capsys)
        assert code == 0 and json.loads(out)["samples"] == 0
        code, out = run_cli(["stabilize-test", model, "--n", "0"], capsys)
        assert code == 0 and json.loads(out)["stabilized"] == []

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unexpected_exception_is_an_internal_diagnostic(
        self, models_dir, capsys, monkeypatch, fmt
    ):
        def broken(args, kind, model):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_coboundary", broken)
        code = main(["coboundary", str(models_dir / "two_loops.json"), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            error = json.loads(captured.out)["error"]
            assert (error["code"], error["message"]) == ("INTERNAL", "RuntimeError: boom")
            assert error["details"]["raised_at"].startswith("test_cli.py:")
        else:
            assert captured.out.splitlines()[0] == 'error.code = "INTERNAL"'

    def test_unwritable_out_path_rejected(self, models_dir, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.json"
        code, out = run_cli(
            ["coboundary", str(models_dir / "two_loops.json"), "--out", str(target)], capsys
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA_VIOLATION"
        assert not target.exists()

    def test_missing_file(self, capsys):
        code, out = run_cli(["classify", "/nonexistent/model.json"], capsys)
        assert code == 2


class TestDeterminismAndRoundTrip:
    def test_repeat_invocations_byte_identical(self, models_dir, capsys):
        argv = ["classify", str(models_dir / "cross_double.json")]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_oracle_compare_seeded_determinism(self, models_dir, capsys):
        argv = [
            "oracle-compare",
            str(models_dir / "three_cycle.json"),
            "--samples",
            "25",
            "--seed",
            "7",
        ]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_json_round_trip(self, models_dir, capsys):
        for name in ("two_loops.json", "one_loop.json", "triangular.json"):
            _, out = run_cli(["classify", str(models_dir / name)], capsys)
            payload = json.loads(out)
            assert json.loads(json.dumps(payload)) == payload

    def test_out_flag_writes_same_bytes(self, models_dir, tmp_path, capsys):
        target = tmp_path / "report.json"
        _, out = run_cli(
            ["classify", str(models_dir / "two_loops.json"), "--out", str(target)],
            capsys,
        )
        assert target.read_text(encoding="utf-8") == out

    def test_text_format(self, models_dir, capsys):
        code, out = run_cli(
            ["classify", str(models_dir / "two_loops.json"), "--format", "text"],
            capsys,
        )
        assert code == 0
        assert "verdict" in out and "PURELY_INFINITE" in out

    @pytest.mark.parametrize("argv", [
        ["classify", "two_loops.json"],
        ["equiv", "two_loops.json", "--lhs", "1", "--rhs", "2"],
        ["coboundary", "triangular.json"],
        ["stabilize-test", "three_cycle.json", "--n", "1"],
    ])
    def test_text_format_leads_with_command_and_model(self, models_dir, capsys, argv):
        _, out = run_cli(
            [argv[0], str(models_dir / argv[1])] + argv[2:] + ["--format", "text"], capsys
        )
        lines = out.splitlines()
        assert lines[0] == f'command = "{argv[0]}"'
        n_model = sum(line.startswith("model.") for line in lines)
        assert n_model >= 3 and len(lines) > 1 + n_model
        assert all(line.startswith("model.") for line in lines[1:1 + n_model])

    def test_subprocess_byte_identity(self, models_dir):
        cmd = [
            sys.executable,
            "-m",
            "typesemigroup.cli",
            "classify",
            str(models_dir / "two_loops.json"),
        ]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
