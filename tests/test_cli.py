from __future__ import annotations

import functools
import json
import random

import pytest

from byztrim import cli
from byztrim._inputs import decimal, integer
from byztrim.cli import main
from byztrim.conditions import check_partition_condition, check_reduced_graph_condition
from byztrim.digraph import parse_graph


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.json"
    assert main(["gen", "--kind", "counterexample-k5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.json"
    assert main(["gen", "--kind", "complete", "--n", "6", "--out", str(path)]) == 0
    return path


@pytest.fixture
def dense7_file(tmp_path):
    # Passes async at f=1 after 201 search nodes, so a budget of 3 runs out.
    path = tmp_path / "dense7.json"
    args = ["gen", "--kind", "random-uniform", "--n", "7", "--p", "0.9", "--seed", "8", "--out", str(path)]
    assert main(args) == 0
    return path


@pytest.fixture
def tiny_budget(monkeypatch):
    monkeypatch.setattr(
        cli, "check_partition_condition", functools.partial(check_partition_condition, budget=3)
    )


class TestGen:
    def test_writes_parseable_graph(self, k6_file):
        g = parse_graph(k6_file.read_text())
        assert g.n == 6 and len(g.edges) == 30

    def test_random_uniform_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "random-uniform", "--n", "8", "--p", "0.7", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_n(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "cycle", "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "graph kind 'cycle' is missing param(s) 'n'" in capsys.readouterr().err

    def test_random_uniform_missing_p(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["gen", "--kind", "random-uniform", "--n", "4", "--out", str(out)])
        assert rc == 2
        assert "graph kind 'random-uniform' is missing param(s) 'p'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["gen", "--kind", "complete", "--n", "5", "--p", "0.3", "--out", str(out)])
        assert rc == 2
        assert "graph kind 'complete' has unknown param(s) 'p'" in capsys.readouterr().err
        assert not out.exists()


class TestNumbers:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # int() reads each of these: a non-ASCII digit, surrounding
            # whitespace with a sign, a digit-group underscore.
            (["gen", "--kind", "complete", "--n", "\u0666"], "argument --n: invalid integer value: '\u0666'"),
            (["check", "g.json", "--mode", "async", "--f", " +1"], "argument --f: invalid integer value: ' +1'"),
            (["attack", "g.json", "--f", "1", "--rounds", "1_0"], "argument --rounds: invalid integer value: '1_0'"),
        ],
    )
    def test_rejects_lax_text(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, value", [("-3", -3), ("0", 0), ("12", 12), ("-0.5", -0.5), (".5", 0.5), ("2.", 2.0), ("1e-3", 1e-3)]
    )
    def test_accepts_plain_ascii(self, text, value):
        parse = integer if isinstance(value, int) else decimal
        assert parse(text) == value and type(parse(text)) is type(value)


class TestCheck:
    def test_k5_async_fails_with_witness(self, k5_file, capsys):
        rc = main(["check", str(k5_file), "--f", "1", "--mode", "async"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["verdict"] == "fail"
        assert set(out["witness"]) == {"F", "L", "C", "R"}

    def test_k6_async_passes(self, k6_file, capsys):
        rc = main(["check", str(k6_file), "--f", "1", "--mode", "async"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_k16_f3_async_passes(self, tmp_path, capsys):
        # Decided by the twin cut in about a thousand search nodes; without
        # the cut the search exceeds its 5 M-node budget.
        path = tmp_path / "k16.json"
        assert main(["gen", "--kind", "complete", "--n", "16", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path), "--f", "3", "--mode", "async"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert out["examined"] < 10_000

    def test_random_n20_f2_async_passes(self, tmp_path, capsys):
        # Decided by the fault-free screen; the search over every fault set
        # exceeds its 5 M-node budget.
        path = tmp_path / "n20.json"
        args = ["gen", "--kind", "random-uniform", "--n", "20", "--p", "0.9", "--seed", "1", "--out", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["check", str(path), "--f", "2", "--mode", "async"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert out["examined"] < out["budget"]

    def test_reduced_graph_oracle(self, k6_file, capsys):
        rc = main(["check", str(k6_file), "--f", "1", "--mode", "sync", "--oracle", "reduced-graph"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["check"] == "reduced-graph"
        assert out["examined"] > 0

    def test_reduced_graph_oracle_requires_sync(self, k6_file, capsys):
        rc = main(["check", str(k6_file), "--f", "1", "--mode", "async", "--oracle", "reduced-graph"])
        assert rc == 2

    def test_source_size_flag(self, k6_file, capsys):
        rc = main(["check", str(k6_file), "--f", "1", "--mode", "sync", "--source-size"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["source_size"]["verdict"] == "pass"

    def test_budget_exceeded(self, dense7_file, capsys, tiny_budget):
        rc = main(["check", str(dense7_file), "--f", "1", "--mode", "async"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["verdict"] == "budget-exceeded"
        assert (out["examined"], out["budget"]) == (4, 3)

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n":2,"edges":[[0,0]]}')
        rc = main(["check", str(bad), "--f", "0", "--mode", "sync"])
        assert rc == 2
        assert "self-loop" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"n": 3, "edges": [[true, 0]]}', "edge endpoints must be integers"),
            ('{"n": 6, "edge": [[0, 1]]}', "unknown field(s) 'edge'"),
        ],
    )
    def test_graph_document_boundary(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        rc = main(["check", str(bad), "--f", "0", "--mode", "sync"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err


class TestEquiv:
    def test_exhaustive_n2(self, capsys):
        rc = main(["equiv", "--n", "2", "--f", "1", "--exhaustive"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["agreement"] is True
        assert out["total"] == 4

    def test_sampled(self, capsys):
        rc = main(["equiv", "--n", "4", "--f", "1", "--samples", "30", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["total"] == 30 and out["agreement"] is True
        assert out["budget_exceeded"] == 0

    def test_exhaustive_capped(self, capsys):
        assert main(["equiv", "--n", "6", "--f", "0", "--exhaustive"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, capsys, samples):
        rc = main(["equiv", "--n", "5", "--f", "1", "--samples", samples])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--samples must be at least 1" in captured.err

    def test_reduced_graph_budget_exceeded_is_not_a_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "check_reduced_graph_condition",
            functools.partial(check_reduced_graph_condition, budget=2),
        )
        # The three sparse samples fail within two reductions; the three
        # dense ones pass the partition check and exceed the budget.
        rc = main(["equiv", "--n", "5", "--f", "1", "--samples", "6"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert (out["passing"], out["budget_exceeded"]) == (3, 3)
        assert out["disagreements"] == [] and out["agreement"] is True

    def test_partition_budget_exceeded_is_not_a_disagreement(self, capsys, tiny_budget):
        rc = main(["equiv", "--n", "4", "--f", "1", "--samples", "6", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert 0 < out["budget_exceeded"] <= 6
        assert out["disagreements"] == []


class TestRunVerify:
    def test_run_rejects_nan_input(self, tmp_path, k6_file, capsys):
        config = {
            "graph": json.loads(k6_file.read_text()),
            "f": 1,
            "inputs": [float("nan"), 0.2, 0.4, 0.6, 0.8, 0.5],
            "scheduler": {"kind": "random"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "trace.csv")])
        assert rc == 2
        assert "finite number" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"inputs": [0, 1], "scheduler": {"kind": "random"}}, "missing 'f'"),
            ({"f": 1, "inputs": [0, 1], "scheduler": {}}, "scheduler is missing 'kind'"),
            ({"f": 1, "inputs": [0, 1], "scheduler": None}, "missing 'scheduler'"),
            ({"f": 1, "inputs": [0, 1], "scheduler": {"kind": "random"}, "sed": 2}, "unknown field"),
        ],
    )
    def test_run_rejects_incomplete_config(self, tmp_path, k6_file, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": json.loads(k6_file.read_text()), **config}))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "trace.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"byzantine": {"kind": "split", "params": {}}}, "missing param(s) 'm', 'M'"),
            (
                {"scheduler": {"kind": "adaptive-delay", "params": {"left": 3}}},
                "must be a list of node ids",
            ),
            ({"byzantine": {"kind": "random", "params": {"low": float("nan")}}}, "finite number"),
            ({"byzantine": {"kind": "random", "params": {"lo": 0.0}}}, "unknown param(s) 'lo'"),
        ],
    )
    def test_run_rejects_bad_params(self, tmp_path, k6_file, capsys, edit, message):
        config = {
            "graph": json.loads(k6_file.read_text()),
            "f": 1,
            "fault_set": [5],
            "inputs": [0.0, 0.2, 0.4, 0.6, 0.8, 0.5],
            "scheduler": {"kind": "random"},
            "byzantine": {"kind": "silent"},
            **edit,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "trace.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_run_node_without_in_neighbours_keeps_its_value(self, tmp_path, capsys):
        # With f = 0 node 0 waits for no message; it averages its own value
        # alone, so it keeps it.
        config = {
            "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 1], [0, 2]]},
            "f": 0,
            "inputs": [0.0, 0.5, 1.0],
            "scheduler": {"kind": "random"},
            "max_rounds": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        trace_path = tmp_path / "trace.csv"
        assert main(["run", str(cfg_path), "--out", str(trace_path)]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "max-rounds-hit"
        rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
        assert {float(value) for _, node, value in rows if node == "0"} == {0.0}

    def test_run_that_cannot_progress_exits_2(self, tmp_path, capsys):
        # A synchronous run waits on every in-edge, so a silent faulty node
        # leaves the fault-free nodes waiting for ever.
        config = {
            "graph": {"n": 4, "edges": [[i, j] for i in range(4) for j in range(4) if i != j]},
            "f": 1,
            "fault_set": [3],
            "inputs": [0, 0.5, 1, 0.2],
            "scheduler": {"kind": "synchronous"},
            "byzantine": {"kind": "silent"},
            "max_rounds": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "trace.csv")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: no pending messages but the run is not finished\n"

    def test_verify_reports_validity_violation(self, tmp_path, k6_file, capsys):
        # Node 2 leaves the round-0 range [0, 1] in round 1.
        trace_path = tmp_path / "bad.csv"
        rows = ["round,nodeId,value"]
        rows += [f"0,{v},{v / 4}" for v in range(5)]
        rows += [f"1,{v},{1.5 if v == 2 else 0.5}" for v in range(5)]
        trace_path.write_text("\n".join(rows) + "\n")
        rc = main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["validity_ok"] is False
        assert report["rounds"] == 1

    def test_round_trip(self, tmp_path, k6_file, capsys):
        config = {
            "graph": json.loads(k6_file.read_text()),
            "f": 1,
            "fault_set": [5],
            "inputs": [0.0, 0.2, 0.4, 0.6, 0.8, 0.5],
            "scheduler": {"kind": "random"},
            "byzantine": {"kind": "random", "params": {"low": -3, "high": 3}},
            "seed": 11,
            "max_rounds": 10000,
            "epsilon": 1e-7,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", str(cfg_path), "--out", str(trace_path)])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["outcome"] == "converged"
        assert trace_path.exists()
        assert (tmp_path / "trace.metrics.csv").exists()

        rc = main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["validity_ok"] is True
        assert report["contraction"]["ok"] is True

    def test_verify_rejects_failing_graph(self, tmp_path, k5_file, capsys):
        trace_path = tmp_path / "atk.csv"
        rc = main(["attack", str(k5_file), "--f", "1", "--rounds", "20", "--out", str(trace_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["verify", str(trace_path), "--graph", str(k5_file), "--f", "1"])
        assert rc == 2
        assert "does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodeId,round\r\n0,0\r\n", "missing column(s) 'value'"),
            ("", "missing column(s) 'round', 'nodeId', 'value'"),
            ("round,round,nodeId,value\r\n0,5,0,0.5\r\n1,6,0,0.25\r\n", "names column(s) 'round' more than once"),
            ("round,nodeId,value\r\n0,0,0.5\r\n0,1\r\n", "line 3 has 2 field(s), need 3"),
            ("round,nodeId,value\r\nx,1,0.5\r\n", "line 2 column 'round' is not an integer: 'x'"),
            ("round,nodeId,value\r\n0,1,0.5\r\n0,0,abc\r\n", "line 3 column 'value' is not a number: 'abc'"),
            ("value,nodeId,round\r\n0.5,1.0,0\r\n", "line 2 column 'nodeId' is not an integer: '1.0'"),
            # int() would read these as node 10 and node 1.
            ("round,nodeId,value\r\n0,1_0,1.0\r\n", "line 2 column 'nodeId' is not an integer: '1_0'"),
            ("round,nodeId,value\r\n0,0,0.5\r\n0, 1 ,1.0\r\n", "line 3 column 'nodeId' is not an integer: ' 1 '"),
        ],
    )
    def test_verify_rejects_malformed_trace(self, tmp_path, k6_file, capsys, text, message):
        trace_path = tmp_path / "bad.csv"
        trace_path.write_bytes(text.encode())
        rc = main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: trace CSV") and message in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            # A stray node cut the common rounds to round 0, hiding node 1's jump.
            ("0,99,0.5", "error: trace names node(s) 99 not in the graph"),
            # A repeated row used to overwrite the jump (the last row won).
            ("1,1,0.5", "error: trace CSV line 6 repeats round 1 of node 1"),
        ],
    )
    def test_verify_rejects_stray_or_repeated_rows(self, tmp_path, k6_file, capsys, extra, message):
        trace_path = tmp_path / "bad.csv"
        rows = ["round,nodeId,value", "0,0,0.0", "0,1,1.0", "1,0,0.5", "1,1,9.0"]
        trace_path.write_text("\n".join(rows) + "\n")
        assert main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["validity_ok"] is False
        trace_path.write_text("\n".join(rows + [extra]) + "\n")
        rc = main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.strip() == message

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_verify_rejects_non_finite_values(self, tmp_path, k6_file, capsys, bad):
        # Node 0 holds a non-finite value for 12 rounds; the rest sit still.
        trace_path = tmp_path / "bad.csv"
        rows = ["round,nodeId,value"]
        rows += [f"{t},{v},{bad if v == 0 else v / 4}" for t in range(12) for v in range(5)]
        trace_path.write_text("\n".join(rows) + "\n")
        rc = main(["verify", str(trace_path), "--graph", str(k6_file), "--f", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.strip() == f"error: trace CSV line 2 has non-finite value '{bad}'"

    def test_verify_budget_exceeded(self, tmp_path, dense7_file, capsys, tiny_budget):
        rc = main(["verify", str(tmp_path / "t.csv"), "--graph", str(dense7_file), "--f", "1"])
        assert rc == 2
        assert "budget exceeded" in capsys.readouterr().err


class TestAttack:
    def test_k5_attack_blocks_convergence(self, tmp_path, k5_file, capsys):
        out = tmp_path / "atk.csv"
        rc = main(["attack", str(k5_file), "--f", "1", "--rounds", "50", "--out", str(out)])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["outcome"] == "max-rounds-hit"
        assert summary["spread_constant"] is True
        assert summary["spread_drift"] == 0.0
        assert summary["final_spread"] == 1.0

    @pytest.mark.parametrize("m, big_m", [(0.3, 0.7), (-1.3, 2.7)])
    def test_non_dyadic_levels_hold_within_tolerance(self, tmp_path, capsys, m, big_m):
        """Shuffled two-cluster graphs (3f+2 nodes per cluster, up to 2f
        cross in-edges per node): with levels such as 0.3 a side averaging
        its own level can move by an ulp, so the spread is not exactly
        constant, yet the attack holds."""
        drifts = []
        for seed in range(40):
            f = 1 + seed % 2
            size = 3 * f + 2
            rng = random.Random(seed)
            perm = list(range(2 * size))
            rng.shuffle(perm)
            clusters = [perm[:size], perm[size:]]
            edges = []
            for own, other in (clusters, clusters[::-1]):
                for v in own:
                    edges += [[u, v] for u in own if u != v]
                    edges += [[u, v] for u in rng.sample(other, rng.randint(0, 2 * f))]
            graph = tmp_path / "g.json"
            graph.write_text(json.dumps({"n": 2 * size, "edges": edges}))
            rc = main([
                "attack", str(graph), "--f", str(f), "--m", str(m), "--M", str(big_m),
                "--rounds", "100", "--out", str(tmp_path / "atk.csv"),
            ])
            summary = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert summary["outcome"] == "max-rounds-hit"
            assert summary["spread_constant"] is True
            assert summary["spread_drift"] <= cli.SPREAD_DRIFT_RTOL * max(abs(m), abs(big_m))
            drifts.append(summary["spread_drift"])
        # Exact equality would have failed some of these runs.
        assert any(drifts)

    def test_passing_graph_has_no_attack(self, tmp_path, k6_file, capsys):
        rc = main(["attack", str(k6_file), "--f", "1", "--rounds", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "no violating partition" in capsys.readouterr().err

    def test_custom_value_range(self, tmp_path, k5_file, capsys):
        out = tmp_path / "atk.csv"
        rc = main([
            "attack", str(k5_file), "--f", "1", "--m", "-2.0", "--M", "6.0",
            "--rounds", "10", "--out", str(out),
        ])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["final_spread"] == 8.0

    @pytest.mark.parametrize("levels", [["--m", "1e308", "--M", "1.7e308"], ["--m=-1e308", "--M", "1e308"]])
    def test_huge_levels_rejected(self, tmp_path, k5_file, capsys, levels):
        # Inputs beyond FLOAT_MAX/(n+1) could overflow an update's sum: no
        # run, no JSON with NaN or Infinity, no trace with inf cells.
        out = tmp_path / "atk.csv"
        rc = main(["attack", str(k5_file), "--f", "1", *levels, "--rounds", "10", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: input magnitude must be at most FLOAT_MAX/(n+1)" in captured.err
        assert not out.exists()

    def test_zero_rounds_rejected(self, tmp_path, k5_file, capsys):
        out = tmp_path / "atk.csv"
        rc = main(["attack", str(k5_file), "--f", "1", "--rounds", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: max_rounds must be >= 1, got 0\n"
        assert not out.exists()

    def test_budget_exceeded(self, tmp_path, k5_file, capsys, tiny_budget):
        out = tmp_path / "atk.csv"
        rc = main(["attack", str(k5_file), "--f", "1", "--rounds", "10", "--out", str(out)])
        assert rc == 2
        assert "budget exceeded" in capsys.readouterr().err
        assert not out.exists()
