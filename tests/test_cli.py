"""The command-line interface."""

import pathlib

import pytest

from repro.cli import main

INDEPENDENT = """
schema: CT(C,T); CS(C,S); CHR(C,H,R)
fds: C -> T; C H -> R
state:
  CT: (CS101, Smith)
  CHR: (CS101, Mon-10, 313)
"""

DEPENDENT = """
schema: CD(C,D); CT(C,T); TD(T,D)
fds: C -> D; C -> T; T -> D
state:
  CD: (CS402, CS)
  CT: (CS402, Jones)
  TD: (Jones, EE)
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        return str(path)

    return write


class TestAnalyze:
    def test_independent_exit_zero(self, scenario_file, capsys):
        code = main(["analyze", scenario_file(INDEPENDENT)])
        assert code == 0
        assert "independent: True" in capsys.readouterr().out

    def test_dependent_exit_one(self, scenario_file, capsys):
        code = main(["analyze", scenario_file(DEPENDENT)])
        assert code == 1
        out = capsys.readouterr().out
        assert "independent: False" in out
        assert "counterexample" in out

    def test_engine_flag(self, scenario_file):
        assert main(["analyze", scenario_file(INDEPENDENT), "--engine", "chase"]) == 0

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/path"]) == 2


class TestCheck:
    def test_satisfying_state(self, scenario_file, capsys):
        code = main(["check", scenario_file(INDEPENDENT)])
        assert code == 0
        assert "SATISFYING" in capsys.readouterr().out

    def test_unsatisfying_state(self, scenario_file, capsys):
        code = main(["check", scenario_file(DEPENDENT)])
        assert code == 1
        assert "NOT SATISFYING" in capsys.readouterr().out

    def test_no_state_section(self, scenario_file, capsys):
        code = main(["check", scenario_file("schema: R(A,B)\nfds: A -> B")])
        assert code == 2


class TestQuery:
    def test_derivable_facts(self, scenario_file, capsys):
        code = main(["query", scenario_file(INDEPENDENT), "-a", "T H R"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Smith" in out and "313" in out


class TestServe:
    OPS = """
# mixed stream against the live service
query T H R
insert CHR (CS101, Tue-9, 327)
query T H R
insert CT (CS101, Jones)
insert CT (CS101, Smith)
derivable T=Smith H=Tue-9 R=327
delete CHR (CS101, Tue-9, 327)
derivable T=Smith H=Tue-9 R=327
stats
"""

    def _ops_file(self, tmp_path) -> str:
        path = tmp_path / "ops.txt"
        path.write_text(self.OPS)
        return str(path)

    def test_serve_stream(self, scenario_file, tmp_path, capsys):
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", self._ops_file(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 derivable fact(s)" in out
        assert "2 derivable fact(s)" in out
        assert "REJECTED" in out  # (CS101, Jones) violates C -> T
        assert "duplicate" in out  # (CS101, Smith) is already stored
        assert "derivable T=Smith H=Tue-9 R=327: yes" in out
        assert "derivable T=Smith H=Tue-9 R=327: no" in out  # after the delete
        assert "served:" in out
        # the stats op surfaces the ServiceStats counters mid-stream
        # (on this 3-live-row toy state the delete's footprint exceeds
        # the rebuild-fallback fraction, so it deterministically falls
        # back — exactly what the counters should make visible)
        assert "stats:" in out
        assert "scoped_rechases = 0" in out
        assert "delete_fallbacks = 1" in out
        assert "window_cache_hits" in out
        assert "affected_rows_max" in out
        # and the closing summary names the delete path taken
        assert "1 deletes (0 scoped, 1 fallbacks)" in out

    def test_serve_local_method(self, scenario_file, tmp_path, capsys):
        code = main(
            [
                "serve",
                scenario_file(INDEPENDENT),
                "--ops",
                self._ops_file(tmp_path),
                "--method",
                "local",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "REJECTED" in out and "served:" in out

    def test_serve_bad_op_line(self, scenario_file, tmp_path, capsys):
        path = tmp_path / "ops.txt"
        path.write_text("frobnicate CT (1, 2)\n")
        code = main(["serve", scenario_file(INDEPENDENT), "--ops", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "unknown op" in captured.err
        assert f"{path}:1:" in captured.err  # names the offending line
        assert "served:" in captured.out  # the summary still prints

    def test_serve_error_mid_stream_flushes_partial_output(
        self, scenario_file, tmp_path, capsys
    ):
        """An op that raises mid-stream must not swallow the answers
        already produced: output so far is flushed, the bad line is
        named on stderr, later ops do not run, and the exit is 1."""
        path = tmp_path / "ops.txt"
        path.write_text(
            "query T H R\n"
            "insert CHR (CS101, Tue-9)\n"  # arity mismatch: CHR has 3 columns
            "query T H R\n"
        )
        code = main(["serve", scenario_file(INDEPENDENT), "--ops", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        # the first query's answer survived the failure...
        assert captured.out.count("derivable fact(s)") == 1
        assert "served:" in captured.out
        # ...the bad line is identified, and the third op never ran
        assert f"{path}:2:" in captured.err


class TestServeDurable:
    """serve --durable: WAL-backed persistence across CLI invocations."""

    def _ops(self, tmp_path, text, name="ops.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_state_survives_across_invocations(
        self, scenario_file, tmp_path, capsys
    ):
        scenario = scenario_file(INDEPENDENT)
        store = str(tmp_path / "store")
        first = self._ops(
            tmp_path,
            "insert CHR (CS101, Tue-9, 327)\ninsert CT (CS102, Lee)\n",
        )
        code = main(
            ["serve", scenario, "--ops", first, "--method", "local",
             "--durable", store]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "durable:" in out and "WAL records" in out
        # second invocation recovers the durable directory — and the
        # recovered state wins over the scenario's state section
        second = self._ops(tmp_path, "query C T\nstats\n", "ops2.txt")
        code = main(
            ["serve", scenario, "--ops", second, "--method", "local",
             "--durable", store]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"recovered 4 tuple(s) from {store}" in out
        assert "CS102\tLee" in out  # the first run's insert is back
        assert "wal_records_replayed" in out  # stats op shows WAL counters

    def test_snapshot_op(self, scenario_file, tmp_path, capsys):
        store = tmp_path / "store"
        ops = self._ops(
            tmp_path, "insert CHR (CS101, Tue-9, 327)\nsnapshot\n"
        )
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--method", "local", "--durable", str(store)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot: written" in out
        assert (store / "shards" / "CHR" / "snapshot.json").exists()

    def test_snapshot_op_requires_durable(self, scenario_file, tmp_path, capsys):
        ops = self._ops(tmp_path, "snapshot\n")
        code = main(["serve", scenario_file(INDEPENDENT), "--ops", ops])
        assert code == 1
        assert "requires a durable service" in capsys.readouterr().err

    def test_durable_requires_local_method(self, scenario_file, tmp_path, capsys):
        ops = self._ops(tmp_path, "query T H R\n")
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--durable", str(tmp_path / "store"), "--method", "chase"]
        )
        assert code == 2
        assert "--method local" in capsys.readouterr().err

    def test_workers_serve_the_stream(self, scenario_file, tmp_path, capsys):
        ops = self._ops(
            tmp_path,
            "insert CHR (CS101, Tue-9, 327)\nquery T H R\nstats\n",
        )
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--method", "local", "--durable", str(tmp_path / "store"),
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 derivable fact(s)" in out
        assert "server_workers = 2" in out  # stats op routes via the server


class TestServeEvolution:
    """serve ops ``schema`` and ``evolve`` — the online migration
    surface of the stream protocol."""

    def _ops(self, tmp_path, text):
        path = tmp_path / "ops.txt"
        path.write_text(text)
        return str(path)

    def test_schema_op_prints_the_catalog(self, scenario_file, tmp_path, capsys):
        ops = self._ops(tmp_path, "schema\n")
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--method", "local"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schema: epoch 0" in out
        assert "CHR(C,H,R)" in out
        assert "migration: none in flight" in out

    def test_evolve_op_migrates_online(self, scenario_file, tmp_path, capsys):
        ops = self._ops(
            tmp_path,
            "evolve split CHR -> CH(C,H) + CR(C,R)\n"
            "schema\n"
            "insert CH (CS102, Wed-2)\n"
            "query C H\n",
        )
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--method", "local"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0 -> 1" in out
        assert "schema: epoch 1 (pinned: 0)" in out
        assert "CH(C,H)" in out and "CR(C,R)" in out
        # the post-migration insert lands on the new shard and serves
        assert "Wed-2" in out

    def test_rejected_evolve_keeps_serving(self, scenario_file, tmp_path, capsys):
        ops = self._ops(
            tmp_path,
            "evolve add-fd S,H -> R\n"
            "query T H R\n",
        )
        code = main(
            ["serve", scenario_file(INDEPENDENT), "--ops", ops,
             "--method", "local"]
        )
        assert code == 0  # a refusal is an answer, not a stream error
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "derivable fact(s)" in out  # the stream continued
        assert "served:" in out

    def test_evolve_requires_local_method(self, scenario_file, tmp_path, capsys):
        ops = self._ops(tmp_path, "evolve add-attr CHR X\n")
        code = main(["serve", scenario_file(INDEPENDENT), "--ops", ops])
        assert code == 1
        assert "requires --method local" in capsys.readouterr().err

    def test_schema_requires_local_method(self, scenario_file, tmp_path, capsys):
        ops = self._ops(tmp_path, "schema\n")
        code = main(["serve", scenario_file(INDEPENDENT), "--ops", ops])
        assert code == 1
        assert "requires --method local" in capsys.readouterr().err


class TestEvolveCommand:
    """The standalone ``evolve`` subcommand."""

    def test_applies_one_op(self, scenario_file, capsys):
        code = main(
            ["evolve", scenario_file(INDEPENDENT), "-q", "add-attr CHR X = TBA"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evolve add-attr CHR X = TBA: epoch 0 -> 1" in out

    def test_batch_ops_chain_epochs(self, scenario_file, capsys):
        code = main(
            ["evolve", scenario_file(INDEPENDENT), "-q",
             "split CHR -> CH(C,H) + CR(C,R); add-attr CH X"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0 -> 1" in out
        assert "epoch 1 -> 2" in out

    def test_rejection_exits_one(self, scenario_file, capsys):
        code = main(
            ["evolve", scenario_file(INDEPENDENT), "-q", "add-fd S,H -> R"]
        )
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_dependent_schema_refused_up_front(self, scenario_file, capsys):
        code = main(
            ["evolve", scenario_file(DEPENDENT), "-q", "add-attr CD X"]
        )
        assert code == 1
        assert "independent starting schema" in capsys.readouterr().err

    def test_durable_evolution_persists(self, scenario_file, tmp_path, capsys):
        scenario = scenario_file(INDEPENDENT)
        store = str(tmp_path / "store")
        code = main(
            ["evolve", scenario, "-q", "split CHR -> CH(C,H) + CR(C,R)",
             "--durable", store]
        )
        assert code == 0
        capsys.readouterr()
        # a later serve over the same store reopens at the new epoch
        ops = tmp_path / "ops.txt"
        ops.write_text("schema\n")
        code = main(
            ["serve", scenario, "--ops", str(ops), "--method", "local",
             "--durable", store]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schema: epoch 1" in out
        assert "CH(C,H)" in out and "CR(C,R)" in out


class TestDemo:
    def test_demo_runs_all_examples(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Example 1" in out and "Example 3" in out


class TestServeLocalValidation:
    """serve --method local validates independence *before* any op
    applies and exits with the analysis diagnostic."""

    def test_dependent_schema_exits_before_ops(self, scenario_file, tmp_path, capsys):
        path = tmp_path / "ops.txt"
        path.write_text("insert CD (X, Y)\nquery C D\n")
        code = main(
            [
                "serve",
                scenario_file(DEPENDENT),
                "--ops",
                str(path),
                "--method",
                "local",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        # the diagnostic is the full analysis report, on stderr
        assert "independent: False" in captured.err
        assert "nothing was served" in captured.err
        # no op output, no summary: the stream never started
        assert "insert" not in captured.out
        assert "served:" not in captured.out

    def test_local_method_summary_names_shard_counters(
        self, scenario_file, tmp_path, capsys
    ):
        path = tmp_path / "ops.txt"
        path.write_text("query C T\ninsert CT (CS102, Lee)\nstats\n")
        code = main(
            [
                "serve",
                scenario_file(INDEPENDENT),
                "--ops",
                str(path),
                "--method",
                "local",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded:" in out and "shard-local windows" in out
        # the stats op surfaces the sharded counters (as_dict fields)
        assert "shard_windows" in out and "joined_windows" in out
