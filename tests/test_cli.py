"""Command-line surface: exit codes, output determinism, JSON round trips."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from moment_angle import cli, cross_check, homology, read_cplx, resolutions, snf, write_cplx
from moment_angle.cli import main
from moment_angle.errors import MethodDisagreement

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def benchmark_module(name: str):
    """A module of the benchmark, ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p28_file(tmp_path, capsys):
    path = tmp_path / "p28.cplx"
    code, _, _ = run_cli(["construct", "p28-8", "--out", str(path)], capsys)
    assert code == 0
    return str(path)


@pytest.fixture()
def pentagon_file(tmp_path, capsys):
    path = tmp_path / "p5.cplx"
    assert run_cli(["construct", "polygon", "5", "--out", str(path)], capsys)[0] == 0
    return str(path)


class TestConstruct:
    def test_p28_matches_golden_file(self, p28_file):
        assert Path(p28_file).read_text() == (DATA / "p28_8.cplx").read_text()

    def test_builders_produce_readable_files(self, tmp_path, capsys):
        cases = [
            (["construct", "polygon", "5"], 5),
            (["construct", "simplex-boundary", "3"], 4),
            (["construct", "cross-polytope", "2"], 6),
            (["construct", "truncated-simplex", "3", "2"], 6),
        ]
        for argv, m in cases:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert read_cplx(out).m == m

    def test_join_command(self, tmp_path, capsys):
        a = tmp_path / "a.cplx"
        b = tmp_path / "b.cplx"
        run_cli(["construct", "polygon", "5", "--out", str(a)], capsys)
        run_cli(["construct", "polygon", "3", "--out", str(b)], capsys)
        code, out, _ = run_cli(["construct", "join", str(a), str(b)], capsys)
        assert code == 0
        assert read_cplx(out).m == 8

    def test_bad_parameters(self, capsys):
        assert run_cli(["construct", "polygon", "x"], capsys)[0] == 2
        assert run_cli(["construct", "polygon", "2"], capsys)[0] == 2
        assert run_cli(["construct", "nonsense"], capsys)[0] == 2
        wrong_counts = [
            (["polygon"], "polygon takes 1 parameter(s), got 0"),
            (["truncated-simplex", "3"], "truncated-simplex takes 2 parameter(s), got 1"),
            (["polygon", "3", "4"], "polygon takes 1 parameter(s), got 2"),
            (["p28-8", "5"], "p28-8 takes 0 parameter(s), got 1"),
        ]
        for argv, expected in wrong_counts:
            code, out, err = run_cli(["construct", *argv], capsys)
            assert (code, out) == (2, ""), argv
            assert expected in err


class TestZk:
    def test_p28_table(self, p28_file, capsys):
        code, out, _ = run_cli(["zk", p28_file], capsys)
        assert code == 0
        for fragment in ["0  Z", "3  Z^2", "5  Z^8", "6  Z^18", "7  Z^8", "9  Z^2", "12  Z"]:
            assert fragment in out

    def test_json_schema_and_round_trip(self, p28_file, capsys):
        code, out, _ = run_cli(["zk", p28_file, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["m", "dim", "bigraded", "total"]
        assert payload["total"] == [
            {"p": 0, "rank": 1, "torsion": []},
            {"p": 3, "rank": 2, "torsion": []},
            {"p": 5, "rank": 8, "torsion": []},
            {"p": 6, "rank": 18, "torsion": []},
            {"p": 7, "rank": 8, "torsion": []},
            {"p": 9, "rank": 2, "torsion": []},
            {"p": 12, "rank": 1, "torsion": []},
        ]

    def test_methods_agree(self, pentagon_file, capsys):
        outputs = set()
        for method in ["hochster", "koszul", "taylor"]:
            code, out, _ = run_cli(["zk", pentagon_file, "--method", method], capsys)
            assert code == 0
            outputs.add(out.split("\n", 1)[1])
        assert len(outputs) == 1

    def test_method_all(self, pentagon_file, capsys):
        assert run_cli(["zk", pentagon_file, "--method", "all"], capsys)[0] == 0

    def test_cap_exceeded_names_the_flag(self, tmp_path, capsys):
        big = tmp_path / "big.cplx"
        run_cli(["construct", "polygon", "25", "--out", str(big)], capsys)
        code, _, err = run_cli(["zk", str(big)], capsys)
        assert code == 2
        assert "--max-vertices" in err


    def test_taylor_refusal_names_no_flag(self, tmp_path, capsys, monkeypatch):
        # 4,496 admissible Taylor monomials: a budget below that refuses,
        # and --max-vertices cannot lift it
        monkeypatch.setattr(resolutions, "TAYLOR_BASIS_CAP", 4_495)
        nonagon = tmp_path / "p9.cplx"
        run_cli(["construct", "polygon", "9", "--out", str(nonagon)], capsys)
        for extra in ([], ["--max-vertices", "99"]):
            code, _, err = run_cli(["crosscheck", str(nonagon), *extra], capsys)
            assert code == 2
            assert "Taylor" in err and "--max-vertices" not in err


    def test_koszul_budget_refusal_names_no_flag(self, tmp_path, capsys):
        # cross-polytope 7 has 16,777,216 Koszul monomials, over the cap
        octahedral = tmp_path / "cp7.cplx"
        run_cli(["construct", "cross-polytope", "7", "--out", str(octahedral)], capsys)
        for argv in (["zk", str(octahedral), "--method", "koszul"], ["crosscheck", str(octahedral)]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and not out
            assert "16777216" in err and "4194304" in err and "--max-vertices" not in err


class TestReports:
    def test_betti(self, p28_file, capsys):
        code, out, _ = run_cli(["betti", p28_file], capsys)
        assert code == 0 and "3  Z" in out

    def test_ring_json(self, p28_file, capsys):
        code, out, _ = run_cli(["ring", p28_file, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["generators"]) == 39
        assert payload["fundamental"] == 38
        gens = payload["generators"]
        assert gens[0]["J"] in ([5, 6], [7, 8])
        assert all("p" in g and "d" in g for g in gens)

    def test_crosscheck(self, pentagon_file, capsys):
        code, out, _ = run_cli(["crosscheck", pentagon_file], capsys)
        assert code == 0 and "agree" in out

    def test_crosscheck_json(self, pentagon_file, tmp_path, capsys):
        # the CLI and the benchmark's digest build the same payload, torsion included
        workloads = benchmark_module("workloads")
        rp2 = tmp_path / "rp2.cplx"
        rp2.write_text(write_cplx(workloads.rp2_6()))
        for path, has_torsion in [(Path(pentagon_file), False), (rp2, True)]:
            code, out, _ = run_cli(["crosscheck", str(path), "--json"], capsys)
            assert code == 0
            payload = workloads.crosscheck_payload(cross_check(read_cplx(path.read_text())))
            assert json.loads(out) == payload
            assert any(torsion for *_, torsion in payload["bidegrees"]) == has_torsion

    def test_classify_exit_codes(self, p28_file, tmp_path, capsys):
        assert run_cli(["classify", p28_file], capsys)[0] == 0
        # pentagon suspension carries a long induced cycle
        pentagon = tmp_path / "p5.cplx"
        run_cli(["construct", "polygon", "5", "--out", str(pentagon)], capsys)
        two = tmp_path / "s0.cplx"
        two.write_text("vertices 2\nfacet 1\nfacet 2\n")
        joined = tmp_path / "suspension.cplx"
        run_cli(["construct", "join", str(pentagon), str(two), "--out", str(joined)], capsys)
        assert run_cli(["classify", str(joined)], capsys)[0] == 1

    def test_verify_exit_codes(self, p28_file, capsys):
        good = ["verify", p28_file, "--model", "3,3,6;5,7*8;6,6*8"]
        bad = ["verify", p28_file, "--model", "5,7*9;6,6*9"]
        assert run_cli(good, capsys)[0] == 0
        assert run_cli(bad, capsys)[0] == 1

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.cplx"
        broken.write_text("vertices 4\nfacet 1 9\n")
        code, _, err = run_cli(["betti", str(broken)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        assert run_cli(["zk", "/no/such/file.cplx"], capsys)[0] == 2

    # the sweep reads no environment variable: a leftover setting changes nothing
    @pytest.mark.parametrize("value", ["abc", "0", "2"])
    def test_thread_env_var_is_not_read(self, p28_file, capsys, monkeypatch, value):
        _, expected, _ = run_cli(["zk", p28_file, "--json"], capsys)
        monkeypatch.setenv("MOMENT_ANGLE_THREADS", value)
        assert run_cli(["zk", p28_file, "--json"], capsys) == (0, expected, "")

    @pytest.mark.parametrize("argv", [["zk", "--method", "all"], ["crosscheck"]], ids=" ".join)
    def test_method_disagreement_exits_1(self, pentagon_file, capsys, monkeypatch, argv):
        def disagree(*_args, **_kwargs):
            raise MethodDisagreement((1, 3), "planted")

        monkeypatch.setattr(cli, "cross_check", disagree)
        code, out, err = run_cli([argv[0], pentagon_file, *argv[1:]], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("method disagreement:") and "planted" in err

    @pytest.mark.parametrize("argv", [
        ["betti", "--json"], ["zk", "--method", "taylor"], ["verify", "--model", "5,7*9;6,6*9"],
    ], ids=" ".join)
    def test_out_file_holds_the_printed_bytes(self, p28_file, tmp_path, capsys, argv):
        target = tmp_path / "report.txt"
        full = [argv[0], p28_file, *argv[1:]]
        code, printed, _ = run_cli(full, capsys)
        assert run_cli([*full, "--out", str(target)], capsys)[:2] == (code, "")
        assert target.read_text() == printed

    def test_reproduce_alias(self, capsys):
        code, out, _ = run_cli(["reproduce"], capsys)
        assert code == 0
        assert "all checks passed" in out


class TestGoldenOutputs:
    """Byte-exact JSON reports on the paper's sphere (``tests/data/p28_zk.json``
    pins the Betti table, in ``test_hochster.py``)."""

    def test_ring_json_is_golden(self, capsys):
        code, out, _ = run_cli(["ring", str(DATA / "p28_8.cplx"), "--json"], capsys)
        assert code == 0
        assert out == (DATA / "p28_ring.json").read_text()

    def test_paper_json_is_golden(self, capsys):
        code, out, _ = run_cli(["paper", "--json"], capsys)
        assert code == 0
        assert out == (DATA / "p28_paper.json").read_text()

    def test_failing_verify_json_is_golden(self, capsys):
        # a model with the right Betti numbers but no triple product
        argv = ["verify", str(DATA / "p28_8.cplx"), "--json", "--model", "3,9*2;5,7*8;6,6*9"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4a2c833c0a8f31c421905040eb38747aa2688a48dc84c4094c728db6841ba635"
        )


class TestTracerPins:
    """The library names the benchmark's tracer patches, which it finds by name."""

    def test_every_patched_name_resolves(self):
        unresolved = []
        for module_name, path, *_ in benchmark_module("tracing").PATCHES:
            owner = importlib.import_module(f"moment_angle.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if not hasattr(owner, attr):
                unresolved.append(f"{module_name}.{path}")
            elif outer and attr not in vars(owner):  # install() reads a method there
                unresolved.append(f"{module_name}.{path} (not in the class __dict__)")
        assert unresolved == []

    def test_homology_reads_the_sparse_reduction_from_snf(self):
        # the tracer patches it under every name; its self-test reads the homology one
        assert homology.invariant_factors_sparse is snf.invariant_factors_sparse


# exit code and SHA-256 of the text report on tests/data/p28_8.cplx, by subcommand
TEXT_DIGESTS = {
    "betti": (0, "3eac3f29cf31fd2f26f2a6a2883ef6b79daa118c0c730badbaa0ecc23014b20d"),
    "zk": (0, "d5ae2cce275e470d374f83ed20ede1e7d23dcef0a84d5ec9f7bbfb307eff2c39"),
    "zk --bigraded": (0, "8309caeb87c2f24f73d1ff9e1d79d4cc233f721305df9ac7fe90923bb787ec59"),
    "zk --method koszul": (0, "9cb1dd82471ccc8db0690b0b53079f96de4b105c7d1cf2e1b25bfac753312a8a"),
    "zk --method taylor": (0, "edb38afc5ea4d979a48c01e1a946bf944808ab1893cc11c417dfb45329fb7170"),
    "zk --method all": (0, "8b88c8a3935bbe436f9273801347b9afbda99c5cb4c10c25c337e32b9f538f11"),
    "zk --method all --bigraded": (
        0, "462971c5e1913242c01b01c5bf7dcdede8fd076f0169f2b7863d259ac1bae602"
    ),
    "ring": (0, "a1613f948147cc12eabe1a8a1c1e0afe556b84bb54586e86cf0af334c9521c10"),
    "crosscheck": (0, "da7b0830cd3c9934165b25cf383251808f52415f7fc0be4bfd8c2753dbd7e9a6"),
    "classify": (0, "fe92555c3e28f4d897e500008fd72a24bd5f7f92dbcda2f89c1cb81cd5e46eba"),
    "verify --model 3,3,6;5,7*8;6,6*8": (
        0, "6b53b389b570de2a6eada9ee01bfc7a6e1c2afe85aa5c8e8f0b87cbc8423f990"
    ),
    "verify --model 3,9*2;5,7*8;6,6*9": (
        1, "843a8574977715a01bdbb4fb9f0044ad4ceb5149349fdd288cc3f5f8e3384589"
    ),
    "paper": (0, "bdbc946a0ecd43a72d8be36b5820313322556491a8c7eb1ea9cd05bffc5621ed"),
}

# options a subcommand does not read: refused, not ignored
REFUSED = [
    "zk --threads 1",
    "zk --method koszul --threads 2",
    "paper --threads 1",
    "ring --threads 1",
    "crosscheck --threads 1",
    "betti --max-vertices 9",
    "paper --max-vertices 9",
    "zk --method koszul --bigraded",
    "zk --method taylor --bigraded",
]


def p28_argv(command: str) -> list:
    """``command`` split into argv, with the p28 file (relative to the repository) after
    the subcommand name unless it is ``paper``; the text reports print that path."""
    name, *options = command.split()
    return [name, *([] if name == "paper" else ["tests/data/p28_8.cplx"]), *options]


class TestTextOutputs:
    @pytest.mark.parametrize("command", TEXT_DIGESTS)
    def test_text_digest(self, capsys, monkeypatch, command):
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(p28_argv(command), capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == TEXT_DIGESTS[command]

    @pytest.mark.parametrize("command", REFUSED)
    def test_ignored_option_is_refused(self, capsys, monkeypatch, command):
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(p28_argv(command), capsys)
        assert (code, out) == (2, "")


class TestSubprocess:
    def test_module_invocation_is_byte_deterministic(self, tmp_path):
        quad = tmp_path / "quad.cplx"
        quad.write_text("vertices 4\nfacet 1 2\nfacet 2 3\nfacet 3 4\nfacet 1 4\n")
        cmd = [sys.executable, "-m", "moment_angle", "zk", str(quad), "--json"]
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_sweep_runs_in_process(self):
        # a whole zk run loads neither a process pool nor multiprocessing
        code = (
            "import sys; from moment_angle.cli import main; main(['zk', 'tests/data/p28_8.cplx']);"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("\n[]\n")

    def test_emitted_complex_reingests_identically(self, tmp_path):
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        out1 = subprocess.run(
            [sys.executable, "-m", "moment_angle", "construct", "truncated-simplex", "3", "2"],
            capture_output=True, text=True, env=env,
        )
        path = tmp_path / "t.cplx"
        path.write_text(out1.stdout)
        out2 = subprocess.run(
            [sys.executable, "-m", "moment_angle", "construct", "join", str(path), str(path)],
            capture_output=True, text=True, env=env,
        )
        assert out2.returncode == 0
        joined = read_cplx(out2.stdout)
        assert joined.m == 12
