import json
import math
from fractions import Fraction

import pytest

from hexwalk.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDist:
    def test_time_zero_single_row(self, capsys):
        code, out, _ = run(["dist", "--uniform", "--n", "0"], capsys)
        assert code == 0
        assert out == "j,k,p\n0,0,1\n"

    def test_mass_sums_to_one(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        code, _, _ = run(["dist", "--uniform", "--n", "6", "--out", str(path)], capsys)
        assert code == 0
        rows = path.read_text().splitlines()
        assert rows[0] == "j,k,p"
        total = sum(float(r.split(",")[2]) for r in rows[1:])
        assert abs(total - 1.0) <= 1e-12

    def test_engines_agree(self, tmp_path, capsys):
        exact_path = tmp_path / "exact.csv"
        closed_path = tmp_path / "closed.csv"
        run(["dist", "--uniform", "--n", "6", "--engine", "exact", "--out", str(exact_path)], capsys)
        run(
            ["dist", "--uniform", "--n", "6", "--engine", "closed-form", "--out", str(closed_path)],
            capsys,
        )

        def parse(p):
            return {
                (int(j), int(k)): float(v)
                for j, k, v in (r.split(",") for r in p.read_text().splitlines()[1:])
            }

        a, b = parse(exact_path), parse(closed_path)
        assert set(a) == set(b)
        assert all(abs(a[s] - b[s]) <= 1e-12 for s in a)

    def test_json_format(self, capsys):
        code, out, _ = run(["dist", "--uniform", "--n", "2", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["n"] == 2
        assert data["mode"] == "rational"
        assert sum(Fraction(e["p"]) for e in data["entries"]) == 1

    def test_heatmap_prints(self, capsys):
        code, out, _ = run(["dist", "--uniform", "--n", "2", "--heatmap"], capsys)
        assert code == 0
        assert "100*p" in out

    def test_fraction_strings_route_exact(self, capsys):
        code, out, _ = run(
            ["dist", "--q0", "1/3,1/3,1/3", "--q1", "1/3,1/3,1/3", "--n", "2", "--format", "json"],
            capsys,
        )
        assert json.loads(out)["mode"] == "rational"

    def test_decimal_strings_route_float(self, capsys):
        code, out, _ = run(
            ["dist", "--q0", "0.5,0.25,0.25", "--q1", "0.2,0.3,0.5", "--n", "2", "--format", "json"],
            capsys,
        )
        assert json.loads(out)["mode"] == "float64"


class TestMoments:
    def test_uniform_values(self, capsys):
        code, out, _ = run(["moments", "--uniform", "--n", "10"], capsys)
        data = json.loads(out)
        assert data["mean"] == [0.0, 0.0]
        assert data["variance"] == pytest.approx([5.0, 5.0])

    def test_time_zero(self, capsys):
        _, out, _ = run(["moments", "--uniform", "--n", "0"], capsys)
        data = json.loads(out)
        assert data["mean"] == [0.0, 0.0]
        assert data["variance"] == [0.0, 0.0]
        assert data["covariance"] == 0.0


class TestSample:
    def test_deterministic_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--uniform", "--n", "50", "--replicas", "200", "--seed", "11"]
        run(args + ["--out", str(p1)], capsys)
        run(args + ["--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_steps(self, capsys):
        code, out, _ = run(
            ["sample", "--uniform", "--n", "0", "--replicas", "2", "--seed", "1"], capsys
        )
        assert out == "replica,x,y\n0,0,0\n1,0,0\n"

    def test_paths_output(self, capsys):
        code, out, _ = run(
            ["sample", "--uniform", "--n", "3", "--replicas", "2", "--seed", "1", "--paths"],
            capsys,
        )
        rows = out.splitlines()
        assert rows[0] == "replica,step,x,y"
        assert len(rows) == 1 + 2 * 4

    def test_paths_streams_keyed_on_seed_and_replica(self, capsys):
        # Replica 1 at seed 0 must not replay replica 0 at seed 1.
        def path(seed, replica):
            _, out, _ = run(
                ["sample", "--uniform", "--n", "50", "--replicas", str(replica + 1),
                 "--seed", str(seed), "--paths"],
                capsys,
            )
            rows = [r.split(",") for r in out.splitlines()[1:]]
            return [r[2:] for r in rows if r[0] == str(replica)]

        assert path(0, 1) != path(1, 0)

    def test_statistical_mean(self, tmp_path, capsys):
        path = tmp_path / "cloud.csv"
        run(
            [
                "sample", "--uniform", "--n", "1000", "--replicas", "100000",
                "--seed", "5", "--out", str(path),
            ],
            capsys,
        )
        xs, ys = [], []
        for row in path.read_text().splitlines()[1:]:
            _, x, y = row.split(",")
            xs.append(float(x))
            ys.append(float(y))
        budget = 3.0 * math.sqrt(0.5 * 1000 / 100000)
        assert abs(sum(xs) / len(xs)) <= budget
        assert abs(sum(ys) / len(ys)) <= budget


class TestRate:
    def test_rate_at_mean_is_zero(self, capsys):
        code, out, _ = run(
            ["rate", "--uniform", "--mode", "large", "--point", "0", "0"], capsys
        )
        data = json.loads(out)
        assert data["finite"] is True
        assert abs(data["value"]) <= 1e-12

    def test_moderate_uniform_point(self, capsys):
        code, out, _ = run(
            ["rate", "--uniform", "--mode", "moderate", "--point", "1", "1"], capsys
        )
        assert json.loads(out)["value"] == pytest.approx(2.0, rel=1e-12)

    def test_grid_surface(self, capsys):
        code, out, _ = run(
            ["rate", "--uniform", "--mode", "large", "--grid=-0.2:0.2:3,-0.2:0.2:3"],
            capsys,
        )
        rows = out.splitlines()
        assert rows[0] == "x,y,rate,finite"
        assert len(rows) == 10
        assert all(r.endswith("true") for r in rows[1:])

    def test_unreachable_point_flagged(self, capsys):
        code, out, _ = run(
            ["rate", "--uniform", "--mode", "large", "--point", "10", "0"], capsys
        )
        data = json.loads(out)
        assert data["finite"] is False
        assert data["value"] is None

    def test_wide_grid_runs_newton_inside_the_domain_only(self, capsys, monkeypatch):
        from hexwalk import deviations

        kernel_calls = []
        legendre, kernel = deviations.legendre, deviations.log_partition

        def counted_legendre(*args, **kwargs):
            kernel_calls.append(0)
            return legendre(*args, **kwargs)

        def counted_kernel(*args):
            kernel_calls[-1] += 1
            return kernel(*args)

        monkeypatch.setattr(deviations, "legendre", counted_legendre)
        monkeypatch.setattr(deviations, "log_partition", counted_kernel)
        code, out, _ = run(["rate", "--uniform", "--grid=-3:3:31,-3:3:31"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()]
        assert rows[0] == ["x", "y", "rate", "finite"]
        assert len(rows) - 1 == len(kernel_calls) == 31 * 31
        # The uniform walk's domain is the hexagon with corners (0, +-sqrt(3)/2)
        # and (+-3/4, +-sqrt(3)/4); no grid point lies on its boundary.
        inside = [
            abs(float(x)) < 0.75 and abs(float(y)) + abs(float(x)) / math.sqrt(3) < math.sqrt(3) / 2
            for x, y, _, _ in rows[1:]
        ]
        assert [r[3] for r in rows[1:]] == ["true" if i else "false" for i in inside]
        assert [n > 0 for n in kernel_calls] == inside
        assert 0 < sum(inside) < 100

    def test_point_and_grid_conflict(self, capsys):
        code, _, err = run(
            ["rate", "--uniform", "--point", "0", "0", "--grid", "0:1:2,0:1:2"], capsys
        )
        assert code == 2


class TestValidate:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run(["validate"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    def test_symmetry_suite_only(self, capsys):
        code, out, _ = run(["validate", "--suite", "symmetry", "--m", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["suites"][0]["name"] == "symmetry"
        assert report["suites"][0]["max_violation"] == 0


class TestBadConfig:
    def test_corrupted_row_sum(self, capsys):
        code, _, err = run(
            ["dist", "--q0", "0.5,0.2,0.2", "--q1", "0.2,0.3,0.5", "--n", "2"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_missing_model(self, capsys):
        code, _, err = run(["dist", "--n", "2"], capsys)
        assert code == 2

    def test_uniform_conflicts_with_rows(self, capsys):
        code, _, _ = run(
            ["dist", "--uniform", "--q0", "1/3,1/3,1/3", "--n", "2"], capsys
        )
        assert code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--frobnicate"])
        assert exc.value.code == 2

    def test_negative_n(self, capsys):
        code, _, _ = run(["dist", "--uniform", "--n", "-3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("row", ["1/0,1/2,1/2", "x,1/2,1/2", "0.5,1/x,1/4"])
    def test_malformed_probability_exits_two(self, row, capsys):
        code, _, err = run(["dist", "--q0", row, "--q1", "1/3,1/3,1/3", "--n", "2"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed, capsys):
        code, out, err = run(["sample", "--uniform", "--n", "3", "--seed", str(seed)], capsys)
        assert code == 2
        assert "seed" in err
        code, out, err = run(
            ["sample", "--uniform", "--n", "3", "--seed", str(seed), "--paths"], capsys
        )
        assert code == 2
        assert "seed" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(["sample", "--uniform", "--n", "3", "--seed", str(2**128 - 1)], capsys)
        assert code == 0
        assert out.startswith("replica,x,y\n0,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "4"],
            ["sample", "--n", "4"],
            ["rate", "--point", "0.1", "0"],
        ],
    )
    def test_infinite_edge_length(self, argv, capsys):
        code, out, err = run([*argv, "--uniform", "--a", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert "edge length" in err

    def test_internal_value_error_is_not_bad_config(self, monkeypatch):
        from hexwalk import engine

        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(engine, "evolve", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["dist", "--uniform", "--n", "2"])


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hexwalk.cli", "moments", "--uniform", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def test_import_leaves_numpy_random_unloaded():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hexwalk.cli; print('numpy.random' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


class TestCaps:
    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran")

    def test_dist_steps_refused(self, capsys, monkeypatch):
        from hexwalk import engine

        monkeypatch.setattr(engine, "_advance", self.refuse)
        n = str(engine.MAX_EXACT_STEPS + 1)
        code, _, err = run(["dist", "--uniform", "--n", n], capsys)
        assert code == 2
        assert "cap" in err

    def test_closed_form_refused(self, capsys, monkeypatch):
        from hexwalk import closedform

        monkeypatch.setattr(closedform, "state_probability", self.refuse)
        n = str(closedform.MAX_EXACT_STEPS + 1)
        code, _, err = run(["dist", "--uniform", "--n", n, "--engine", "closed-form"], capsys)
        assert code == 2
        assert "cap" in err

    def test_paths_refused(self, capsys, monkeypatch):
        from hexwalk import cli, montecarlo

        monkeypatch.setattr(montecarlo, "sample_endpoint", self.refuse)
        n = str(cli.MAX_PATH_STEPS // 50 + 1)
        code, out, err = run(
            ["sample", "--uniform", "--n", n, "--replicas", "50", "--paths"], capsys
        )
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_endpoint_replicas_refused(self, capsys, monkeypatch):
        from hexwalk import montecarlo

        monkeypatch.setattr(montecarlo, "sample_endpoints", self.refuse)
        for replicas in (montecarlo.MAX_REPLICAS + 1, 10**15):
            code, out, err = run(
                ["sample", "--uniform", "--n", "10", "--replicas", str(replicas)], capsys
            )
            assert code == 2
            assert out == ""
            assert "cap" in err

    def test_grid_refused(self, capsys, monkeypatch):
        from hexwalk import cli, deviations

        monkeypatch.setattr(deviations, "legendre", self.refuse)
        side = int(cli.MAX_GRID_POINTS**0.5) + 1
        code, _, err = run(["rate", "--uniform", f"--grid=0:1:{side},0:1:{side}"], capsys)
        assert code == 2
        assert "cap" in err

    def test_grid_steps_checked_before_cap(self, capsys):
        code, _, err = run(["rate", "--uniform", "--grid=0:1:-400,0:1:-400"], capsys)
        assert code == 2
        assert "steps must be >= 1" in err
