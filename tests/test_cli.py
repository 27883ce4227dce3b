"""Command line behavior: files written, formats, precedence, exit codes."""

import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from heisenberg_star import cli, csvio, spectrum, verify
from heisenberg_star.core import enumerate_sector, make_params
from heisenberg_star.dynamics import neel_experiment
from heisenberg_star.errors import ConvergenceError, StarError
from heisenberg_star.spectrum import level_table, sub_ground_energy
from heisenberg_star.states import subground_amplitudes, subground_coefficients
from heisenberg_star.verify import CheckResult


def run(args, **kw):
    return cli.main([str(a) for a in args], **kw)


def read(path):
    return path.read_text(encoding="utf-8")


# a fresh interpreter on this package with one BLAS thread
SUBPROCESS_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                      PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


class TestGroundScan:
    def test_outputs_and_headers(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["ground-scan", "--n", 6, "--two-s", 1,
                    "--ratio", "0:0.3:0.05", "--out", out])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == "J_over_gt,EG_over_gt,lG"
        assert len(lines) == 1 + 7  # inclusive grid 0, 0.05, ..., 0.3
        trans = tmp_path / "scan.transitions.csv"
        assert trans.exists()
        assert read(trans).splitlines()[0] == "J_over_gt,l_from,l_to"
        meta = read(tmp_path / "scan.csv.meta")
        assert "command = ground-scan" in meta
        assert "n = 6" in meta

    def test_meta_records_the_largest_block_solved(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--n", 8, "--two-s", 1, "--ratio", "0:0.1:0.1",
                    "--threads", 2, "--out", out]) == 0
        # the levels come from the Bethe ansatz: no block is built or solved
        meta = read(tmp_path / "scan.csv.meta").splitlines()
        assert not [line for line in meta if line.startswith("block_dim_max")]
        assert "threads = 2" in meta

    def test_solves_no_ring_block(self, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("a ring block was solved")

        monkeypatch.setattr(spectrum, "lowest_eigenpair", solve)
        monkeypatch.setattr(cli, "level_table", solve)
        assert run(["ground-scan", "--n", 16, "--two-s", 3, "--out", tmp_path / "x.csv"]) == 0

    def test_newton_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectrum, "BETHE_NEWTON_STEPS", 1)
        assert run(["ground-scan", "--n", 16, "--two-s", 3, "--out", tmp_path / "x.csv"]) == 3
        assert "residual" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("two_s", [0, 9])
    def test_bad_central_spin_is_refused_before_solving(self, two_s, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the central spin was checked")

        monkeypatch.setattr(cli, "bethe_levels", solve)
        assert run(["ground-scan", "--n", 8, "--two-s", two_s,
                    "--out", tmp_path / "x.csv"]) == 2

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["ground-scan", "--n", 6, "--two-s", 2,
                        "--ratio", "0:0.2:0.01", "--out", out]) == 0
        assert read(a) == read(b)

    def test_first_row_matches_weak_ring_limit(self, tmp_path):
        out = tmp_path / "scan.csv"
        run(["ground-scan", "--n", 4, "--two-s", 2,
             "--ratio", "0:0.1:0.1", "--out", out])
        first = read(out).splitlines()[1].split(",")
        want = -1.0 * (4 / 2 + 1) / math.sqrt(4)  # S=1
        assert float(first[1]) == pytest.approx(want, abs=1e-12)
        assert first[2] == "2"

    def test_bad_ratio_string(self, tmp_path):
        assert run(["ground-scan", "--n", 4, "--two-s", 1,
                    "--ratio", "0:1", "--out", tmp_path / "x.csv"]) == 2
        assert run(["ground-scan", "--n", 4, "--two-s", 1,
                    "--ratio", "0:1:0", "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("ratio", ["0:1:nan", "nan:1:0.1", "0:nan:0.1",
                                       "0:inf:0.1", "0:-inf:0.1", "0:1:inf"])
    def test_nonfinite_ratio_is_a_usage_error(self, ratio, tmp_path, capsys):
        assert run(["ground-scan", "--n", 4, "--two-s", 1,
                    "--ratio", ratio, "--out", tmp_path / "x.csv"]) == 2
        assert "must be finite" in capsys.readouterr().err


class TestGroundScanAtLargeN:
    """What the model implies, at ring lengths exact diagonalization cannot
    reach: every sub-ground energy is linear in J, so the ground energy is
    the lower envelope of N/2 + 1 lines. E1b(N/2) - E1b(N/2 - 1) = 2 puts
    the first edge at J/gt = S / (2 sqrt(N)), and for S >= 1 the l = 1
    line, of weight S + 1, meets the l = 0 line at
    J/gt = (S + 1) / (sqrt(N) (E1b(1) - E1b(0)))."""

    def test_sixty_four_sites(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--n", 64, "--two-s", 7, "--out", out]) == 0
        assert len(read(out).splitlines()) == 1 + 241

    @pytest.mark.parametrize("two_s", range(2, 9))
    @pytest.mark.parametrize("N", [32, 64])
    def test_edges_and_monotone_quantum_number(self, N, two_s, tmp_path):
        step = 0.001
        levels = spectrum.bethe_levels(N)
        last = (two_s / 2 + 1) / (math.sqrt(N) * float(levels[1] - levels[0]))
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--n", N, "--two-s", two_s,
                    "--ratio", f"0:{last + 0.1!r}:{step}", "--out", out]) == 0
        ls = [int(line.split(",")[2]) for line in read(out).splitlines()[1:]]
        assert all(a >= b for a, b in zip(ls, ls[1:]))
        edges = [line.split(",") for line in
                 read(tmp_path / "scan.transitions.csv").splitlines()[1:]]
        # plateaus narrower than a step may be skipped, so only the plateau
        # each edge leaves or reaches is fixed
        ratio, l_from, _ = edges[0]
        assert int(l_from) == N // 2
        assert abs(float(ratio) - spectrum.transition_point(N, two_s)) <= step + 1e-9
        ratio, l_from, l_to = edges[-1]
        assert (int(l_from), int(l_to)) == (1, 0)
        assert abs(float(ratio) - last) <= step + 1e-9


class TestGridSizeGuard:
    # runs the CLI on its arguments and prints the time cli.main took
    PROBE = """
import sys, time
from heisenberg_star import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""

    @pytest.mark.parametrize("args", [
        ["ground-scan", "--ratio", "0:1.2:1e-12"],
        ["ground-scan", "--ratio=-1e308:1e308:1"],
        ["neel", "--samples", "1000000000000"],
        ["coherent", "--samples", "1000001"],
    ], ids=["ratio-step", "ratio-span", "neel-samples", "coherent-samples"])
    def test_oversized_grid_is_refused_at_once(self, args, tmp_path):
        # a fresh interpreter under a 1 GB address-space limit, so a guard
        # that let the grid through fails on memory, not the machine
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *args, "--threads", "1",
                               "--out", str(tmp_path / "x.csv")], env=env,
                              capture_output=True, text=True, timeout=120, preexec_fn=limit)
        assert proc.returncode == 2, proc.stderr
        assert str(cli.GRID_POINTS_MAX) in proc.stderr
        assert float(proc.stdout.splitlines()[-1]) < 0.5
        assert not (tmp_path / "x.csv").exists()

    def test_the_largest_grid_is_accepted(self):
        assert len(cli._parse_ratio_range(f"0:{cli.GRID_POINTS_MAX - 1}:1")) \
            == cli.GRID_POINTS_MAX


class TestUnresolvedGrid:
    @pytest.mark.parametrize("args,tag", [
        (["coherent", "--n", "8", "--samples", "3", "--tmax-gt", "1e17"], ":dihedral"),
        (["neel", "--n", "16", "--samples", "3", "--tmax", "1e12"], "N=16:2S=3:2m=3:sublattice"),
    ], ids=["coherent-spectral", "neel-krylov"])
    def test_is_refused_before_propagating(self, args, tag, tmp_path):
        # eps ||H|| t_end above KRYLOV_TOL: the spectral route used to write
        # rounding noise, the Krylov route to halve substeps for hours
        proc = subprocess.run([sys.executable, "-m", "heisenberg_star.cli", *args,
                               "--threads", "1", "--out", str(tmp_path / "x.csv")],
                              env=SUBPROCESS_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "does not resolve the grid end" in proc.stderr and tag in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["coherent", "neel"])
    def test_default_grid_ends_are_resolved(self, command, tmp_path, monkeypatch, capsys):
        from heisenberg_star import dynamics

        # every block of the default run has ||H|| t_end three decades inside
        # the bound, and the bound is checked on it: none passes a bound of 0
        for span_max, code in ((1e-3 * dynamics.SPAN_MAX, 0), (0.0, 3)):
            monkeypatch.setattr(dynamics, "SPAN_MAX", span_max)
            assert run([command, "--samples", 3, "--threads", 1,
                        "--out", tmp_path / "x.csv"]) == code
        assert "does not resolve the grid end" in capsys.readouterr().err


class TestLevelTable:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert run(["level-table", "--n", 6, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "l,E1b,degeneracy"
        table = level_table(6)
        assert len(lines) == 1 + len(table.rows)
        for line, row in zip(lines[1:], table.rows):
            l_s, e_s, d_s = line.split(",")
            assert int(l_s) == row.l
            assert float(e_s) == pytest.approx(row.energy, abs=1e-11)
            assert int(d_s) == row.degeneracy

    def test_meta_records_the_largest_block_solved(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert run(["level-table", "--n", 10, "--out", out]) == 0
        # 16 bracelets of the half-filled 10-site ring, the largest block
        assert "block_dim_max = 16" in read(tmp_path / "levels.csv.meta").splitlines()

    def test_bad_ring_length_is_named(self, tmp_path, capsys):
        assert run(["level-table", "--n", -2, "--out", tmp_path / "t.csv"]) == 2
        assert "N must be even and >= 2, got -2" in capsys.readouterr().err


class TestNeel:
    def test_single_column(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run(["neel", "--n", 4, "--two-s", 1, "--tmax", 1,
                    "--samples", 3, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "t,value"
        assert lines[1].split(",") == ["0", "0.5"]
        assert len(lines) == 4

    def test_dual_column_order(self, tmp_path):
        out = tmp_path / "q2.csv"
        assert run(["neel", "--n", 4, "--two-s", 1, "--tmax", 1,
                    "--samples", 3, "--with-sz", "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "t,value_Sz,value_ms"
        t0 = lines[1].split(",")
        # the quench records the bare polarization, here S = 1/2
        assert float(t0[1]) == pytest.approx(0.5)
        assert float(t0[2]) == pytest.approx(0.5)

    def test_meta_records_the_switch(self, tmp_path):
        for flags, want in (([], "False"), (["--with-sz"], "True")):
            out = tmp_path / "q.csv"
            assert run(["neel", "--n", 4, "--two-s", 1, "--tmax", 1,
                        "--samples", 3, "--out", out, *flags]) == 0
            assert f"with_sz = {want}" in read(tmp_path / "q.csv.meta").splitlines()

    def test_meta_records_the_largest_block(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run(["neel", "--n", 4, "--two-s", 1, "--central", "uniform", "--tmax", 1,
                    "--samples", 3, "--out", out]) == 0
        # the sectors 2m = +-1 each hold 3 + 2 sublattice orbits of fillings 2 and 3 (or 1)
        meta = read(tmp_path / "q.csv.meta").splitlines()
        assert "block_dim_max = 5" in meta and "spectral_blocks = 2" in meta

    def test_series_depends_on_j_over_gt_only(self, tmp_path):
        # on a gt t grid H / gt = (J / gt) H_ring + S.L / sqrt(N), so the
        # command runs at gt = 1 and takes no --gt
        out = tmp_path / "q.csv"
        assert run(["neel", "--n", 6, "--two-s", 2, "--j-over-gt", 0.7, "--tmax", 4,
                    "--samples", 9, "--with-sz", "--threads", 1, "--out", out]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        gt = 2.5
        params = make_params(6, 2, J=0.7 * gt, g=gt / math.sqrt(6))
        want, _ = neel_experiment(params, "polarized", got[:, 0], ("Sz", "ms"))
        np.testing.assert_allclose(got[:, 1], want["Sz"], rtol=0, atol=1e-10)
        np.testing.assert_allclose(got[:, 2], want["ms"], rtol=0, atol=1e-10)
        with pytest.raises(SystemExit) as ei:
            run(["neel", "--gt", 2.5, "--out", out])
        assert ei.value.code == 2

    def test_odd_ring_is_a_usage_error(self, tmp_path):
        assert run(["neel", "--n", 5, "--two-s", 1,
                    "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_ring_is_a_usage_error(self, tmp_path, capsys, n):
        assert run(["neel", "--n", n, "--out", tmp_path / "x.csv"]) == 2
        assert "ring length must be an integer >= 2" in capsys.readouterr().err

    def test_negative_times_are_a_usage_error(self, tmp_path):
        assert run(["neel", "--n", 4, "--two-s", 1, "--tmax", -5,
                    "--samples", 3, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_nonfinite_times_are_a_usage_error(self, tmax, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["neel", "--n", 8, "--samples", 3, "--tmax", tmax, "--out", out]) == 2
        assert "time grid must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_infinite_end_is_refused_without_a_warning(self, tmp_path, capsys):
        assert run(["neel", "--n", 8, "--samples", 3, "--tmax", "inf",
                    "--out", tmp_path / "x.csv"]) == 2
        assert "time grid must be finite" in capsys.readouterr().err


class TestCoherent:
    def test_quick_run(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["coherent", "--n", 4, "--two-s", 1, "--tmax-gt", 2,
                    "--samples", 5, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "t,value"
        assert lines[1].split(",")[1] == "1"  # Sz/S at t = 0
        assert len(lines) == 6

    def test_momentum_column(self, tmp_path):
        out = tmp_path / "c2.csv"
        assert run(["coherent", "--n", 4, "--two-s", 1, "--tmax-gt", 2,
                    "--samples", 4, "--with-l2", "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "t,value_Sz,value_L2"
        l2_first = float(lines[1].split(",")[2])
        assert l2_first == pytest.approx(2 * 3.0, abs=1e-9)  # l = N/2 = 2
        assert "with_l2 = True" in read(tmp_path / "c2.csv.meta").splitlines()

    def test_meta_records_the_largest_k0_block(self, tmp_path):
        out = tmp_path / "c8.csv"
        assert run(["coherent", "--n", 8, "--two-s", 1, "--tmax-gt", 1,
                    "--samples", 3, "--out", out]) == 0
        # 8 + 5 bracelets of the two half-filled central levels
        assert "block_dim_max = 13" in read(tmp_path / "c8.csv.meta").splitlines()

    def test_meta_counts_the_blocks_of_each_route(self, tmp_path):
        out = tmp_path / "c8.csv"
        assert run(["coherent", "--n", 8, "--two-s", 1, "--tmax-gt", 1,
                    "--samples", 3, "--out", out]) == 0
        meta = read(tmp_path / "c8.csv.meta").splitlines()
        assert "spectral_blocks = 9" in meta and "krylov_blocks = 0" in meta

    def test_empty_time_span_is_a_usage_error(self, tmp_path):
        # tmax-gt 0 repeats t = 0, which is not a strictly increasing grid
        assert run(["coherent", "--n", 4, "--two-s", 1, "--tmax-gt", 0,
                    "--samples", 3, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_nonfinite_times_are_a_usage_error(self, tmax, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["coherent", "--n", 8, "--samples", 3, "--tmax-gt", tmax,
                    "--out", out]) == 2
        assert "time grid must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_infinite_end_is_refused_without_a_warning(self, tmp_path, capsys):
        assert run(["coherent", "--n", 8, "--samples", 3, "--tmax-gt", "inf",
                    "--out", tmp_path / "x.csv"]) == 2
        assert "time grid must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_nonfinite_phi_is_a_usage_error(self, phi, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["coherent", "--n", 8, "--samples", 3, "--tmax-gt", 1, "--phi", phi,
                    "--out", out]) == 2
        assert "phi" in capsys.readouterr().err
        assert not out.exists()


def term_by_term_subground(N, two_S, two_l, two_m, seed):
    """The sub-ground state with each coefficient times multiplet level placed
    in the whole product space at c 2^N + bits, restricted to the sector's
    keys and normalized there. The levels are lowered from the seed on the
    2^N ring states by the reference's L- and normalized over their filling,
    so the solved seed is all this shares with the package. Every step is
    float64, as in the package; the package lowers on orbits, which sums in
    another order, so the two agree to rounding."""
    lowering = sum(verify._ring_sites(N)[2])
    filling = np.bitwise_count(np.arange(1 << N))
    ring, amps = seed
    level = np.zeros(1 << N)
    level[ring.bits] = amps
    levels = {two_l: level}
    for two_lm in range(two_l - 2, -two_l - 2, -2):
        level = lowering @ level
        level /= np.linalg.norm(level[filling == (two_lm + N) // 2])
        levels[two_lm] = level
    full = np.zeros((two_S + 1) << N)
    for level, coeff in subground_coefficients(two_S, two_l, two_m):
        two_Sm, two_lm = (level, two_m - level) if two_S <= two_l else (two_m - level, level)
        c = (two_S - two_Sm) // 2
        full[c << N:(c + 1) << N] += coeff * levels[two_lm]
    sector = enumerate_sector(N, two_S, two_m)
    x = full[sector.keys]
    return sector, x / np.linalg.norm(x)


class TestSubground:
    def test_dump_and_energy(self, tmp_path):
        out = tmp_path / "sg.csv"
        assert run(["subground", "--n", 4, "--two-s", 2, "--out", out]) == 0
        lines = read(out).splitlines()
        N, two_S, two_m, dim = (int(x) for x in lines[0].split())
        assert (N, two_S) == (4, 2)
        assert two_m == abs(4 - 2)  # default: top weight of the multiplet
        assert len(lines) == 1 + dim
        amps = np.array([complex(float(r), float(i))
                         for _, r, i in (ln.split() for ln in lines[1:])])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
        meta = read(tmp_path / "sg.csv.meta")
        e_line = [ln for ln in meta.splitlines() if ln.startswith("energy")][0]
        table = level_table(4)
        want = sub_ground_energy(4, 2, 1.0, 1.0, table.energy(4))
        assert float(e_line.split("=")[1]) == pytest.approx(want, abs=1e-10)

    def test_meta_records_the_block_solved(self, tmp_path):
        out = tmp_path / "sg.txt"
        assert run(["subground", "--n", 8, "--two-s", 1, "--two-l", 2, "--out", out]) == 0
        # 5 bracelets of the 8-site ring with 5 spins up
        assert "block_dim = 5" in read(tmp_path / "sg.txt.meta").splitlines()

    def test_meta_records_the_flip_folded_block_at_l_zero(self, tmp_path, monkeypatch):
        solved = []
        solve = spectrum.lowest_eigenpair

        def record(op):
            solved.append(op.dim)
            return solve(op)

        monkeypatch.setattr(spectrum, "lowest_eigenpair", record)
        out = tmp_path / "sg.txt"
        assert run(["subground", "--n", 8, "--two-s", 2, "--two-l", 0, "--out", out]) == 0
        # the 8 bracelets of the half-filled 8-site ring pair up under the flip
        # into 7; the seed is certified on its multiplet ladder, so no other
        # block is solved
        assert solved == [7]
        assert "block_dim = 7" in read(tmp_path / "sg.txt.meta").splitlines()

    @pytest.mark.parametrize("two_l", range(0, 13, 2))
    def test_meta_reports_the_level_table_row(self, two_l, tmp_path):
        assert run(["level-table", "--n", 12, "--out", tmp_path / "t.csv"]) == 0
        assert run(["subground", "--n", 12, "--two-s", 2, "--two-l", two_l,
                    "--out", tmp_path / "sg.txt"]) == 0
        l, e1b, _ = read(tmp_path / "t.csv").splitlines()[1 + two_l // 2].split(",")
        assert int(l) == two_l // 2
        meta = read(tmp_path / "sg.txt.meta").splitlines()
        assert f"E1b = {e1b}" in meta
        assert f"block_dim = {level_table(12).rows[two_l // 2].block_dim}" in meta

    def test_rejects_bad_multiplet_member(self, tmp_path):
        assert run(["subground", "--n", 4, "--two-s", 2, "--two-l", 4,
                    "--two-m", 7, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("flags", [["--two-s", 0], ["--two-s", -1],
                                       ["--j", "nan"], ["--g", "inf"]])
    def test_bad_model_is_refused_before_solving(self, flags, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the model was checked")

        monkeypatch.setattr(cli, "bath_subground_state", solve)
        out = tmp_path / "x.txt"
        assert run(["subground", "--n", 4, *flags, "--out", out]) == 2
        assert not out.exists()

    def test_sector_beyond_the_cap_is_refused_before_solving(self, tmp_path, monkeypatch,
                                                              capsys):
        def solve(*args, **kwargs):
            raise AssertionError("a ring block was solved")

        monkeypatch.setattr(cli, "bath_subground_state", solve)
        monkeypatch.setattr(spectrum, "lowest_eigenpair", solve)
        out = tmp_path / "x.txt"
        # the star sector N = 22, 2S = 3, 2m = 3 holds 2,169,268 states
        assert run(["subground", "--n", 22, "--two-s", 3, "--two-l", 6, "--out", out]) == 2
        assert "sector dim 2169268 exceeds the cap 2000000" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.txt.meta").exists()

    @pytest.mark.parametrize("N,two_S,two_l,two_m", [
        (2, 1, 2, 1), (2, 2, 0, 2),
        (8, 2, 4, 2), (8, 3, 2, -1),  # l < S: central index 0 is a zero slice
        (10, 2, 4, -2), (10, 7, 4, -1), (10, 3, 10, -5),
        (16, 4, 4, 0), (16, 5, 2, -3), (16, 4, 8, -4),
    ])
    def test_dump_is_the_formatted_state(self, N, two_S, two_l, two_m, tmp_path):
        out = tmp_path / "sg.txt"
        assert run(["subground", "--n", N, "--two-s", two_S, "--two-l", two_l,
                    "--two-m", two_m, "--out", out]) == 0
        row, seed = spectrum.bath_subground_state(N, two_l)

        def dump(amps):
            lines = ["%d %.12g 0\n" % (i, a) for i, a in enumerate(amps)]
            return f"{N} {two_S} {two_m} {amps.size}\n" + "".join(lines)

        amps = subground_amplitudes(N, two_S, two_l, two_m, seed)
        assert amps.dtype == np.float64
        text = dump(amps)
        assert read(out) == text
        # each term placed in the whole product space
        sector, reference = term_by_term_subground(N, two_S, two_l, two_m, seed)
        np.testing.assert_allclose(amps, reference, rtol=0, atol=1e-15)
        if two_l < two_S:
            assert any(not amps[sector.central == c].any() for c in range(two_S + 1))
        meta = read(tmp_path / "sg.txt.meta").splitlines()
        energy = sub_ground_energy(two_l, two_S, 1.0, 1.0, row.energy)
        for line in (f"two_l = {two_l}", f"two_m = {two_m}", f"block_dim = {row.block_dim}",
                     f"E1b = {csvio.fmt(row.energy)}", f"energy = {csvio.fmt(energy)}"):
            assert line in meta

    @pytest.mark.parametrize("two_S,two_l", [(3, 0), (3, 6), (2, 8)])
    def test_the_dumped_state_is_float64(self, two_S, two_l, tmp_path, monkeypatch):
        dumped, write = [], csvio.write_state_dump

        def record(path, header, amps):
            dumped.append(amps.dtype)
            return write(path, header, amps)

        monkeypatch.setattr(csvio, "write_state_dump", record)
        assert run(["subground", "--n", 8, "--two-s", two_S, "--two-l", two_l,
                    "--out", tmp_path / "sg.txt"]) == 0
        assert dumped == [np.float64]

    def test_keys_beyond_int64_exit_two(self, tmp_path, capsys):
        assert run(["subground", "--n", 62, "--two-s", 3, "--two-l", 62,
                    "--out", tmp_path / "x.txt"]) == 2
        assert "overflow int64" in capsys.readouterr().err


def per_line_dump(path, header, amps):
    """The state dump written one line at a time, the imaginary part of
    each amplitude formatted as csvio once did."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header[0]} {header[1]} {header[2]} {amps.size}\n")
        for i, a in enumerate(amps):
            fh.write(f"{i} {format(float(a.real), '.12g')} {format(float(a.imag), '.12g')}\n")


class TestStateDump:
    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097])
    def test_bytes_match_the_per_line_writer(self, size, tmp_path):
        # amplitudes over 22 decades, every third one -0.0, around one chunk
        rng = np.random.default_rng(size)
        amps = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 3, size)
        amps[::3] = -0.0
        csvio.write_state_dump(tmp_path / "chunked.txt", (14, 2, -2), amps)
        per_line_dump(tmp_path / "per_line.txt", (14, 2, -2), amps)
        text = (tmp_path / "chunked.txt").read_bytes()
        assert text == (tmp_path / "per_line.txt").read_bytes()
        assert b"\n0 -0 0\n" in text

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("odd", [None, -0.0, math.nan, 1e-300])
    def test_real_amplitudes_match_the_per_line_writer(self, size, odd, tmp_path):
        # a -0.0, NaN or tiny amplitude in the middle is printed as the
        # per-line writer prints it, its imaginary part the literal 0
        rng = np.random.default_rng(size)
        amps = rng.standard_normal(size)
        if odd is not None:
            amps[size // 2] = odd
        csvio.write_state_dump(tmp_path / "chunked.txt", (14, 2, -2), amps)
        per_line_dump(tmp_path / "per_line.txt", (14, 2, -2), amps)
        text = (tmp_path / "chunked.txt").read_bytes()
        assert text == (tmp_path / "per_line.txt").read_bytes()
        assert f"\n{size // 2} {amps[size // 2]:.12g} 0\n".encode() in text

    @pytest.mark.parametrize("dtype", [np.complex128, np.float32])
    def test_other_dtypes_are_refused_before_writing(self, dtype, tmp_path):
        # only float64 amplitudes are dumped, the form of every sub-ground state
        path = tmp_path / "x.txt"
        with pytest.raises(StarError, match="float64"):
            csvio.write_state_dump(path, (14, 2, -2), np.ones(3, dtype=dtype))
        assert not path.exists()


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        assert run(["verify", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_takes_no_output_path(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            run(["verify", "--suite", "identities", "--out", tmp_path / "x"])
        assert ei.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_failing_check_sets_exit_one(self, monkeypatch, capsys):
        # cmd_verify imports run_suite when it runs, so it is replaced in verify
        monkeypatch.setattr(
            verify, "run_suite",
            lambda *a, **k: [CheckResult("broken", False, "synthetic")])
        assert run(["verify", "--suite", "identities"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("suite", ["spectrum", "subground", "dynamics-oracle"])
    def test_ring_size_below_two_is_refused(self, suite, n, capsys):
        assert run(["verify", "--suite", suite, "--n", n, "--threads", 1]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "Traceback" not in captured.err
        assert captured.err.startswith("error: the ring needs an even N >= 2")

    @pytest.mark.parametrize("suite", ["subground", "all"])
    def test_ring_below_the_largest_central_spin_is_refused_before_any_suite(
            self, suite, monkeypatch, capsys):
        # the subground suite checks 2S = 2, 3 and 4, so N = 2 is refused
        # before any suite runs, with an error that names --n
        def solve(*args, **kw):
            raise AssertionError("a ring block was solved before --n was checked")

        monkeypatch.setattr(verify, "bath_subground_state", solve)
        monkeypatch.setattr(spectrum, "bath_subground_state", solve)
        assert run(["verify", "--suite", suite, "--n", 2, "--threads", 1]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "Traceback" not in captured.err
        assert captured.err.startswith("error: the subground suite checks 2S up to 4")
        assert "--n >= 4, got --n 2" in captured.err

    def test_subground_suite_solves_each_ring_block_once(self, monkeypatch, capsys):
        solved = []
        real = verify.bath_subground_state

        def counted(N, two_l, **kw):
            solved.append(two_l)
            return real(N, two_l, **kw)

        monkeypatch.setattr(verify, "bath_subground_state", counted)
        monkeypatch.setattr(spectrum, "bath_subground_state", counted)
        assert run(["verify", "--suite", "subground", "--n", 8, "--threads", 1]) == 0
        assert sorted(solved) == [0, 2, 4, 6, 8]
        out = capsys.readouterr().out
        for two_S, count in ((2, 19), (3, 18), (4, 17)):
            assert f"PASS subground-residuals two_S={two_S}: {count} states, worst residual" in out


    def test_reference_suites_refuse_an_n_beyond_the_cap_at_once(self, tmp_path):
        # at N = 20 the subground suite's 2S = 4 needs 5 2^20 product states,
        # above the reference's cap: refused before any ring solve, in a fresh
        # interpreter under a 1 GB address-space limit, so a refusal that came
        # too late fails on memory, not the machine
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-c", TestGridSizeGuard.PROBE, "verify",
                               "--suite", "subground", "--n", "20", "--threads", "1"],
                              env=SUBPROCESS_ENV, capture_output=True, text=True,
                              timeout=120, preexec_fn=limit)
        assert proc.returncode == 2, proc.stderr
        assert f"at most {verify.REFERENCE_CAPACITY} product states" in proc.stderr
        assert float(proc.stdout.splitlines()[-1]) < 0.5
        # the spectrum suite uses no reference, so N = 20 still runs
        proc = subprocess.run([sys.executable, "-m", "heisenberg_star.cli", "verify",
                               "--suite", "spectrum", "--n", "20", "--threads", "1"],
                              env=SUBPROCESS_ENV, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "4/4 checks passed"


@pytest.mark.parametrize("args", [
    ["coherent", "--n", "12", "--jp", "0.8", "--with-l2", "--samples", "201",
     "--tmax-gt", "10"],
    ["level-table", "--n", "14"],
    ["neel", "--n", "12", "--samples", "101"],
], ids=["coherent", "level-table", "neel"])
def test_blas_thread_count_moves_no_value_beyond_1e_12(args, tmp_path):
    # no bitwise promise across BLAS thread counts, but this bound holds
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(SUBPROCESS_ENV, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "heisenberg_star.cli", *args, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        header, *rows = read(out).splitlines()
        tables.append((header, np.array([[float(v) for v in row.split(",")] for row in rows])))
    (header1, one), (header2, two) = tables
    assert header1 == header2 and one.shape == two.shape and one.size
    np.testing.assert_allclose(one, two, rtol=0, atol=1e-12)


class TestPlumbing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ei:
            run(["--version"])
        assert ei.value.code == 0

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run(["neel", "--frequency", "3"])
        assert ei.value.code == 2

    def test_solver_failure_maps_to_three(self, monkeypatch, tmp_path):
        def boom(args):
            raise ConvergenceError("stalled", residual=1.0)
        monkeypatch.setitem(cli.COMMANDS, "level-table", boom)
        assert run(["level-table", "--n", 4, "--out", tmp_path / "x.csv"]) == 3

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\ntwo-s = 2\nratio = 0:0.1:0.05\n# comment\n",
                       encoding="utf-8")
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--config", cfg, "--out", out]) == 0
        meta = read(tmp_path / "scan.csv.meta")
        assert "n = 6" in meta and "two_s = 2" in meta

    def test_flags_beat_the_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\n", encoding="utf-8")
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--config", cfg, "--n", 4, "--two-s", 1,
                    "--ratio", "0:0.1:0.05", "--out", out]) == 0
        assert "n = 4" in read(tmp_path / "scan.csv.meta")

    def test_missing_config_exits_two(self, tmp_path):
        assert run(["ground-scan", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("argv", [
        ["ground-scan", "--n", 8], ["level-table", "--n", 8],
        ["subground", "--n", 8], ["coherent", "--n", 8, "--samples", 3]])
    def test_out_naming_a_directory_exits_two(self, argv, tmp_path, capsys):
        assert run([*argv, "--threads", 1, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and "Traceback" not in err

    def test_config_naming_a_directory_exits_two(self, tmp_path, capsys):
        assert run(["level-table", "--config", tmp_path, "--out", tmp_path / "t.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_thread_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STAR_THREADS", "3")
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--n", 4, "--two-s", 1,
                    "--ratio", "0:0.1:0.05", "--out", out]) == 0
        assert "threads = 3" in read(tmp_path / "scan.csv.meta")

    def test_bad_env_is_not_read_when_the_flag_is_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STAR_THREADS", "abc")
        assert run(["level-table", "--n", 4, "--threads", 1,
                    "--out", tmp_path / "t.csv"]) == 0

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_config_cannot_set_a_switch(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"with-sz = {value}\n", encoding="utf-8")
        out = tmp_path / "q.csv"
        assert run(["neel", "--config", cfg, "--n", 4, "--two-s", 1, "--tmax", 1,
                    "--samples", 3, "--out", out]) == 2
        assert "with_sz" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_no_command_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nn = 8\n", encoding="utf-8")
        out = tmp_path / "q.csv"
        assert run(["neel", "--config", cfg, "--n", 4, "--two-s", 1, "--tmax", 1,
                    "--samples", 3, "--out", out]) == 2
        assert "nn" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_command_is_ignored(self, tmp_path):
        # ratio belongs to ground-scan, with-l2 is a coherent switch
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nratio = 0:1:0.5\nwith-l2 = true\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        assert run(["level-table", "--config", cfg, "--threads", 1, "--out", out]) == 0
        assert "n = 4" in read(tmp_path / "t.csv.meta")

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = abc\n", encoding="utf-8")
        with pytest.raises(SystemExit) as ei:
            run(["level-table", "--config", cfg, "--out", tmp_path / "t.csv"])
        assert ei.value.code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -3])
    def test_thread_flag_below_one_exits_two(self, tmp_path, capsys, value):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as ei:
            run(["level-table", "--n", 4, "--threads", value, "--out", out])
        assert ei.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_config_threads_below_one_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as ei:
            run(["level-table", "--config", cfg, "--n", 4, "--out", out])
        assert ei.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_threads_below_one_exits_two(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("STAR_THREADS", value)
        out = tmp_path / "t.csv"
        assert run(["level-table", "--n", 4, "--out", out]) == 2
        assert "STAR_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STAR_THREADS", "3")
        out = tmp_path / "scan.csv"
        assert run(["ground-scan", "--n", 4, "--two-s", 1, "--threads", 2,
                    "--ratio", "0:0.1:0.05", "--out", out]) == 0
        assert "threads = 2" in read(tmp_path / "scan.csv.meta")
