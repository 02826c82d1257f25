"""End-to-end runs of the command-line program on small instances."""

import math
import re
import time
import warnings

import numpy as np
import pytest

from sparsespectra import (
    ConvergenceError,
    DegreeSequence,
    DiscreteMeasure,
    Multigraph,
    OnePlusExponential,
    TwoAtomLaw,
    UniformLaw,
    eigenvalues_symmetric,
    quantize_measure,
    scaled_adjacency,
    support_mp,
    xi,
)
from sparsespectra import cli, tables
from sparsespectra.cli import main, parse_measure_spec
from sparsespectra.tables import _BLOCK_ROWS

from oracles import trace_distance_bound


def read_rows(path, header):
    """Data rows of a CSV written by the CLI, past '#' metadata lines."""
    lines = path.read_text().splitlines()
    meta = {}
    k = 0
    while lines[k].startswith("#"):
        key, _, value = lines[k][1:].strip().partition("=")
        meta[key] = value
        k += 1
    assert lines[k] == header
    return meta, [line.split(",") for line in lines[k + 1:]]


# -- measure spec grammar ---------------------------------------------------


def test_spec_point_mass():
    m = parse_measure_spec("delta:1")
    assert m == DiscreteMeasure.point_mass(1.0)


def test_spec_atoms():
    m = parse_measure_spec("atoms:0.5=0.75,2.5=0.25")
    assert m.locations == (0.5, 2.5)
    assert m.weights == (0.75, 0.25)


def test_spec_two_atom():
    m = parse_measure_spec("two-atom:alpha=7,beta=0.5")
    assert m.locations == (0.5, 7.0)
    assert m.mean() == pytest.approx(1.0, abs=1e-12)


def test_spec_families():
    assert parse_measure_spec("one-plus-exponential:rate=2") == OnePlusExponential(rate=2.0)
    assert parse_measure_spec("uniform:low=0,high=2") == UniformLaw(0.0, 2.0)


def test_spec_laws_take_keywords_in_either_spelling():
    assert parse_measure_spec("one-plus-exponential(rate=2.0)") == OnePlusExponential(rate=2.0)
    assert parse_measure_spec("uniform(low=0, high=2)") == UniformLaw(0.0, 2.0)
    assert parse_measure_spec("uniform(high=2)") == UniformLaw(0.0, 2.0)
    assert parse_measure_spec("uniform") == UniformLaw(0.0, 1.0)
    assert (parse_measure_spec("two-atom(alpha=7,beta=0.5)")
            == parse_measure_spec("two-atom:alpha=7,beta=0.5"))
    with pytest.raises(ValueError, match=r"^uniform item '0': expected KEY=VALUE$"):
        parse_measure_spec("uniform(0, 2)")


def test_spec_groups():
    groups = parse_measure_spec(
        "groups:sqrt@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log")
    assert len(groups) == 2
    assert groups[0].count == "sqrt"
    assert groups[1].count == "rest"
    assert groups[1].law == UniformLaw(0.0, 2.0)
    assert parse_measure_spec(
        "groups:sqrt@one-plus-exponential:rate=1@sqrt;rest@uniform:low=0,high=2@log") == groups


def test_spec_file(tmp_path):
    f = tmp_path / "law.txt"
    f.write_text("# comment\n0.5 0.25\n1.5 0.75\n")
    m = parse_measure_spec(str(f))
    assert m.locations == (0.5, 1.5)
    assert m.weights == (0.25, 0.75)


def test_spec_errors_name_the_offending_item(tmp_path):
    f = tmp_path / "law.txt"
    f.write_text("# comment\n0.5 0.5\n2.0\n")
    with pytest.raises(ValueError) as info:
        parse_measure_spec(str(f))
    assert str(info.value) == f"{f} line 3: expected 'location weight', got '2.0'"
    with pytest.raises(ValueError, match="atoms item '2.0': expected LOCATION=WEIGHT"):
        parse_measure_spec("atoms:0.5=0.5,2.0")


@pytest.mark.parametrize("text, message", [
    ("1 0.5\n2 0.6\n", "weights sum to 1.1, expected 1 within 1e-12"),
    ("1 nan\n", "atoms must be finite"),
    ("1 -0.5\n2 1.5\n", "weights must be strictly positive"),
], ids=["sum", "nan", "negative"])
def test_spec_file_names_itself_on_a_measure_error(tmp_path, capsys, text, message):
    # every line parses, and the measure rejects the atoms
    f = tmp_path / "law.txt"
    f.write_text(text)
    rc = main(["density", "--measure", str(f), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {f}: {message}\n"


def test_spec_rejects_unknown_family():
    for spec, name in [("zipf:s=2", "zipf"),
                       ("one_plus_exponential(rate=1)", "one_plus_exponential")]:
        with pytest.raises(ValueError, match=rf"^unknown family '{name}'$"):
            parse_measure_spec(spec)


def test_spec_two_atom_names_a_missing_parameter():
    with pytest.raises(ValueError, match="beta"):
        parse_measure_spec("two-atom:alpha=7")


def test_two_atom_without_beta_returns_error_code(tmp_path, capsys):
    rc = main(["support", "--measure", "two-atom:alpha=7", "--out", str(tmp_path)])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_two_atom_with_an_unknown_key_returns_error_code(tmp_path, capsys):
    rc = main(["support", "--measure", "two-atom:alpha=7,beta=0.5,gamma=1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown parameters ['gamma'] for two-atom" in capsys.readouterr().err


def test_two_atom_item_without_equals_returns_error_code(tmp_path, capsys):
    rc = main(["support", "--measure", "two-atom:alpha=7,0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "two-atom item '0.5': expected KEY=VALUE" in capsys.readouterr().err


def test_groups_block_without_three_parts_returns_error_code(tmp_path, capsys):
    rc = main(["sample", "--measure", "groups:sqrt@uniform(low=0,high=2)", "--n", "100",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    expected = "groups block 'sqrt@uniform(low=0,high=2)': expected COUNT@FAMILY@SCALE"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("uniform:low=0,high=2,low=1", "uniform parameter 'low' given twice"),
    ("two-atom:alpha=7,beta=0.5,alpha=8", "two-atom parameter 'alpha' given twice"),
    ("one-plus-exponential:rate=1,2,3", "one-plus-exponential item '2': expected KEY=VALUE"),
    ("one-plus-exponential:rate", "one-plus-exponential item 'rate': expected KEY=VALUE"),
    ("one-plus-exponential(rate=fast)",
     "one-plus-exponential item 'rate=fast': expected KEY=VALUE"),
    ("uniform(low=0,high=2", "law 'uniform(low=0,high=2': expected NAME(KEY=VALUE,...)"),
    ("delta:abc", "delta 'abc': expected LOCATION"),
    ("atoms:0.5=half", "atoms item '0.5=half': expected LOCATION=WEIGHT"),
    ("groups:rest@two-atom(alpha=3,beta=0.5)@sqrt",
     "group law must be a continuous law (got TwoAtomLaw(alpha=3.0, beta=0.5))"),
    ("groups:many@uniform(high=2)@sqrt",
     "groups block 'many@uniform(high=2)@sqrt': expected COUNT@FAMILY@SCALE"),
    ("groups:0@uniform(low=0,high=2)@log",
     "the groups cover no vertex: every group count resolves to 0 at n=50"),
])
def test_bad_spec_exits_2_quoting_what_was_read(tmp_path, capsys, spec, message):
    rc = main(["sample", "--measure", spec, "--n", "50", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_two_atom_non_finite_alpha_returns_error_code(tmp_path, capsys, alpha):
    rc = main(["support", "--measure", f"two-atom:alpha={alpha},beta=0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert f"(got alpha={float(alpha)!r}, beta=0.5)" in capsys.readouterr().err


# -- sample ------------------------------------------------------------------


def test_sample_regular_graph_edge_count(tmp_path):
    rc = main(["sample", "--measure", "delta:1", "--n", "100", "--omega", "10",
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    edges = tmp_path / "sample_edges.txt"
    meta_lines = [l for l in edges.read_text().splitlines() if l.startswith("#")]
    assert any(l.endswith("edge_total=500") for l in meta_lines)
    assert (tmp_path / "sample_degrees.txt").exists()


def test_sample_seed_repetition_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["sample", "--measure", "one-plus-exponential:rate=1",
                   "--n", "64", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert (a / "sample_edges.txt").read_bytes() == (b / "sample_edges.txt").read_bytes()
    assert (a / "sample_degrees.txt").read_bytes() == (b / "sample_degrees.txt").read_bytes()


def test_sample_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for seed, out in (("1", a), ("2", b)):
        main(["sample", "--measure", "one-plus-exponential:rate=1",
              "--n", "64", "--seed", seed, "--out", str(out)])
    assert (a / "sample_edges.txt").read_bytes() != (b / "sample_edges.txt").read_bytes()


def test_sample_normalizes_a_continuous_law(tmp_path):
    # 1 + Exp(1) has mean 2: unless the CLI rescales it to unit mean, the
    # realized omega comes out near 2·sqrt(n)
    rc = main(["sample", "--measure", "one-plus-exponential:rate=1", "--n", "2000",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "sample_edges.txt").read_text().splitlines()
    omega = float(next(l for l in header if l.startswith("# omega_realized=")).partition("=")[2])
    assert abs(omega - math.sqrt(2000)) < 0.1 * math.sqrt(2000)


def test_sample_rejects_an_omega_that_is_no_rule_or_number(tmp_path, capsys):
    rc = main(["sample", "--measure", "delta:1", "--n", "50", "--seed", "1", "--omega", "foo",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: omega 'foo': expected a number, 'sqrt' or 'log'\n"


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_sample_rejects_non_finite_omega(tmp_path, capsys, omega):
    rc = main(["sample", "--measure", "delta:1", "--n", "50", "--seed", "1",
               f"--omega={omega}", "--out", str(tmp_path)])
    assert rc == 2
    assert "omega_target" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-3"])
def test_sample_rejects_bad_group_scale(tmp_path, capsys, scale):
    spec = f"groups:sqrt@one-plus-exponential(rate=1)@{scale};rest@uniform(low=0,high=2)@log"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["sample", "--measure", spec, "--n", "100", "--seed", "1",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert f"group scale must be positive and finite (got {float(scale)!r})" in capsys.readouterr().err


@pytest.mark.parametrize("measure, n, omega", [
    ("delta:1", "10", ["--omega", "1e19"]),
    ("delta:1", "11", ["--omega", "1e19"]),
    ("groups:sqrt@one-plus-exponential(rate=1)@1e19;rest@uniform(low=0,high=2)@log", "100", []),
], ids=["delta-even", "delta-odd", "group-scale"])
def test_sample_rejects_a_degree_beyond_int64(tmp_path, capsys, measure, n, omega):
    # the int64 cast wrapped these degrees to its minimum, which surfaced as
    # an all-zero or a negative degree sequence
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["sample", "--measure", measure, "--n", n, "--seed", "1", *omega,
                   "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    degree = re.fullmatch(r"error: degree (\S+) \(scale × weight\) does not fit in 64 bits\n", err)
    assert degree and float(degree[1]) >= 2**63


def test_sample_rejects_a_total_degree_beyond_int64(tmp_path, capsys):
    # ten degrees of 9.2e18 each fit in int64; their sum wrapped negative
    rc = main(["sample", "--measure", "delta:1", "--n", "10", "--omega", "9.2e18", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: total degree 92000000000000000000 does not fit in 64 bits\n")


@pytest.mark.parametrize("exc, detail", [
    (MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and "
                 "data type int64"),
     " (Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type "
     "int64)"),
    (MemoryError(), ""),
], ids=["numpy", "bare"])
def test_a_failed_allocation_exits_2_naming_the_command(tmp_path, capsys, monkeypatch, exc, detail):
    def sampler(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "sample_configuration", sampler)
    rc = main(["sample", "--measure", "delta:1", "--n", "10", "--omega", "1e12", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: sample: not enough memory{detail}\n"


_GROUPS = "groups:sqrt@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log"


@pytest.mark.parametrize("command", ["sample", "esd", "couple"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_groups_spec_rejects_an_omega(tmp_path, capsys, command, source):
    # each block sets its own scale, so an omega would be ignored and echoed
    argv = [command, "--measure", _GROUPS, "--n", "100", "--seed", "1",
            "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--omega", "10"]
    else:
        (tmp_path / "run.cfg").write_text("omega=10\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: omega '10' does not apply to a groups spec: "
                                       "each block sets its own scale\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec,omega_lines", [(_GROUPS, []), ("delta:1", ["# omega=sqrt"])])
def test_sample_header_echoes_omega_only_when_it_is_used(tmp_path, spec, omega_lines):
    rc = main(["sample", "--measure", spec, "--n", "100", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "sample_edges.txt").read_text().splitlines()
    assert [line for line in header if line.startswith("# omega=")] == omega_lines


@pytest.mark.parametrize("command,spec,name", [
    ("sample", "one-plus-exponential:rate=nan", "rate"),
    ("density", "one-plus-exponential:rate=nan", "rate"),
    ("sample", "one-plus-exponential:rate=1,scale=inf", "scale"),
    ("density", "one-plus-exponential:rate=1,scale=nan", "scale"),
    ("sample", "uniform:low=0,high=inf", "high"),
    ("density", "uniform:low=0,high=inf", "high"),
])
def test_non_finite_family_parameter_is_rejected_by_name(tmp_path, capsys, command, spec, name):
    extra = ["--n", "50", "--seed", "1"] if command == "sample" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--measure", spec, *extra, "--out", str(tmp_path)])
    assert rc == 2
    assert f"error: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["3.5", "1.0", "-5"])
def test_sample_rejects_bad_group_count(tmp_path, capsys, count):
    spec = f"groups:{count}@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log"
    rc = main(["sample", "--measure", spec, "--n", "100", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    expected = ("group count must be 'rest', 'sqrt', an integer >= 0 or a fraction in (0, 1)"
                f" (got {count})")
    assert expected in capsys.readouterr().err


def test_sample_normalizes_an_atomic_law(tmp_path):
    # the atoms have mean 2.125; unscaled, omega 10 would realize 21.25
    rc = main(["sample", "--measure", "atoms:0.5=0.75,7=0.25", "--n", "2000", "--omega", "10",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    meta_lines = (tmp_path / "sample_edges.txt").read_text().splitlines()
    omega = float(next(l for l in meta_lines if l.startswith("# omega_realized=")).partition("=")[2])
    assert 9 <= omega <= 10


def test_sample_poissonized_runs(tmp_path):
    rc = main(["sample", "--measure", "delta:1", "--n", "50", "--seed", "3",
               "--poissonized", "--out", str(tmp_path)])
    assert rc == 0


def test_sample_files_match_a_per_row_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_INT_BLOCK_ROWS", _BLOCK_ROWS)
    made = {}

    def recording(name):
        build = getattr(cli, name)

        def wrapped(*args, **kwargs):
            made[name] = build(*args, **kwargs)
            return made[name]
        return wrapped

    for name in ("build_degree_sequence", "sample_poissonized"):
        monkeypatch.setattr(cli, name, recording(name))
    rc = main(["sample", "--measure", "one-plus-exponential:rate=1", "--n", "1000",
               "--omega", "20", "--seed", "5", "--poissonized", "--out", str(tmp_path)])
    assert rc == 0
    edges_path, degrees_path = tmp_path / "sample_edges.txt", tmp_path / "sample_degrees.txt"
    graph, seq = Multigraph.load_edges(edges_path), DegreeSequence.load(degrees_path)
    for name in ("edges_i", "edges_j", "mult"):
        assert np.array_equal(getattr(graph, name), getattr(made["sample_poissonized"], name))
    assert seq.degrees == made["build_degree_sequence"].degrees
    rows = list(zip(graph.edges_i, graph.edges_j, graph.mult))
    loops = sum(i == j for i, j, _ in rows)
    assert len(rows) - loops > 2 * _BLOCK_ROWS and loops > 0
    text = edges_path.read_text()
    header = "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))
    # rows in stored (i, j) order, loops among them
    assert text == header + "".join(f"{i} {j} {m}\n" for i, j, m in rows)
    assert degrees_path.read_text() == "".join(f"{d}\n" for d in seq.degrees)


# -- esd ----------------------------------------------------------------------


def test_esd_writes_spectrum_and_histogram(tmp_path):
    rc = main(["esd", "--measure", "one-plus-exponential:rate=1", "--n", "80",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    meta, rows = read_rows(tmp_path / "spectrum.csv", "eigenvalue")
    assert len(rows) == 80
    eigs = [float(r[0]) for r in rows]
    assert eigs == sorted(eigs, reverse=True)
    assert meta["command"] == "esd"
    _, hist_rows = read_rows(tmp_path / "histogram.csv", "bin_left,bin_right,density")
    assert hist_rows


# -- density --------------------------------------------------------------------


def test_density_unit_mass_and_metadata(tmp_path):
    rc = main(["density", "--measure", "delta:1", "--grid", "2.5:201",
               "--out", str(tmp_path)])
    assert rc == 0
    meta, rows = read_rows(tmp_path / "density.csv", "x,rho")
    assert len(rows) == 201
    assert 0.99 <= float(meta["mass"]) <= 1.01
    # defaulted settings are echoed too
    assert (meta["eta"], meta["tol"], meta["quantize"]) == ("1e-06", "1e-10", "2048")
    xs = np.array([float(r[0]) for r in rows])
    rho = np.array([float(r[1]) for r in rows])
    assert np.array_equal(xs, -xs[::-1])
    assert np.array_equal(rho, rho[::-1])


def test_density_quantized_family(tmp_path):
    rc = main(["density", "--measure", "one-plus-exponential:rate=1",
               "--grid", "3.0:101", "--quantize", "256", "--out", str(tmp_path)])
    assert rc == 0
    meta, _ = read_rows(tmp_path / "density.csv", "x,rho")
    assert meta["nu_atoms"] == "256"
    assert 0.99 <= float(meta["mass"]) <= 1.01


def test_density_normalizes_an_atomic_law(tmp_path):
    # the README's atoms example has mean 2.125
    rc = main(["density", "--measure", "atoms:0.5=0.75,7=0.25", "--grid", "6:401",
               "--out", str(tmp_path)])
    assert rc == 0
    meta, _ = read_rows(tmp_path / "density.csv", "x,rho")
    assert 0.99 <= float(meta["mass"]) <= 1.01


def test_density_rejects_groups_spec(tmp_path):
    rc = main(["density", "--measure",
               "groups:4@uniform(low=0,high=2)@sqrt;rest@uniform(low=0,high=2)@log",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command", ["density", "compare"])
@pytest.mark.parametrize("eta", ["0", "-1e-6", "2"])
def test_density_rejects_bad_eta(tmp_path, command, eta):
    extra = ["--n", "50", "--seed", "1"] if command == "compare" else []
    rc = main([command, "--measure", "delta:1", f"--eta={eta}", "--out", str(tmp_path), *extra])
    assert rc == 2


@pytest.mark.parametrize("tol", ["nan", "0"])
def test_density_rejects_bad_tol(tmp_path, tol):
    rc = main(["density", "--measure", "two-atom:alpha=3,beta=0.5", f"--tol={tol}",
               "--grid", "3:21", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["density", "--measure", "delta:1", "--grid", "3:2:1"],
     "grid '3:2:1': expected X_MAX[:POINTS]"),
    (["density", "--measure", "delta:1", "--grid", "wide"], "grid 'wide': expected X_MAX[:POINTS]"),
    (["phase-diagram", "--alpha-range", "1:2"], "alpha-range '1:2': expected LO:HI:COUNT"),
    (["phase-diagram", "--beta-range", "0.1:0.9:x"],
     "beta-range '0.1:0.9:x': expected LO:HI:COUNT"),
    (["phase-diagram", "--alpha-range", "1:2:0"], "alpha-range '1:2:0': COUNT must be at least 1"),
])
def test_bad_grid_or_range_exits_2_naming_the_value(tmp_path, capsys, argv, message):
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x_max", ["nan", "inf"])
def test_density_rejects_non_finite_grid(tmp_path, x_max):
    # _parse_grid's `x_max <= 0` lets NaN and inf through; symmetric_grid's
    # check in the library is the one that rejects them
    rc = main(["density", "--measure", "delta:1", "--grid", f"{x_max}:11",
               "--out", str(tmp_path)])
    assert rc == 2


# -- support -----------------------------------------------------------------------


def test_support_two_atom_files(tmp_path):
    rc = main(["support", "--measure", "two-atom:alpha=7,beta=0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    _, sq = read_rows(tmp_path / "support_square_law.csv", "left,right")
    assert len(sq) == 2
    assert float(sq[1][0]) == pytest.approx(0.81885532072214, abs=1e-8)
    _, sym = read_rows(tmp_path / "support_symmetric.csv", "left,right")
    assert len(sym) == 3
    _, trace = read_rows(tmp_path / "xi_trace.csv", "gap,v,xi,xi_prime")
    assert {r[0] for r in trace} == {"0", "1", "2"}
    assert len(trace) == 3 * 400


def test_support_normalizes_an_atomic_law(tmp_path, capsys):
    # atoms 1 and 2 rescale to 2/3 and 4/3, whose support is one interval
    rc = main(["support", "--measure", "atoms:1=0.5,2=0.5", "--out", str(tmp_path)])
    assert rc == 0
    assert "support (1 component): [-2.16923, 2.16923]" in capsys.readouterr().out
    _, sym = read_rows(tmp_path / "support_symmetric.csv", "left,right")
    assert len(sym) == 1


def test_support_min_gap_flag(tmp_path):
    rc = main(["support", "--measure", "two-atom:alpha=7,beta=0.5",
               "--min-gap", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    _, sq = read_rows(tmp_path / "support_square_law.csv", "left,right")
    assert len(sq) == 1


@pytest.mark.parametrize("min_gap", ["nan", "-1e-3"])
def test_support_rejects_bad_min_gap(tmp_path, min_gap):
    rc = main(["support", "--measure", "two-atom:alpha=7,beta=0.5", f"--min-gap={min_gap}",
               "--out", str(tmp_path)])
    assert rc == 2


def test_support_quantized_family_trace_and_mirror(tmp_path):
    rc = main(["support", "--measure", "one-plus-exponential:rate=1", "--quantize", "16",
               "--out", str(tmp_path)])
    assert rc == 0
    nu = quantize_measure(OnePlusExponential(rate=1.0).normalized(), 16)
    meta, trace = read_rows(tmp_path / "xi_trace.csv", "gap,v,xi,xi_prime")
    assert meta["nu_atoms"] == "16"
    assert len(trace) == 17 * 400
    assert {r[0] for r in trace} == {str(k) for k in range(17)}
    for _, v, x, slope in trace:
        assert (float(x), float(slope)) == xi(float(v), nu)
    _, sq = read_rows(tmp_path / "support_square_law.csv", "left,right")
    _, sym = read_rows(tmp_path / "support_symmetric.csv", "left,right")
    sym = [(float(a), float(b)) for a, b in sym]
    assert sym == [(-b, -a) for a, b in reversed(sym)]
    assert [(max(a, 0.0), b) for a, b in sym if b > 0] == [
        (math.sqrt(float(a)), math.sqrt(float(b))) for a, b in sq
    ]


def test_support_trace_keeps_a_row_budget(tmp_path):
    rc = main(["support", "--measure", "one-plus-exponential:rate=1", "--quantize", "256",
               "--out", str(tmp_path)])
    assert rc == 0
    nu = quantize_measure(OnePlusExponential(rate=1.0).normalized(), 256)
    _, trace = read_rows(tmp_path / "xi_trace.csv", "gap,v,xi,xi_prime")
    assert len(trace) <= 20_000
    assert {r[0] for r in trace} == {str(k) for k in range(257)}
    for _, v, x, slope in trace:
        assert (float(x), float(slope)) == xi(float(v), nu)


def test_support_trace_keeps_one_point_per_gap_past_the_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_XI_TRACE_ROWS", 100)
    rc = main(["support", "--measure", "one-plus-exponential:rate=1", "--quantize", "256",
               "--out", str(tmp_path)])
    assert rc == 0
    _, trace = read_rows(tmp_path / "xi_trace.csv", "gap,v,xi,xi_prime")
    assert [r[0] for r in trace] == [str(k) for k in range(257)]


# -- phase diagram --------------------------------------------------------------------


def test_phase_diagram_default_grid_is_fast(tmp_path):
    t0 = time.monotonic()
    rc = main(["phase-diagram", "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 5.0
    meta, rows = read_rows(tmp_path / "phase_diagram.csv", "alpha,beta,has_hole,discriminant")
    assert len(rows) == 200 * 200


def test_phase_diagram_row_flips_once_near_threshold(tmp_path):
    rc = main(["phase-diagram", "--alpha-range", "2:12:101",
               "--beta-range", "0.5:0.5:1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "phase_diagram.csv", "alpha,beta,has_hole,discriminant")
    flags = [int(r[2]) for r in rows]
    alphas = [float(r[0]) for r in rows]
    flips = [k for k in range(1, len(flags)) if flags[k] != flags[k - 1]]
    assert len(flips) == 1
    assert alphas[flips[0] - 1] < 6.770983152794611 < alphas[flips[0]]


# -- compare ---------------------------------------------------------------------------


def test_compare_small_regular_graph(tmp_path):
    rc = main(["compare", "--measure", "delta:1", "--n", "400", "--seed", "2",
               "--single-adjacency", "--out", str(tmp_path)])
    assert rc == 0
    meta, rows = read_rows(tmp_path / "compare_spectrum.csv", "eigenvalue")
    assert len(rows) == 400
    assert float(meta["kolmogorov"]) < 0.2
    meta2, _ = read_rows(tmp_path / "compare_density.csv", "x,rho")
    assert meta2["kolmogorov"] == meta["kolmogorov"]


def test_compare_default_grid_ends_just_past_the_support(tmp_path, monkeypatch):
    # the Perron outlier (near sqrt(omega)·E[D²]) must not stretch the grid:
    # the curve's CDF is already flat past the support
    def far_outlier(a):
        eigs = eigenvalues_symmetric(a)
        eigs[0] = 1e3
        return eigs

    monkeypatch.setattr(cli, "eigenvalues_symmetric", far_outlier)
    rc = main(["compare", "--measure", "two-atom:alpha=3,beta=0.5", "--n", "200", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "compare_density.csv", "x,rho")
    edge = math.sqrt(support_mp(TwoAtomLaw(alpha=3.0, beta=0.5).measure()).intervals[-1][1])
    assert len(rows) == 800
    assert math.isclose(float(rows[-1][0]), 1.05 * edge + 0.25, rel_tol=1e-12)


def test_compare_rejects_a_weight_law_with_mass_at_zero(tmp_path, capsys):
    # half the eigenvalues sit at 0 while the curve carries mass 1/2: KS read 0.25
    rc = main(["compare", "--measure", "atoms:0=0.5,2=0.5", "--n", "200", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "compare needs nu({0}) = 0, got 0.5" in capsys.readouterr().err
    assert not (tmp_path / "compare_spectrum.csv").exists()


@pytest.mark.parametrize("command", ["density", "compare"])
def test_solver_failure_exits_with_code_one(tmp_path, capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise ConvergenceError("1 of 1 points failed (worst residual 1.000e+00 at x=0.5, eta=1e-06)")

    monkeypatch.setattr(cli, "density_curve", fail)
    extra = ["--n", "50", "--seed", "1", "--grid", "3:21"] if command == "compare" else []
    rc = main([command, "--measure", "delta:1", "--out", str(tmp_path), *extra])
    assert rc == 1
    assert capsys.readouterr().err.startswith("solver failure: 1 of 1 points failed")


# -- couple ----------------------------------------------------------------------------


def test_couple_outputs_and_metric_relations(tmp_path):
    rc = main(["couple", "--measure", "two-atom:alpha=4,beta=0.5", "--n", "300",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "couple_summary.csv", "metric,value")
    metrics = {r[0]: float(r[1]) for r in rows}
    assert set(metrics) == {"kolmogorov", "wasserstein1", "hoffman_wielandt_bound"}
    assert 0 <= metrics["wasserstein1"] <= metrics["hoffman_wielandt_bound"]
    assert 0 <= metrics["kolmogorov"] <= 1
    _, conf = read_rows(tmp_path / "couple_configuration.csv", "eigenvalue")
    _, pois = read_rows(tmp_path / "couple_poissonized.csv", "eigenvalue")
    assert len(conf) == len(pois) == 300


@pytest.mark.parametrize("single", [False, True])
def test_couple_matches_per_graph_references(tmp_path, monkeypatch, single):
    graphs = []

    def recording(sampler):
        def wrapped(seq, seed):
            graphs.append(sampler(seq, seed=seed))
            return graphs[-1]
        return wrapped

    for name in ("sample_configuration", "sample_poissonized"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    rc = main(["couple", "--measure", "two-atom:alpha=4,beta=0.5", "--n", "80", "--omega", "12",
               "--seed", "3", "--out", str(tmp_path), *(["--single-adjacency"] if single else [])])
    assert rc == 0
    assert len(graphs) == 2
    for g in graphs:  # the packing must place loops and multi-edges right
        assert (g.edges_i == g.edges_j).any() and (g.mult > 1).any()
    meta, rows = read_rows(tmp_path / "couple_summary.csv", "metric,value")
    omega = float(meta["omega_realized"])
    refs = [scaled_adjacency(g, omega, single=single) for g in graphs]
    for name, ref in zip(["couple_configuration.csv", "couple_poissonized.csv"], refs):
        _, eigs = read_rows(tmp_path / name, "eigenvalue")
        assert np.array_equal([float(r[0]) for r in eigs], eigenvalues_symmetric(ref))
    hw = float(dict(rows)["hoffman_wielandt_bound"])
    assert math.isclose(hw, trace_distance_bound(*refs), rel_tol=1e-12)


# -- config files ------------------------------------------------------------------------


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo config\nmeasure=delta:1\nn=60\nseed=9\nomega=6\n")
    out1 = tmp_path / "o1"
    rc = main(["sample", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    meta_lines = (out1 / "sample_edges.txt").read_text().splitlines()
    assert any(l == "# edge_total=180" for l in meta_lines if l.startswith("#"))

    out2 = tmp_path / "o2"
    rc = main(["sample", "--config", str(cfg), "--n", "40", "--out", str(out2)])
    assert rc == 0
    body = (out2 / "sample_edges.txt").read_text()
    assert "# edge_total=120" in body  # flag --n beat the config's 60


def test_config_line_without_equals_exits_2_quoting_it(tmp_path, capsys):
    # read as a key with an empty value, a bare switch turned itself off
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure=delta:1\nn=40\nseed=3\n# on\npoissonized\n")
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {cfg} line 5: expected KEY=VALUE, got 'poissonized'\n"
    assert not (tmp_path / "o").exists()


def test_missing_required_parameter_exits(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", "delta:1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "the following arguments are required: --n, --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("sample", ["--single-adjacency"]),
    ("couple", ["--poissonized"]),
    ("support", ["--grid", "3:11"]),
    ("support", ["--eta", "1e-4"]),
    ("support", ["--tol", "1e-8"]),
    ("phase-diagram", ["--measure", "delta:1"]),
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag):
    extra = [] if command == "phase-diagram" else ["--measure", "delta:1"]
    extra += ["--n", "20", "--seed", "1"] if command in ("sample", "couple") else []
    with pytest.raises(SystemExit) as exc:
        main([command, *extra, *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("value,poissonized", [("false", False), ("true", True)])
def test_config_switch_picks_the_sampler(tmp_path, monkeypatch, value, poissonized):
    used = []

    def recording(name):
        sampler = getattr(cli, name)

        def wrapped(seq, seed):
            used.append(name)
            return sampler(seq, seed=seed)
        return wrapped

    for name in ("sample_configuration", "sample_poissonized"):
        monkeypatch.setattr(cli, name, recording(name))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"measure=delta:1\nn=40\nseed=3\nomega=4\npoissonized={value}\n")
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert used == ["sample_poissonized" if poissonized else "sample_configuration"]
    meta_lines = (tmp_path / "o" / "sample_edges.txt").read_text().splitlines()
    assert f"# poissonized={poissonized}" in meta_lines


@pytest.mark.parametrize("value", ["false", "true"])
def test_couple_ignores_a_config_poissonized_switch(tmp_path, value):
    flags = ["--measure", "two-atom:alpha=4,beta=0.5", "--n", "60", "--seed", "5"]
    assert main(["couple", *flags, "--out", str(tmp_path / "plain")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"poissonized={value}\n")
    assert main(["couple", *flags, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    for name, header in [("couple_configuration.csv", "eigenvalue"),
                         ("couple_poissonized.csv", "eigenvalue"),
                         ("couple_summary.csv", "metric,value")]:
        _, plain = read_rows(tmp_path / "plain" / name, header)
        _, from_cfg = read_rows(tmp_path / "cfg" / name, header)
        assert from_cfg == plain


def test_config_value_takes_the_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure=delta:1\neta=1e-4\ngrid=2.5:21\n")
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _ = read_rows(tmp_path / "density.csv", "x,rho")
    assert meta["eta"] == "0.0001"
    assert meta["eta_final"] == "0.0001"


def test_bad_measure_returns_error_code(tmp_path):
    rc = main(["density", "--measure", "atoms:not-a-number=1", "--out", str(tmp_path)])
    assert rc == 2
