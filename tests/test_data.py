import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbounds import cli
from factorbounds.data import (
    ObservedDataset,
    _load_canonical,
    _load_rows,
    expected_header,
    load_csv,
    save_csv,
)
from factorbounds.design import enumerate_assignments
from factorbounds.errors import InvalidInputError
from factorbounds.simulate import census_dataset

from conftest import arm_outcome_means, arm_uptake_means


def test_expected_header():
    assert expected_header(2) == ["z1", "z2", "d1", "d2", "y"]
    assert expected_header(1) == ["z1", "d1", "y"]


def test_roundtrip_bit_exact(p4_census, tmp_path):
    path = tmp_path / "census.csv"
    save_csv(p4_census, path)
    back = load_csv(path)
    assert np.array_equal(back.arm, p4_census.arm)
    assert np.array_equal(back.uptake, p4_census.uptake)
    assert np.array_equal(back.outcome, p4_census.outcome)


def test_roundtrip_awkward_floats(tmp_path):
    # repr-based writing must survive floats with no short decimal form
    from factorbounds.design import enumerate_assignments

    design = enumerate_assignments(1)
    y = np.array([0.1 + 0.2, 1 / 3, np.nextafter(0.5, 1), 0.0])
    data = ObservedDataset(
        design=design,
        arm=np.array([0, 0, 1, 1], dtype=np.intp),
        uptake=np.array([[-1], [-1], [1], [-1]], dtype=np.int8),
        outcome=y,
    )
    path = tmp_path / "awkward.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert np.array_equal(back.outcome, y)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z1,d1,d2,y\n-1,-1,-1,0.5\n")
    with pytest.raises(InvalidInputError, match="header"):
        load_csv(path)


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z1,d1,y\n-1,-1,0.5\n1,2,0.5\n")
    with pytest.raises(InvalidInputError, match="line 3") as err:
        load_csv(path)
    assert "d1" in str(err.value)


def test_load_rejects_outcome_outside_unit_interval(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z1,d1,y\n-1,-1,1.5\n")
    with pytest.raises(InvalidInputError, match="y"):
        load_csv(path)


def test_binary_coding(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_text("z1,d1,y\n0,0,0.25\n1,1,0.75\n")
    data = load_csv(path, binary_coding=True)
    assert data.design.levels[data.arm].tolist() == [[-1], [1]]
    assert data.uptake.tolist() == [[-1], [1]]
    # without the flag, 0 is not a level
    with pytest.raises(InvalidInputError):
        load_csv(path)


def test_rescale_maps_into_unit_interval(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("z1,d1,y\n-1,-1,-3.0\n1,1,7.0\n1,1,2.0\n")
    data = load_csv(path, rescale=(-3.0, 7.0))
    assert data.outcome.tolist() == [0.0, 1.0, 0.5]
    assert data.rescale == (-3.0, 7.0)
    with pytest.raises(InvalidInputError):
        load_csv(path, rescale=(7.0, -3.0))
    with pytest.raises(InvalidInputError):
        load_csv(path)  # raw values leave [0,1]


def test_census_dataset_means_match_population(p4):
    data = census_dataset(p4)
    assert data.n == p4.N * p4.design.J
    for j in range(p4.design.J):
        rows = data.arm == j
        assert data.outcome[rows].mean() == arm_outcome_means(p4)[j]
        for k in (1, 2):
            assert data.uptake[rows, k - 1].mean() == arm_uptake_means(p4, k)[j]


@pytest.mark.parametrize(
    "arm, uptake, message",
    [
        ([0, 1], [[255], [1]], "uptake entries must be -1 or +1"),  # int8 would wrap it to -1
        ([0, 1], [[300], [1]], "uptake entries must be -1 or +1"),  # int8 would overflow
        ([0, 1], [[1.5], [1]], "uptake entries must be -1 or +1"),  # int8 would truncate it to 1
        ([0, 1], [[True], [True]], "uptake entries must be -1 or +1"),  # int8 would take True as 1
        ([0.7, 1], [[1], [1]], "arm indices must be integers"),  # intp would truncate it to 0
    ],
    ids=["uptake_255", "uptake_300", "uptake_fraction", "uptake_boolean", "arm_fraction"],
)
def test_dataset_checks_values_before_casting(arm, uptake, message):
    from factorbounds.design import enumerate_assignments

    with pytest.raises(InvalidInputError, match=re.escape(message)):
        ObservedDataset(design=enumerate_assignments(1), arm=arm, uptake=uptake, outcome=[0.0, 1.0])


@pytest.mark.parametrize(
    "outcome, dtype",
    [(["0.5", True], "<U5"), ([True, False], "bool"), ([None, 0.5], "object")],
    ids=["string", "boolean", "object"],
)
def test_dataset_refuses_non_numeric_outcomes(outcome, dtype):
    from factorbounds.design import enumerate_assignments

    design = enumerate_assignments(1)
    message = f"outcome entries must be numbers, got dtype {dtype}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        ObservedDataset(design=design, arm=[0, 1], uptake=[[1], [1]], outcome=outcome)
    data = ObservedDataset(design=design, arm=[0, 1], uptake=[[1], [1]], outcome=[0, 1])
    assert data.outcome.dtype == np.float64 and data.outcome.tolist() == [0.0, 1.0]


def test_dataset_validation():
    from factorbounds.design import enumerate_assignments

    design = enumerate_assignments(1)
    with pytest.raises(InvalidInputError):
        ObservedDataset(
            design=design,
            arm=np.array([0, 5], dtype=np.intp),
            uptake=np.array([[-1], [1]], dtype=np.int8),
            outcome=np.array([0.0, 1.0]),
        )
    with pytest.raises(InvalidInputError):
        ObservedDataset(
            design=design,
            arm=np.array([0, 1], dtype=np.intp),
            uptake=np.array([[-1], [0]], dtype=np.int8),
            outcome=np.array([0.0, 1.0]),
        )


# --- the array fast path against the csv-module row parser ---------------------

MUTATIONS = (
    "none", "lf", "cr", "token", "quote_y", "quote_header", "blank", "y_bad", "missing", "extra",
)


@st.composite
def csv_cases(draw):
    """A dataset, its save_csv text with one mutation, and the load options."""
    K = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rows = st.lists(st.integers(0, (1 << K) - 1), min_size=n, max_size=n)
    arm = np.array(draw(rows), dtype=np.intp)
    uptake = enumerate_assignments(K).levels[draw(rows)]
    y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    data = ObservedDataset(design=enumerate_assignments(K), arm=arm, uptake=uptake, outcome=y)
    binary = draw(st.booleans())
    rescale = draw(st.sampled_from([None, (0.0, 1.0), (-3.0, 7.0), (0.25, 0.75)]))
    mutation = draw(st.sampled_from(MUTATIONS))
    return data, binary, rescale, mutation, draw(st.data())


def _mutated_text(text, K, binary, mutation, draw):
    header, *lines = text.split("\r\n")[:-1]
    rows = [line.split(",") for line in lines]
    if binary:
        for row in rows:
            row[: 2 * K] = ["0" if tok == "-1" else tok for tok in row[: 2 * K]]
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == "token":
        token = draw(st.sampled_from(["+1", " 1", "0", "2", "x"]))
        rows[i][draw(st.integers(0, 2 * K - 1))] = token
    elif mutation == "quote_y":
        rows[i][-1] = f'"{rows[i][-1]}"'
    elif mutation == "quote_header":
        names = header.split(",")
        c = draw(st.integers(0, len(names) - 1))
        names[c] = f'"{names[c]}"'
        header = ",".join(names)
    elif mutation == "y_bad":
        rows[i][-1] = draw(st.sampled_from(["nan", "1.5"]))
    elif mutation == "missing":
        del rows[i][draw(st.integers(0, 2 * K))]
    elif mutation == "extra":
        rows[i].insert(draw(st.integers(0, 2 * K + 1)), "1")
    lines = [header] + [",".join(row) for row in rows]
    if mutation == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = {"lf": "\n", "cr": "\r"}.get(mutation, "\r\n")
    return end.join(lines) + end


def _result(load, path, binary, rescale):
    """Every array bit for bit and the rescale pair, or the error text."""
    try:
        data = load(path, binary, rescale)
    except InvalidInputError as e:
        return str(e)
    return (
        data.arm.tolist(),
        data.uptake.tolist(),
        data.outcome.view(np.int64).tolist(),
        data.rescale,
    )


def _analyze(path, binary, rescale):
    """The exit code and stderr of cli analyze on path with the same coding and rescale options."""
    argv = ["analyze", str(path)] + ["--binary-coding"] * binary
    if rescale is not None:
        argv.append(f"--rescale={rescale[0]!r},{rescale[1]!r}")  # = keeps "-3.0,7.0" from reading as an option
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@given(case=csv_cases())
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_row_parser(case, tmp_path_factory):
    data, binary, rescale, mutation, draws = case
    path = tmp_path_factory.mktemp("fast") / "data.csv"
    save_csv(data, path)
    text = _mutated_text(path.read_bytes().decode(), data.design.K, binary, mutation, draws.draw)
    path.write_bytes(text.encode())
    want = _result(_load_rows, path, binary, rescale)
    got = _result(lambda p, b, r: load_csv(p, binary_coding=b, rescale=r), path, binary, rescale)
    assert got == want
    if mutation in ("none", "lf", "cr") and not isinstance(want, str):
        assert _load_canonical(path, binary, rescale) is not None
    if draws.draw(st.booleans(), label="through analyze"):  # about half the cases also run the command
        rc, err = _analyze(path, binary, rescale)
        assert rc in (0, 2, 3) and "internal error" not in err
        assert (rc == 2) == isinstance(want, str)  # exit 2 exactly where the file is refused
        if isinstance(want, str):
            assert err == f"error: {want}\n"


def test_error_line_and_column_in_large_file(tmp_path):
    rng = np.random.default_rng(5)
    n = 45_000
    data = ObservedDataset(
        design=enumerate_assignments(2),
        arm=rng.integers(0, 4, n),
        uptake=rng.choice(np.array([-1, 1], dtype=np.int8), (n, 2)),
        outcome=rng.random(n),
    )
    path = tmp_path / "large.csv"
    save_csv(data, path)
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[39_999].split(b",")  # line 40 000; the header is line 1
    fields[3] = b"2"
    lines[39_999] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(InvalidInputError) as err:
        load_csv(path)
    assert str(err.value) == "line 40000, column d2: 2 is not -1/+1"


def test_a_dataset_compares_and_hashes_by_identity(p4):
    data = census_dataset(p4)
    assert data == data
    assert data != census_dataset(p4)
    assert {data: 1}[data] == 1
