"""CSV ingestion tests: parsing, plans, encoding, metadata round trips."""

import numpy as np
import pytest

from statnn.exceptions import DataError
from statnn.model import ColumnMeta
from statnn.preprocess import dataset_from_meta, infer_plan, ingest, read_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """age,bmi,smoker,charges
19,27.9,yes,16884.92
33,22.7,no,1725.55
28,33.0,no,4449.46
45,25.8,no,7726.85
52,30.8,yes,40904.17
23,34.4,no,1826.84
"""


def test_read_csv_basic(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    assert names == ("age", "bmi", "smoker", "charges")
    assert len(cols) == 4
    assert cols[0][0] == "19"
    assert cols[2][:2] == ["yes", "no"]


def test_read_csv_drops_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + BASIC, encoding="utf-8")
    names, cols = read_csv(str(path))
    assert names == ("age", "bmi", "smoker", "charges")
    assert cols == read_csv(_write(tmp_path, BASIC))[1]


def test_read_csv_strips_whitespace(tmp_path):
    text = "a, b\n 1 , x\n2,  y \n"
    names, cols = read_csv(_write(tmp_path, text))
    assert names == ("a", "b")
    assert cols[0] == ["1", "2"]
    assert cols[1] == ["x", "y"]


def test_read_csv_errors(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_csv(_write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(DataError, match="line 3: row has 1 fields"):
        read_csv(_write(tmp_path, "a,b\n1,2\n3\n"))
    with pytest.raises(DataError):
        read_csv(_write(tmp_path, ""))
    with pytest.raises(DataError):
        read_csv(_write(tmp_path, "a,b\n"))  # header only, no data rows


def test_read_csv_rows_past_the_first_block(tmp_path):
    """Rows are turned into columns a block at a time; order and the
    numbering of a ragged row carry across blocks."""
    rows = [f"{i},{-i}" for i in range(2500)]
    names, cols = read_csv(_write(tmp_path, "a,b\n" + "\n".join(rows)))
    assert cols == [[str(i) for i in range(2500)],
                    [str(-i) for i in range(2500)]]
    rows[2400] = "7"
    with pytest.raises(DataError,
                       match="r.csv: line 2402: row has 1 fields, expected 2"):
        read_csv(_write(tmp_path, "a,b\n" + "\n".join(rows), name="r.csv"))


def test_read_csv_names_a_ragged_row_by_its_line(tmp_path):
    """A ragged row is named by the physical line it starts on, header
    line 1, as a csv-module or UTF-8 error is: every line of a quoted
    field spanning lines before it counts, with or without a byte-order
    mark, and so does a blank line."""
    text = 'a,b\n1,2\n"x\n\ny",3\n4,5\n6\n7,8\n'
    for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
        with pytest.raises(DataError) as exc:
            read_csv(_write(tmp_path, prefix + text, name=name))
        assert str(exc.value).endswith(
            f"{name}: line 7: row has 1 fields, expected 2")
    with pytest.raises(DataError, match=r"blank.csv: line 3: row has 0 "):
        read_csv(_write(tmp_path, "a,b\n1,2\n\n3,4\n", name="blank.csv"))


def test_missing_values_error_names_location(tmp_path):
    for token in ("", "NA", "nan", "N/A", "null"):
        text = f"a,b\n1,2\n{token},4\n"
        with pytest.raises(DataError) as exc:
            ingest(_write(tmp_path, text, name=f"m{len(token)}.csv"),
                   response="b")
        msg = str(exc.value)
        assert "'a'" in msg and "row 2" in msg


def test_infer_plan_defaults(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    plan = infer_plan(names, cols, response="charges")
    age, bmi, smoker = plan.columns
    ages = np.array([19, 33, 28, 45, 52, 23], dtype=float)
    assert age == ColumnMeta("age", "continuous", float(ages.mean()),
                             float(ages.std(ddof=1)))
    assert bmi.kind == "continuous" and bmi.sd != 1.0
    assert smoker == ColumnMeta("smoker.no", "dummy", raw="smoker",
                                level="no", levels=("yes", "no"))
    assert plan.response.kind == "continuous"
    assert plan.response.raw == "charges" and plan.response.sd != 1.0


def test_factor_reference_is_first_observed(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    plan = infer_plan(names, cols, response="charges")
    smoker = [(m.name, m.level) for m in plan.columns if m.raw == "smoker"]
    assert smoker == [("smoker.no", "no")]  # "yes" seen first -> reference


def test_schema_pins_reference_level(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    schema = {"columns": {"smoker": {"action": "dummy_encode",
                                     "reference": "no"}}}
    plan = infer_plan(names, cols, response="charges", schema=schema)
    smoker = [(m.name, m.level) for m in plan.columns if m.raw == "smoker"]
    assert smoker == [("smoker.yes", "yes")]


def test_schema_validation(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    with pytest.raises(DataError, match="unknown schema keys"):
        infer_plan(names, cols, "charges", schema={"cols": {}})
    with pytest.raises(DataError, match="not present"):
        infer_plan(names, cols, "charges",
                   schema={"columns": {"height": "standardize"}})
    with pytest.raises(DataError, match="response_action"):
        infer_plan(names, cols, "charges",
                   schema={"columns": {"charges": "standardize"}})
    with pytest.raises(DataError, match="unknown response"):
        infer_plan(names, cols, "weight")
    with pytest.raises(DataError, match="unknown schema action 'winsorize'"):
        infer_plan(names, cols, "charges",
                   schema={"columns": {"age": "winsorize"}})
    for action in ("standardize", "passthrough"):
        with pytest.raises(DataError, match="non-numeric column 'smoker'"):
            infer_plan(names, cols, "charges",
                       schema={"columns": {"smoker": action}})


def test_standardization_uses_sample_sd(tmp_path):
    names, cols = read_csv(_write(tmp_path, BASIC))
    data, plan = ingest(_write(tmp_path, BASIC), response="charges")
    ages = np.array([19, 33, 28, 45, 52, 23], dtype=float)
    want = (ages - ages.mean()) / ages.std(ddof=1)
    np.testing.assert_allclose(data.x[:, 0], want, rtol=1e-12)
    meta = data.column_meta[0]
    assert meta.mean == pytest.approx(ages.mean(), rel=1e-12)
    assert meta.sd == pytest.approx(float(ages.std(ddof=1)), rel=1e-12)
    charges = np.array([16884.92, 1725.55, 4449.46, 7726.85, 40904.17,
                        1826.84])
    want_y = (charges - charges.mean()) / charges.std(ddof=1)
    np.testing.assert_allclose(data.y, want_y, rtol=1e-12)


def test_round_trip_restores_original_units(tmp_path):
    data, _ = ingest(_write(tmp_path, BASIC), response="charges")
    ages = np.array([19, 33, 28, 45, 52, 23], dtype=float)
    meta = data.column_meta[0]
    np.testing.assert_allclose(data.x[:, 0] * meta.sd + meta.mean, ages,
                               atol=1e-10)
    ymeta = data.response_meta
    charges = np.array([16884.92, 1725.55, 4449.46, 7726.85, 40904.17,
                        1826.84])
    np.testing.assert_allclose(data.y * ymeta.sd + ymeta.mean, charges,
                               atol=1e-10)


def test_dummy_encoding_values(tmp_path):
    data, _ = ingest(_write(tmp_path, BASIC), response="charges")
    np.testing.assert_array_equal(data.x[:, 2],
                                  [0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    meta = data.column_meta[2]
    assert meta.name == "smoker.no"
    assert meta.kind == "dummy"
    assert meta.mean == 0.0 and meta.sd == 1.0


def test_multi_level_factor(tmp_path):
    text = ("region,y\n"
            "sw,1\nnw,2\nse,3\nsw,4\nne,5\nnw,6\n")
    data, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.columns == tuple(
        ColumnMeta(f"region.{lvl}", "dummy", raw="region", level=lvl,
                   levels=("sw", "nw", "se", "ne"))
        for lvl in ("nw", "se", "ne"))
    np.testing.assert_array_equal(
        data.x, [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                 [0, 0, 0], [0, 0, 1], [1, 0, 0]])


def test_single_level_factor_rejected(tmp_path):
    text = "a,y\nfoo,1\nfoo,2\n"
    with pytest.raises(DataError, match="single"):
        ingest(_write(tmp_path, text), response="y")


def test_binary_numeric_column_passes_through(tmp_path):
    """A 0/1 numeric column is treated as an already-encoded dummy."""
    text = "flag,z,y\n0,1.5,2\n1,2.5,3\n0,0.5,1\n1,3.5,5\n"
    data, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.columns[0] == ColumnMeta("flag", "dummy")
    np.testing.assert_array_equal(data.x[:, 0], [0.0, 1.0, 0.0, 1.0])


def test_constant_numeric_column_rejected(tmp_path):
    text = "a,y\n3,1\n3,2\n3,3\n"
    with pytest.raises(DataError, match="variance|variation"):
        ingest(_write(tmp_path, text), response="y")


def test_nonfinite_numeric_cell_rejected(tmp_path):
    text = "a,y\n1,1\ninf,2\n2,3\n"
    with pytest.raises(DataError, match="finite"):
        ingest(_write(tmp_path, text), response="y")


def test_two_level_factor_response(tmp_path):
    text = "x,outcome\n1.0,good\n2.0,bad\n3.0,bad\n1.5,good\n0.5,bad\n"
    data, plan = ingest(_write(tmp_path, text), response="outcome")
    # level coded 1 ("bad", the non-reference) appears in the meta name
    assert plan.response == ColumnMeta("outcome.bad", "dummy",
                                       raw="outcome", level="bad",
                                       levels=("good", "bad"))
    assert data.response_meta == plan.response
    np.testing.assert_array_equal(data.y, [0.0, 1.0, 1.0, 0.0, 1.0])


def test_many_level_factor_response_rejected(tmp_path):
    text = "x,outcome\n1,a\n2,b\n3,c\n"
    with pytest.raises(DataError):
        ingest(_write(tmp_path, text), response="outcome")


def test_binary_numeric_response_passthrough(tmp_path):
    text = "x,y\n0.5,0\n1.5,1\n2.5,1\n0.1,0\n"
    data, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.response == ColumnMeta("y", "dummy")
    np.testing.assert_array_equal(data.y, [0.0, 1.0, 1.0, 0.0])


def test_schema_response_action_override(tmp_path):
    text = "x,y\n0.5,0\n1.5,1\n2.5,1\n0.1,0\n1.1,1\n"
    data, _ = ingest(_write(tmp_path, text), response="y",
                     schema={"response_action": "standardize"})
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    want = (y - y.mean()) / y.std(ddof=1)
    np.testing.assert_allclose(data.y, want, rtol=1e-12)


@pytest.mark.parametrize("action", ["standardize", "passthrough"])
def test_response_action_on_factor_response_refused(tmp_path, action):
    """A factor response is always its second level's indicator, so an
    explicit response action on it is refused rather than ignored."""
    text = "x,y\n0.5,a\n1.5,b\n2.5,b\n0.1,a\n"
    with pytest.raises(DataError, match=f"^response_action {action} given "
                       "for non-numeric response 'y'"):
        ingest(_write(tmp_path, text), response="y",
               schema={"response_action": action})
    _, plan = ingest(_write(tmp_path, text), response="y")
    assert plan.response == ColumnMeta("y.b", "dummy", raw="y", level="b",
                                       levels=("a", "b"))


def test_apply_plan_columns_in_plan_order(tmp_path):
    data, plan = ingest(_write(tmp_path, BASIC), response="charges")
    assert data.column_meta == plan.columns
    assert data.response_meta == plan.response
    assert data.n == 6 and data.p == 3


@pytest.mark.parametrize("text,response,schema", [
    (BASIC, "charges", None),
    ("x,outcome\n1.0,good\n2.0,bad\n3.0,bad\n1.5,good\n0.5,bad\n",
     "outcome", None),
    ("x,flag,y\n0.5,1,0\n1.5,0,1\n2.5,1,1\n0.1,0,0\n", "y", None),
    ("x,count,y\n0.5,3,1.2\n1.5,7,0.4\n2.5,2,2.2\n0.1,5,0.9\n", "y",
     {"columns": {"count": "passthrough"}}),
    (BASIC, "charges",
     {"columns": {"smoker": {"action": "dummy_encode", "reference": "no"}}}),
    ("x,grp.name,has.flag,y.out\n0.5,a.1,0,lo\n1.5,b.2,1,hi\n"
     "2.5,a.1,1,hi\n0.1,c,0,lo\n", "y.out", None),
    # Level b.x of a is named a.b.x, like level x of a column a.b would
    # be; the records name their raw columns, so nothing is ambiguous.
    ("a,a.b,y\nd,1.5,1\nb.x,2.5,2\nd,0.5,3\nb.x,3.5,5\n", "y", None),
], ids=["basic", "factor-response", "binary-response", "schema-passthrough",
        "schema-reference", "dotted-names", "raw-column-level"])
def test_dataset_from_meta_reproduces_training_encoding(tmp_path, text,
                                                        response, schema):
    """Re-reading the same file through stored metadata gives the same
    matrix as the original ingest (training statistics, not refreshed)."""
    path = _write(tmp_path, text)
    data, _ = ingest(path, response=response, schema=schema)
    rebuilt = dataset_from_meta(path, data.column_meta, data.response_meta)
    np.testing.assert_array_equal(rebuilt.x, data.x)
    np.testing.assert_array_equal(rebuilt.y, data.y)
    assert rebuilt.column_meta == data.column_meta
    assert rebuilt.response_meta == data.response_meta


def test_dataset_from_meta_uses_stored_statistics(tmp_path):
    """New data is standardized with the stored mean/sd, not its own."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    fresh = ("age,bmi,smoker,charges\n"
             "60,31.0,yes,999.99\n"
             "20,21.0,no,111.11\n")
    test = _write(tmp_path, fresh, name="test.csv")
    rebuilt = dataset_from_meta(test, data.column_meta, data.response_meta)
    age_meta = data.column_meta[0]
    np.testing.assert_allclose(
        rebuilt.x[:, 0],
        (np.array([60.0, 20.0]) - age_meta.mean) / age_meta.sd, rtol=1e-12)
    np.testing.assert_array_equal(rebuilt.x[:, 2], [0.0, 1.0])


def test_dataset_from_meta_missing_column(tmp_path):
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    test = _write(tmp_path, "age,bmi,charges\n30,25.0,100\n40,26.0,200\n",
                  name="test.csv")
    with pytest.raises(DataError, match="smoker"):
        dataset_from_meta(test, data.column_meta, data.response_meta)


def test_dataset_from_meta_missing_value_names_first_row(tmp_path):
    """A query file's missing cell is refused once per raw column, with
    the first offending row named, however many levels read it."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    test = _write(tmp_path,
                  "age,bmi,smoker,charges\n30,25.0,no,100\n40,26.0,NA,200\n"
                  "41,27.0,null,300\n",
                  name="test.csv")
    with pytest.raises(DataError) as exc:
        dataset_from_meta(test, data.column_meta, data.response_meta)
    assert str(exc.value) == (
        "missing value in column 'smoker', row 2 (first data row is row 1); "
        "no imputation is performed")


_MISSING_BMI = ("missing value in column 'bmi', row {} (first data row is "
                "row 1); no imputation is performed")


@pytest.mark.parametrize("cells,message", [
    (("25.0", "NA", "27.0"), _MISSING_BMI.format(2)),
    (("25.0", "nan", "27.0"), _MISSING_BMI.format(2)),
    (("25.0", "", "27.0"), _MISSING_BMI.format(2)),
    (("25.0", "inf", "27.0"), "non-finite value 'inf' in column 'bmi', row 2 "
                              "(first data row is row 1)"),
    # The scan for missing tokens comes first, as for every column.
    (("-inf", "26.0", "N/A"), _MISSING_BMI.format(3)),
], ids=["NA", "nan", "empty", "inf", "missing-after-inf"])
def test_dataset_from_meta_refuses_missing_and_non_finite_cells(
        tmp_path, cells, message):
    """A numeric query column is refused with the same message whether or
    not its cells are parsed before the scan for missing values."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    rows = "".join(f"{30 + i},{c},no,{100 * i}\n" for i, c in enumerate(cells))
    test = _write(tmp_path, "age,bmi,smoker,charges\n" + rows,
                  name="test.csv")
    with pytest.raises(DataError) as exc:
        dataset_from_meta(test, data.column_meta, data.response_meta)
    assert str(exc.value) == message


def test_dataset_from_meta_parses_cells_as_float_does(tmp_path):
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    cells = [" 1.5 ", "1_000", "+.5e1", "-2"]
    rows = "".join(f"{c},25.0,no,{c}\n" for c in cells)
    test = _write(tmp_path, "age,bmi,smoker,charges\n" + rows,
                  name="test.csv")
    rebuilt = dataset_from_meta(test, data.column_meta, data.response_meta)
    want = np.array([float(c) for c in cells])
    assert rebuilt.x[:, 0].tobytes() == data.column_meta[0].to_model(
        want).tobytes()
    assert rebuilt.y.tobytes() == data.response_meta.to_model(want).tobytes()


def test_dataset_from_meta_refuses_an_unseen_level(tmp_path):
    """A stored factor records its full level set, so a value outside it
    is refused, naming the column, the level and the row, where it would
    otherwise take the reference level's all-zero encoding; the training
    levels encode as before."""
    train = _write(tmp_path, BASIC, name="train.csv")
    data, _ = ingest(train, response="charges")
    test = _write(tmp_path,
                  "age,bmi,smoker,charges\n40,26.0,no,200\n"
                  "30,25.0,sometimes,100\n",
                  name="test.csv")
    with pytest.raises(DataError) as err:
        dataset_from_meta(test, data.column_meta, data.response_meta)
    assert str(err.value) == (
        "level 'sometimes' in column 'smoker', row 2 (first data row is "
        "row 1) was not seen in training; the model knows the levels "
        "['yes', 'no']")
    seen = _write(tmp_path, "age,bmi,smoker,charges\n30,25.0,yes,100\n"
                            "40,26.0,no,200\n", name="seen.csv")
    rebuilt = dataset_from_meta(seen, data.column_meta, data.response_meta)
    np.testing.assert_array_equal(rebuilt.x[:, 2], [0.0, 1.0])


@pytest.mark.parametrize("text,response,clash", [
    ("a,a.b,y\nc,1.5,1\nb,2.5,2\nc,0.5,3\nb,3.5,5\n", "y", "a.b"),
    ("x,y,y.b\n1.0,a,0\n2.0,b,1\n3.0,b,1\n1.5,a,0\n", "y", "y.b"),
    ("a,a.b,y\nd,e,1\nb.c,c,2\nd,e,3\nb.c,c,5\n", "y", "a.b.c"),
], ids=["raw-column", "response", "level-level"])
def test_model_column_name_must_read_back(tmp_path, text, response, clash):
    """Two model columns with one name could not be told apart in the
    model's output or by --covariate, so ingest refuses them."""
    with pytest.raises(DataError, match=f"duplicate model column name "
                                        f"'{clash}'"):
        ingest(_write(tmp_path, text), response=response)


def test_query_column_cannot_hijack_an_indicator(tmp_path):
    """A query file carrying an extra column named like a stored
    indicator (``a.b`` beside factor ``a``) still encodes that indicator
    from factor ``a``."""
    train = _write(tmp_path, "a,x,y\nc,0.5,1\nb,1.5,2\nc,2.5,2\nb,0.1,4\n",
                   name="train.csv")
    data, _ = ingest(train, response="y")
    assert [m.name for m in data.column_meta] == ["a.b", "x"]
    query = _write(tmp_path, "a,a.b,x,y\nc,0,1.0,1\nb,0,2.0,2\nb,1,0.5,3\n"
                             "c,1,1.5,4\nc,0,0.2,5\nb,1,0.3,6\n",
                   name="query.csv")
    rebuilt = dataset_from_meta(query, data.column_meta, data.response_meta)
    np.testing.assert_array_equal(rebuilt.x[:, 0], [0, 1, 1, 0, 0, 1])
