"""Case-data ingestion and positivity scaling."""

import datetime as dt

import pytest

from episafe.cases import (
    CaseDataError,
    CaseRecord,
    ingest_cases,
    scale_cases,
)

WELL_FORMED = """\
date,cumulative_confirmed,positivity_rate
2020-03-25,65000,0.16
2020-03-26,70000,0.18
2020-03-27,78000,0.17
"""

# a quoted count over lines 3 and 4, and a count that decreases on line 6
MULTI_LINE = """\
date,cumulative_confirmed
2020-03-25,65000
2020-03-26,"70
000"
2020-03-27,80000
2020-03-28,60000
"""


def write(tmp_path, text, name="cases.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestIngest:
    def test_three_rows(self, tmp_path):
        records = ingest_cases(write(tmp_path, WELL_FORMED))
        assert len(records) == 3
        assert records[0].date == dt.date(2020, 3, 25)
        assert records[2].cumulative_confirmed == 78000.0
        assert records[1].positivity_rate == pytest.approx(0.18)

    def test_minimal_columns(self, tmp_path):
        text = "date,cumulative_confirmed\n2020-06-01,100\n2020-06-02,130\n"
        records = ingest_cases(write(tmp_path, text))
        assert records[0].positivity_rate is None

    def test_mobility_column(self, tmp_path):
        # accepted and checked as a number, but not kept
        header = "date,cumulative_confirmed,positivity_rate,mobility_index\n"
        records = ingest_cases(write(tmp_path, header + "2020-06-01,100,0.1,0.8\n"))
        assert len(records) == 1
        assert records[0].positivity_rate == pytest.approx(0.1)
        with pytest.raises(CaseDataError, match=r":2: bad numeric field"):
            ingest_cases(write(tmp_path, header + "2020-06-01,100,0.1,high\n"))

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_count_names_row(self, tmp_path, count):
        text = WELL_FORMED.replace("70000", count)
        with pytest.raises(CaseDataError, match=r"cases\.csv:3: cumulative_confirmed must be"):
            ingest_cases(write(tmp_path, text))

    def test_decreasing_count_names_row(self, tmp_path):
        text = WELL_FORMED + "2020-03-28,77000,0.17\n"
        with pytest.raises(CaseDataError, match=r":5: cumulative count decreases"):
            ingest_cases(write(tmp_path, text))

    def test_non_increasing_dates_named(self, tmp_path):
        text = WELL_FORMED + "2020-03-27,80000,0.17\n"
        with pytest.raises(CaseDataError, match=r":5: dates must be strictly"):
            ingest_cases(write(tmp_path, text))

    def test_bad_header(self, tmp_path):
        with pytest.raises(CaseDataError, match="unexpected header"):
            ingest_cases(write(tmp_path, "day,count\n1,2\n"))

    def test_positivity_out_of_range(self, tmp_path):
        text = "date,cumulative_confirmed,positivity_rate\n2020-06-01,100,1.5\n"
        with pytest.raises(CaseDataError, match=r":2: positivity_rate"):
            ingest_cases(write(tmp_path, text))

    def test_field_over_the_csv_limit_names_row(self, tmp_path):
        # the csv module refuses a field over 131,072 characters
        text = "date,cumulative_confirmed\n2020-06-01," + "1" * 200_000 + "\n"
        with pytest.raises(CaseDataError, match=r"cases\.csv:2: field larger than field limit"):
            ingest_cases(write(tmp_path, text))

    def test_undecodable_file_named(self, tmp_path):
        p = tmp_path / "cases.csv"
        p.write_bytes(b"date,cumulative_confirmed\n2020-06-01,1\xff0\n")
        with pytest.raises(CaseDataError, match=r"cases\.csv: cannot read case data: 'utf-8'"):
            ingest_cases(p)

    def test_quoted_field_keeps_its_line_break(self, tmp_path):
        # the file is read as one stream: a quoted field that spans lines 3
        # and 4 keeps its line break, and rows are named by the physical
        # line they end on
        p = write(tmp_path, MULTI_LINE, "ml.csv")
        with pytest.raises(CaseDataError) as err:
            ingest_cases(p)
        want = f"{p}:4: bad numeric field: could not convert string to float: '70\\n000'"
        assert str(err.value) == want
        # cells are stripped, so "70000" and a line break is a count
        p = write(tmp_path, MULTI_LINE.replace('"70\n000"', '"70000\n"'), "ml.csv")
        with pytest.raises(CaseDataError, match=r"ml\.csv:6: cumulative count decreases"):
            ingest_cases(p)

    def test_missing_file_named_once(self, tmp_path):
        p = tmp_path / "missing.csv"
        with pytest.raises(CaseDataError) as err:
            ingest_cases(p)
        assert str(err.value).startswith(f"{p}: cannot read case data: ")
        assert str(err.value).count(str(p)) == 1

    def test_padded_cells_blank_lines_and_crlf(self, tmp_path):
        # every record field by field; blank lines, a row of blank cells and
        # empty optional cells are skipped or read as absent, and the rows
        # keep their physical line numbers
        text = (
            " date , cumulative_confirmed ,positivity_rate, mobility_index\r\n"
            "\r\n"
            " 2020-06-01 , 100 , 0.25 , \r\n"
            "  ,  ,  ,  \r\n"
            "2020-06-02,130.5,,\r\n"
            "\t2020-06-04\t,200,1, 0.5 \r\n"
            "\r\n"
        )
        p = tmp_path / "cases.csv"
        p.write_bytes(text.encode())
        assert ingest_cases(p) == [
            CaseRecord(dt.date(2020, 6, 1), 100.0, 0.25),
            CaseRecord(dt.date(2020, 6, 2), 130.5, None),
            CaseRecord(dt.date(2020, 6, 4), 200.0, 1.0),
        ]
        p.write_bytes((text + "2020-06-05,199,,\r\n").encode())
        with pytest.raises(CaseDataError, match=r"cases\.csv:8: cumulative count decreases"):
            ingest_cases(p)

    def test_malformed_row_named(self, tmp_path):
        text = WELL_FORMED + "2020-03-28\n"
        with pytest.raises(CaseDataError, match=":5:"):
            ingest_cases(write(tmp_path, text))


class TestScaling:
    def test_two_row_example(self):
        records = [
            CaseRecord(dt.date(2020, 6, 1), 1000.0, positivity_rate=0.04),
            CaseRecord(dt.date(2020, 6, 2), 2000.0, positivity_rate=0.32),
        ]
        scaled = scale_cases(records)
        # (0.32 / 0.04) ** (1/3) = 2: the high-positivity row doubles
        assert scaled.reference_positivity == pytest.approx(0.04)
        assert scaled.scaled[0] == pytest.approx(1000.0)
        assert scaled.scaled[1] == pytest.approx(4000.0)

    def test_constant_positivity_unchanged(self):
        records = [
            CaseRecord(dt.date(2020, 6, d), 100.0 * d, positivity_rate=0.1)
            for d in (1, 2, 3)
        ]
        scaled = scale_cases(records)
        for raw, out in zip(records, scaled.scaled):
            assert out == pytest.approx(raw.cumulative_confirmed)

    def test_zero_exponent_unchanged(self):
        records = [
            CaseRecord(dt.date(2020, 6, 1), 500.0, positivity_rate=0.05),
            CaseRecord(dt.date(2020, 6, 2), 900.0, positivity_rate=0.4),
        ]
        scaled = scale_cases(records, exponent=0.0)
        assert list(scaled.scaled) == [500.0, 900.0]

    def test_missing_positivity_rejected(self):
        unrated = CaseRecord(dt.date(2020, 6, 1), 500.0)
        with pytest.raises(CaseDataError, match="^no record has a positivity_rate$"):
            scale_cases([unrated])
        rated = CaseRecord(dt.date(2020, 6, 2), 900.0, positivity_rate=0.4)
        with pytest.raises(CaseDataError, match=r"^record 0 \(2020-06-01\) has no positivity_rate$"):
            scale_cases([unrated, rated])

    def test_metadata_documents_choice(self):
        records = [
            CaseRecord(dt.date(2020, 6, 1), 500.0, positivity_rate=0.05),
            CaseRecord(dt.date(2020, 6, 2), 900.0, positivity_rate=0.4),
        ]
        meta = scale_cases(records).metadata()
        assert meta["exponent"] == pytest.approx(1.0 / 3.0)
        assert meta["reference_positivity"] == pytest.approx(0.05)
        assert "formula" in meta
