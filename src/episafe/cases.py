"""Recorded case data: ingestion, validation and under-reporting correction.

Confirmed-case counts are cumulative and measured with delay; during
high-positivity periods they also under-count actual infections.  The
scaling here inflates the cumulative series by (positivity / reference)
raised to a damping exponent (cube root by default, to scale less
aggressively), with the reference chosen as the series minimum so the
best-surveilled period is left untouched.  ingest_cases reads a file in
one pass into CaseRecords; scale_cases returns a ScaledSeries that keeps
those records and one scaled count per record.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CaseRecord",
    "CaseDataError",
    "ScaledSeries",
    "ingest_cases",
    "scale_cases",
]

_COLUMNS = ("date", "cumulative_confirmed", "positivity_rate", "mobility_index")


class CaseDataError(ValueError):
    def __init__(self, message: str, origin: str = "", line: int | None = None):
        where = origin if line is None else f"{origin}:{line}"
        super().__init__(f"{where}: {message}" if where else message)
        self.line = line


@dataclass(frozen=True)
class CaseRecord:
    """One day of surveillance data.

    cumulative_confirmed counts everyone confirmed infected up to the date
    (actively infected plus recovered) and must be finite and non-negative;
    positivity_rate is positives per total tests in (0, 1], or None when
    the source lacks it.
    """

    date: dt.date
    cumulative_confirmed: float
    positivity_rate: float | None = None

    def __post_init__(self) -> None:
        if self.cumulative_confirmed < 0.0:
            raise ValueError("cumulative_confirmed must be non-negative")
        if not math.isfinite(self.cumulative_confirmed):
            raise ValueError("cumulative_confirmed must be finite")
        if self.positivity_rate is not None and not (0.0 < self.positivity_rate <= 1.0):
            raise ValueError("positivity_rate must lie in (0, 1]")


def ingest_cases(path: str | Path) -> list[CaseRecord]:
    """Read and validate a case-data CSV.

    Expected header: date,cumulative_confirmed[,positivity_rate]
    [,mobility_index].  Dates must be ISO-8601 and strictly increasing;
    cumulative counts must be non-decreasing.  A mobility_index cell must
    be numeric when present, but is not kept.  Offending rows are reported
    by line number, a field the csv module refuses included; a file that
    cannot be read or is not UTF-8 is reported by its path.
    """
    path = Path(path)
    origin = str(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise CaseDataError(f"cannot read case data: {reason}", origin) from exc
    if not text:  # any other text has a first row, if only an empty one
        raise CaseDataError("empty file", origin)
    # one stream, so that a quoted field keeps its line breaks; each row is
    # numbered by the physical line it ends on
    reader = csv.reader(io.StringIO(text, newline=""))
    records: list[CaseRecord] = []
    try:
        header = tuple(h.strip() for h in next(reader))
        if header not in {_COLUMNS[:k] for k in (2, 3, 4)}:
            raise CaseDataError(
                f"unexpected header {','.join(header)!r}; expected "
                "date,cumulative_confirmed[,positivity_rate][,mobility_index]",
                origin,
                reader.line_num,
            )
        # the header is a prefix of _COLUMNS, so cell k is column _COLUMNS[k];
        # a column the header lacks reads as an empty cell
        for row in reader:
            lineno = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CaseDataError(
                    f"expected {len(header)} fields, got {len(row)}", origin, lineno
                )
            date, count, positivity, mobility = ([cell.strip() for cell in row] + ["", ""])[:4]
            try:
                day = dt.date.fromisoformat(date)
            except ValueError:
                raise CaseDataError(
                    f"bad date {date!r} (need ISO-8601)", origin, lineno
                ) from None
            try:
                cumulative = float(count)
                rate = float(positivity) if positivity else None
                if mobility:
                    float(mobility)
            except ValueError as exc:
                raise CaseDataError(f"bad numeric field: {exc}", origin, lineno) from None
            try:
                record = CaseRecord(day, cumulative, rate)
            except ValueError as exc:
                raise CaseDataError(str(exc), origin, lineno) from exc
            if records:
                if record.date <= records[-1].date:
                    raise CaseDataError(
                        f"dates must be strictly increasing "
                        f"({record.date} after {records[-1].date})",
                        origin,
                        lineno,
                    )
                if record.cumulative_confirmed < records[-1].cumulative_confirmed:
                    raise CaseDataError(
                        f"cumulative count decreases "
                        f"({record.cumulative_confirmed:g} after "
                        f"{records[-1].cumulative_confirmed:g})",
                        origin,
                        lineno,
                    )
            records.append(record)
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise CaseDataError(str(exc), origin, reader.line_num) from None
    if not records:
        raise CaseDataError("no data rows", origin)
    return records


@dataclass(frozen=True)
class ScaledSeries:
    """Under-reporting-corrected series plus the correction metadata:
    scaled[k] is the corrected cumulative count of records[k]."""

    records: tuple[CaseRecord, ...]
    scaled: tuple[float, ...]
    exponent: float
    reference_positivity: float

    def metadata(self) -> dict:
        return {
            "formula": "scaled = cumulative * (positivity / reference) ** exponent",
            "exponent": self.exponent,
            "reference_positivity": self.reference_positivity,
            "reference_rule": "series minimum (best-surveilled period unchanged)",
        }


def scale_cases(records: list[CaseRecord], exponent: float = 1.0 / 3.0) -> ScaledSeries:
    """Inflate cumulative counts where test positivity was high.

    Every record needs a positivity_rate: CaseDataError says "no record has
    a positivity_rate" when none has one, and otherwise names the first
    record without one.  The reference is the series minimum, so scaling
    only inflates under-reported periods and the best-surveilled day keeps
    its raw count.
    """
    if not records:
        raise CaseDataError("no records to scale")
    missing = [k for k, r in enumerate(records) if r.positivity_rate is None]
    if len(missing) == len(records):
        raise CaseDataError("no record has a positivity_rate")
    if missing:
        k = missing[0]
        raise CaseDataError(f"record {k} ({records[k].date}) has no positivity_rate")
    reference = min(r.positivity_rate for r in records)
    scaled = tuple(
        r.cumulative_confirmed * (r.positivity_rate / reference) ** exponent
        for r in records
    )
    return ScaledSeries(tuple(records), scaled, exponent, reference)

