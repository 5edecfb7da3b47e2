"""Recorded case data: ingestion, validation and under-reporting correction.

Confirmed-case counts are cumulative and measured with delay; during
high-positivity periods they also under-count actual infections.  The
scaling here inflates the cumulative series by (positivity / reference)
raised to a damping exponent, EXPONENT (a cube root, to scale less
aggressively), with the reference chosen as the series minimum so the
best-surveilled period is left untouched.  ingest_cases reads a file in
one pass into CaseRecords; scale_cases returns a ScaledSeries that holds
one scaled count per record, in the records' order.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .contract import LocatedError, read_text

__all__ = [
    "EXPONENT",
    "CaseRecord",
    "CaseDataError",
    "ScaledSeries",
    "ingest_cases",
    "scale_cases",
]

_COLUMNS = ("date", "cumulative_confirmed", "positivity_rate", "mobility_index")
EXPONENT = 1.0 / 3.0  # the damping exponent of scale_cases


class CaseDataError(LocatedError):
    pass


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
    cannot be read or is not UTF-8 is reported by its path (see
    contract.read_text, which also drops a leading byte-order mark).
    """
    path = Path(path)
    origin = str(path)
    text = read_text(path, "case data", CaseDataError)
    if not text:  # any other text has a first row, if only an empty one
        raise CaseDataError("empty file", origin)
    # one stream, so that a quoted field keeps its line breaks; each row is
    # numbered by the physical line it ends on
    reader = csv.reader(io.StringIO(text, newline=""))

    def fault(message: str) -> CaseDataError:  # at the row last read
        return CaseDataError(message, origin, reader.line_num)

    records: list[CaseRecord] = []
    try:
        header = tuple(h.strip() for h in next(reader))
        if header not in {_COLUMNS[:k] for k in (2, 3, 4)}:
            raise fault(
                f"unexpected header {','.join(header)!r}; expected "
                "date,cumulative_confirmed[,positivity_rate][,mobility_index]"
            )
        # the header is a prefix of _COLUMNS, so cell k is column _COLUMNS[k];
        # a column the header lacks reads as an empty cell
        width = len(header)
        for row in reader:
            if not any(map(str.strip, row)):  # no cells, or only blank ones
                continue
            if len(row) != width:
                raise fault(f"expected {width} fields, got {len(row)}")
            date, count, positivity, mobility = [*map(str.strip, row), "", ""][:4]
            try:
                day = dt.date.fromisoformat(date)
            except ValueError:
                raise fault(f"bad date {date!r} (need ISO-8601)") from None
            try:
                cumulative = float(count)
                rate = float(positivity) if positivity else None
                if mobility:
                    float(mobility)
            except ValueError as exc:
                raise fault(f"bad numeric field: {exc}") from None
            try:
                record = CaseRecord(day, cumulative, rate)
            except ValueError as exc:
                raise fault(str(exc)) from exc
            if records:
                if day <= last_day:
                    raise fault(f"dates must be strictly increasing ({day} after {last_day})")
                if cumulative < last_count:
                    raise fault(
                        f"cumulative count decreases ({cumulative:g} after {last_count:g})"
                    )
            records.append(record)
            last_day, last_count = day, cumulative
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise fault(str(exc)) from None
    if not records:
        raise CaseDataError("no data rows", origin)
    return records


@dataclass(frozen=True)
class ScaledSeries:
    """Under-reporting-corrected series plus the correction metadata:
    scaled[k] is the corrected cumulative count of scale_cases' records[k]."""

    scaled: tuple[float, ...]
    reference_positivity: float

    def metadata(self) -> dict:
        return {
            "formula": "scaled = cumulative * (positivity / reference) ** exponent",
            "exponent": EXPONENT,
            "reference_positivity": self.reference_positivity,
            "reference_rule": "series minimum (best-surveilled period unchanged)",
        }


def scale_cases(records: list[CaseRecord]) -> ScaledSeries:
    """Inflate cumulative counts by (positivity / reference) ** EXPONENT.

    Every record needs a positivity_rate: CaseDataError says "no record has
    a positivity_rate" when none has one, and otherwise names the first
    record without one.  The reference is the series minimum, so scaling
    only inflates under-reported periods and the best-surveilled day keeps
    its raw count.  A scaled count that is not finite (the ratio or the
    product overflowed) raises CaseDataError naming the first such record.
    """
    if not records:
        raise CaseDataError("no records to scale")
    rates = [r.positivity_rate for r in records]
    if None in rates:
        if rates.count(None) == len(rates):
            raise CaseDataError("no record has a positivity_rate")
        k = rates.index(None)
        raise CaseDataError(f"record {k} ({records[k].date}) has no positivity_rate")
    reference = min(rates)
    scaled = tuple(
        r.cumulative_confirmed * (rate / reference) ** EXPONENT
        for r, rate in zip(records, rates)
    )
    if not all(map(math.isfinite, scaled)):
        k = next(k for k, value in enumerate(scaled) if not math.isfinite(value))
        raise CaseDataError(f"record {k} ({records[k].date}) scales to a count "
                            f"that is not finite ({scaled[k]!r})")
    return ScaledSeries(scaled, reference)

