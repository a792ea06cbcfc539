"""Request-rate traces: ingestion, resampling, replay, fingerprinting.

A :class:`RateTrace` is a piecewise-constant request-rate function —
``rates_rps[i]`` req/s over ``[times_s[i], times_s[i] + interval_s)`` —
the lingua franca between the characterization side (a measured run's
arrival counts), the modeling side (synthetic traces from fitted
models, :mod:`repro.traffic.synthesis`), and the generation side
(:class:`TraceReplayProcess` replays any trace open-loop as a
piecewise-homogeneous Poisson stream).

Traces load from and save to CSV and NPZ.  Both readers also understand
the columnar-matrix exports of :mod:`repro.monitoring.export`
(``write_columnar_csv`` / ``write_columnar_npz``), so any recorded
metric column can be replayed as offered load.  ``sha256`` gives a
stable content fingerprint used by the determinism acceptance checks.
"""

from __future__ import annotations

import calendar
import csv
import hashlib
import re
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.traffic.arrivals import ArrivalProcess
from repro.units import SAMPLE_PERIOD_S

#: Canonical column names of the native CSV/NPZ layout.
TIME_COLUMN = "time_s"
RATE_COLUMN = "rate_rps"

#: Common/Combined Log Format line: ``host ident user [ts] "req" status
#: size [...]``.  Only the prefix through the status/size is matched, so
#: Combined (referer + user agent) and custom suffixes all parse.
_CLF_LINE_RE = re.compile(
    r'^\S+ \S+ \S+ '
    r'\[(?P<day>\d{2})/(?P<mon>[A-Za-z]{3})/(?P<year>\d{4}):'
    r'(?P<hh>\d{2}):(?P<mm>\d{2}):(?P<ss>\d{2}) '
    r'(?P<tzsign>[+-])(?P<tzh>\d{2})(?P<tzm>\d{2})\] '
    r'"[^"]*" \d{3} (?:\d+|-)'
)

_CLF_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def _clf_epoch_s(match: "re.Match") -> float:
    """UTC epoch seconds of one matched CLF timestamp."""
    month = _CLF_MONTHS.get(match.group("mon").lower())
    if month is None:
        raise AnalysisError(
            f"unknown month {match.group('mon')!r} in access-log timestamp"
        )
    naive = calendar.timegm((
        int(match.group("year")),
        month,
        int(match.group("day")),
        int(match.group("hh")),
        int(match.group("mm")),
        int(match.group("ss")),
        0, 0, 0,
    ))
    offset = 3600 * int(match.group("tzh")) + 60 * int(match.group("tzm"))
    if match.group("tzsign") == "-":
        offset = -offset
    return float(naive - offset)


def looks_like_access_log(path: str, probe_lines: int = 5) -> bool:
    """Sniff whether a file's head parses as Common/Combined Log Format.

    Reads one bounded chunk (64 KB) so probing a large binary or
    otherwise newline-free file stays O(1) in time and memory.
    """
    try:
        with open(path, "r", errors="replace") as handle:
            head = handle.read(65536)
    except OSError:
        return False
    for line in head.splitlines():
        line = line.strip()
        if not line:
            continue
        if _CLF_LINE_RE.match(line):
            return True
        probe_lines -= 1
        if probe_lines <= 0:
            return False
    return False


class RateTrace:
    """A uniform-grid, piecewise-constant request-rate trace."""

    __slots__ = ("times_s", "rates_rps", "interval_s")

    def __init__(
        self,
        rates_rps: Sequence[float],
        interval_s: float,
        start_time_s: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        # Always copy: the trace owns (and freezes) its rates buffer,
        # and must not freeze an array the caller keeps writing to.
        rates = np.array(rates_rps, dtype=float, copy=True)
        if rates.ndim != 1 or rates.size == 0:
            raise ConfigurationError("a rate trace needs >= 1 interval")
        if not np.isfinite(rates).all():
            raise AnalysisError("rate trace contains non-finite values")
        if (rates < 0).any():
            raise AnalysisError("rate trace contains negative rates")
        self.interval_s = float(interval_s)
        self.rates_rps = rates
        self.rates_rps.setflags(write=False)
        times = start_time_s + self.interval_s * np.arange(rates.size)
        times.setflags(write=False)
        self.times_s = times

    # -- basic properties ------------------------------------------------

    def __len__(self) -> int:
        return self.rates_rps.size

    @property
    def start_time_s(self) -> float:
        return float(self.times_s[0])

    @property
    def duration_s(self) -> float:
        return self.interval_s * len(self)

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s

    def mean_rate_rps(self) -> float:
        """Time-averaged request rate."""
        return float(self.rates_rps.mean())

    def total_expected_arrivals(self) -> float:
        """Expected arrival count over the whole trace."""
        return float(self.rates_rps.sum() * self.interval_s)

    def rate_at(self, t: float) -> float:
        """Rate in effect at time ``t`` (0 outside the trace)."""
        index = int((t - self.start_time_s) // self.interval_s)
        if 0 <= index < len(self):
            return float(self.rates_rps[index])
        return 0.0

    # -- transforms -------------------------------------------------------

    def scaled(self, factor: float) -> "RateTrace":
        """A copy with every rate multiplied by ``factor``."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return RateTrace(
            self.rates_rps * factor, self.interval_s, self.start_time_s
        )

    def resample(self, interval_s: float) -> "RateTrace":
        """Volume-conserving resample onto a new uniform grid.

        The cumulative-arrivals curve is linearly interpolated at the
        new interval boundaries and differenced, so the expected total
        arrival count is preserved exactly (up to the trailing partial
        interval, which is padded to cover the full original span).
        """
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        old_bounds = self.start_time_s + self.interval_s * np.arange(
            len(self) + 1
        )
        cumulative = np.concatenate(
            ([0.0], np.cumsum(self.rates_rps * self.interval_s))
        )
        n_new = int(np.ceil(self.duration_s / interval_s))
        new_bounds = self.start_time_s + interval_s * np.arange(n_new + 1)
        new_cumulative = np.interp(new_bounds, old_bounds, cumulative)
        new_rates = np.diff(new_cumulative) / interval_s
        # Interpolation can leave tiny negative dust on zero intervals.
        np.clip(new_rates, 0.0, None, out=new_rates)
        return RateTrace(new_rates, interval_s, self.start_time_s)

    # -- fingerprinting ---------------------------------------------------

    def sha256(self) -> str:
        """Content hash over (interval, start, rates); grid-sensitive."""
        digest = hashlib.sha256()
        digest.update(np.float64(self.interval_s).tobytes())
        digest.update(np.float64(self.start_time_s).tobytes())
        digest.update(self.rates_rps.tobytes())
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RateTrace):
            return NotImplemented
        return (
            self.interval_s == other.interval_s
            and self.start_time_s == other.start_time_s
            and np.array_equal(self.rates_rps, other.rates_rps)
        )

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[float],
        interval_s: float,
        start_time_s: float = 0.0,
    ) -> "RateTrace":
        """Per-interval arrival counts -> per-interval rates."""
        counts = np.asarray(counts, dtype=float)
        return cls(counts / float(interval_s), interval_s, start_time_s)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write the native two-column CSV layout."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([TIME_COLUMN, RATE_COLUMN])
            for t, r in zip(self.times_s, self.rates_rps):
                # 12 significant digits so non-decimal intervals
                # (1/3 s, ...) survive the round trip through text.
                writer.writerow([f"{t:.12g}", f"{r:.9g}"])

    def to_npz(self, path: str) -> None:
        """Write the native NPZ layout (time_s + rate_rps arrays)."""
        np.savez_compressed(
            path,
            **{
                TIME_COLUMN: np.asarray(self.times_s),
                RATE_COLUMN: np.asarray(self.rates_rps),
            },
        )

    @classmethod
    def _from_grid(
        cls, times: np.ndarray, rates: np.ndarray, source: str
    ) -> "RateTrace":
        if times.size != rates.size or times.size == 0:
            raise AnalysisError(f"{source}: empty or misaligned trace")
        if times.size == 1:
            raise AnalysisError(
                f"{source}: need >= 2 samples to infer the interval"
            )
        gaps = np.diff(times)
        interval = float(np.median(gaps))
        if interval <= 0:
            raise AnalysisError(f"{source}: sample times must increase")
        # Permille slack absorbs text-format rounding of the sample
        # times while still rejecting genuinely non-uniform grids.
        if not np.allclose(gaps, interval, rtol=0.0, atol=1e-3 * interval):
            raise AnalysisError(
                f"{source}: trace is not on a uniform time grid"
            )
        return cls(rates, interval, start_time_s=float(times[0]))

    @classmethod
    def from_csv(cls, path: str, column: Optional[str] = None) -> "RateTrace":
        """Load from CSV: the native layout or any wide columnar export.

        ``column`` picks the rate column by header name; by default the
        canonical ``rate_rps`` column is used, falling back to the only
        non-time column when the file has exactly two columns.
        """
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise AnalysisError(f"{path}: empty CSV") from None
            rows = [(reader.line_num, row) for row in reader if row]
        if TIME_COLUMN not in header:
            raise AnalysisError(f"{path}: no {TIME_COLUMN!r} column")
        wanted = column or RATE_COLUMN
        if wanted not in header:
            others = [name for name in header if name != TIME_COLUMN]
            if column is None and len(others) == 1:
                wanted = others[0]
            else:
                raise AnalysisError(
                    f"{path}: no column {wanted!r}; available: {others}"
                )
        t_index = header.index(TIME_COLUMN)
        r_index = header.index(wanted)
        times, rates = [], []
        for line, row in rows:
            try:
                times.append(float(row[t_index]))
                rates.append(float(row[r_index]))
            except (ValueError, IndexError):
                raise AnalysisError(
                    f"{path}: line {line} has no numeric {TIME_COLUMN!r} "
                    f"and {wanted!r} values: {row}"
                ) from None
        return cls._from_grid(np.array(times), np.array(rates), path)

    @classmethod
    def from_npz(cls, path: str, column: Optional[str] = None) -> "RateTrace":
        """Load from NPZ: the native layout or a columnar-matrix export."""
        with np.load(path, allow_pickle=False) as data:
            if "columns" in data and "matrix" in data:
                names = [str(name) for name in data["columns"]]
                matrix = np.asarray(data["matrix"], dtype=float)
                if TIME_COLUMN not in names:
                    raise AnalysisError(f"{path}: no {TIME_COLUMN!r} column")
                wanted = column or RATE_COLUMN
                if wanted not in names:
                    others = [n for n in names if n != TIME_COLUMN]
                    if column is None and len(others) == 1:
                        wanted = others[0]
                    else:
                        raise AnalysisError(
                            f"{path}: no column {wanted!r} in columnar NPZ"
                        )
                times = matrix[:, names.index(TIME_COLUMN)]
                rates = matrix[:, names.index(wanted)]
                return cls._from_grid(times, rates, path)
            if TIME_COLUMN in data:
                wanted = column or RATE_COLUMN
                if wanted not in data:
                    raise AnalysisError(f"{path}: no array {wanted!r}")
                return cls._from_grid(
                    np.asarray(data[TIME_COLUMN], dtype=float),
                    np.asarray(data[wanted], dtype=float),
                    path,
                )
        raise AnalysisError(f"{path}: unrecognized NPZ trace layout")

    @classmethod
    def from_access_log(
        cls,
        path: str,
        interval_s: float = SAMPLE_PERIOD_S,
        max_invalid_fraction: float = 0.05,
    ) -> "RateTrace":
        """Ingest an HTTP access log (Common/Combined Log Format).

        Request timestamps are binned into ``interval_s`` buckets and
        the counts become a rate trace starting at t=0 (times are
        re-based to the earliest request, so public traces — e.g.
        WorldCup98-style archives — replay on the simulation clock
        directly).  Lines that do not parse as CLF are skipped, but
        more than ``max_invalid_fraction`` of them fails the ingest:
        a mostly-unparseable file is the wrong format, not a noisy log.
        """
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        times = []
        invalid = 0
        with open(path, "r", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                match = _CLF_LINE_RE.match(line)
                if match is None:
                    invalid += 1
                    continue
                times.append(_clf_epoch_s(match))
        if not times:
            raise AnalysisError(
                f"{path}: no Common/Combined Log Format lines found"
            )
        total = len(times) + invalid
        if invalid > max_invalid_fraction * total:
            raise AnalysisError(
                f"{path}: {invalid}/{total} lines are not CLF; "
                "refusing to ingest a mostly-unparseable file"
            )
        stamps = np.asarray(times, dtype=float)
        stamps -= stamps.min()
        indices = (stamps // interval_s).astype(np.int64)
        counts = np.bincount(indices)
        return cls.from_counts(counts, interval_s)

    @classmethod
    def from_file(cls, path: str, column: Optional[str] = None) -> "RateTrace":
        """Dispatch on file extension, sniffing access logs.

        ``.csv`` / ``.npz`` load the native (or columnar-export)
        layouts; anything else — ``.log``, extension-less paths — is
        probed for Common/Combined Log Format and ingested with
        :meth:`from_access_log`, so ``--traffic trace:<access.log>``
        replays a real web server's offered load with no conversion
        step.
        """
        lowered = path.lower()
        if lowered.endswith(".csv"):
            return cls.from_csv(path, column)
        if lowered.endswith(".npz"):
            return cls.from_npz(path, column)
        if looks_like_access_log(path):
            return cls.from_access_log(path)
        raise ConfigurationError(
            f"cannot infer trace format of {path!r}; use .csv, .npz or "
            "a Common/Combined Log Format access log"
        )


class TraceReplayProcess(ArrivalProcess):
    """Open-loop replay of a :class:`RateTrace`.

    Each trace interval contributes a Poisson-distributed arrival count
    placed as uniform order statistics — an exact sample of the
    piecewise-homogeneous Poisson process with the trace's intensity.
    The process exhausts (returns None) at the end of the trace unless
    ``loop=True``, which tiles the trace forever.
    """

    def __init__(
        self,
        trace: RateTrace,
        rng: np.random.Generator,
        loop: bool = False,
    ) -> None:
        super().__init__(start_time_s=max(trace.start_time_s, 0.0))
        if loop and trace.total_expected_arrivals() == 0.0:
            raise ConfigurationError(
                "cannot loop an all-zero-rate trace: the replay would "
                "never produce an arrival"
            )
        self.trace = trace
        self.loop = bool(loop)
        self.rate_rps = trace.mean_rate_rps()
        self._rng = rng
        self._index = 0

    def _refill(self) -> Optional[np.ndarray]:
        trace = self.trace
        if self._index >= len(trace):
            if not self.loop:
                return None
            self._index = 0
        rate = float(trace.rates_rps[self._index])
        self._index += 1
        dt = trace.interval_s
        start = self._clock
        self._clock += dt
        if rate <= 0.0:
            return np.empty(0)
        count = int(self._rng.poisson(rate * dt))
        return start + np.sort(self._rng.uniform(0.0, dt, size=count))
