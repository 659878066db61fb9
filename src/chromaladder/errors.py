"""Exception hierarchy shared across the package."""


class ChromaLadderError(Exception):
    """Base class for all package-specific errors."""


# -- dataset ingest ---------------------------------------------------------

class DatasetError(ChromaLadderError):
    """Invalid input data."""


class MalformedRow(DatasetError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class DuplicateRecord(DatasetError):
    """A second ``record`` with the (title, metric, height, chroma, target)
    of an earlier one; ``key`` is the record's ``key``."""

    def __init__(self, record):
        super().__init__(
            f"duplicate record: title {record.title_id!r}, metric {record.quality.metric.value}, "
            f"height {record.resolution.height}, chroma {record.chroma.value}, "
            f"target {record.target_bitrate:g} kbps")
        self.record = record
        self.key = record.key


class NonPositiveValue(DatasetError):
    """``field`` must be positive (and ``finite``, for a float); ``row`` is
    the input row when the value was parsed, as ``MalformedRow`` has it."""

    def __init__(self, field: str, context: str = "", *, row: int | None = None,
                 finite: bool = False):
        msg = f"{field} must be {'finite and ' if finite else ''}> 0"
        if context:
            msg += f" ({context})"
        if row is not None:
            msg = f"row {row}: {msg}"
        super().__init__(msg)
        self.field = field
        self.row = row


class MixedQualityMetric(DatasetError):
    def __init__(self, title_id: str):
        super().__init__(f"title {title_id!r} mixes quality metrics")
        self.title_id = title_id


class EmptyDataset(DatasetError):
    pass


# -- objective --------------------------------------------------------------

class NonPositiveDecodeTime(ChromaLadderError):
    pass


class BoundsMismatch(ChromaLadderError):
    """Record lies outside the normalization bounds it is evaluated against."""


# -- ladder construction ----------------------------------------------------

class LadderError(ChromaLadderError):
    pass


class AllRungsAbsent(LadderError):
    """No target bitrate has any usable candidate."""


class PlanTargetUnknown(LadderError):
    def __init__(self, target):
        super().__init__(f"plan names target {target} kbps, not in the dataset")
        self.target = target


class InvalidPlan(LadderError):
    pass


class InvalidLadder(LadderError):
    """Rung sequence violates the ladder monotonicity invariants."""


# -- curves and Bjontegaard deltas ------------------------------------------

class CurveError(ChromaLadderError):
    pass


class TooFewPoints(CurveError):
    pass


class NoQualityOverlap(CurveError):
    pass


class AxisMismatch(CurveError):
    pass


class MetricMismatch(CurveError):
    pass


class NoPresentRungs(CurveError):
    pass


class EmptyInput(CurveError):
    pass


# -- synthetic data ---------------------------------------------------------

class InvalidSpec(ChromaLadderError):
    pass
