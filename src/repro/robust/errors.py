"""Error taxonomy for the 3DESS pipeline (the ``repro.robust`` layer).

Every failure mode of the extraction/persistence/search path maps onto one
:class:`ReproError` subclass carrying a machine-readable *stage* (where in
the normalize -> voxelize -> skeletonize -> feature-collect flow of Fig. 2
the failure happened) and *code* (what went wrong).  Each subclass also
inherits the stdlib exception its call sites historically raised
(``ValueError`` / ``RuntimeError``), so existing ``except``/``raises``
contracts keep working while new code can catch the taxonomy.

:func:`classify_exception` turns *any* exception — typed or foreign — into
a picklable :class:`FailureInfo`, which is what worker processes ship back
across the pool boundary and what quarantine reports record.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..geometry.mesh import MeshError

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "MeshValidationError",
    "VoxelizationError",
    "SkeletonizationError",
    "FeatureExtractionError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "StorageCorruptionError",
    "FailureInfo",
    "classify_exception",
    "traceback_digest",
    "RETRYABLE_CODES",
    "is_retryable",
]


class ReproError(Exception):
    """Base of the pipeline error taxonomy.

    Attributes
    ----------
    stage:
        Pipeline stage the failure belongs to (``"validate"``,
        ``"voxelize"``, ``"skeletonize"``, ``"extract"``, ``"storage"``).
    code:
        Machine-readable cause, dotted by convention (``"mesh.zero_extent"``,
        ``"extract.timeout"``, ...).  Defaults to the class's
        ``default_code``.
    context:
        Free-form keyword details (counts, paths, limits) for reports.
    """

    stage: str = "unknown"
    default_code: str = "unknown"

    def __init__(
        self, message: str, *, code: Optional[str] = None, **context: object
    ) -> None:
        super().__init__(message)
        self.code = code if code is not None else self.default_code
        self.context = context

    def describe(self) -> Dict[str, str]:
        """Machine-readable summary (stage, code, message)."""
        return {
            "stage": self.stage,
            "code": self.code,
            "message": str(self),
        }


class InvalidParameterError(ReproError, ValueError):
    """A caller passed an out-of-contract argument to a pipeline stage
    (unknown skeletal entity type, non-positive resolution, ...).

    Deterministic and never retryable: the *call*, not the worker or the
    input geometry, is wrong.  Also a ``ValueError`` so historical
    ``except ValueError`` / ``pytest.raises(ValueError)`` contracts at
    these sites keep working.
    """

    stage = "usage"
    default_code = "usage.invalid_parameter"


class MeshValidationError(ReproError, MeshError):
    """A mesh failed pre-flight validation (NaN vertices, degenerate
    faces, zero extent, ...).  Also a :class:`~repro.geometry.mesh.MeshError`
    (hence a ``ValueError``) for backward compatibility."""

    stage = "validate"
    default_code = "mesh.invalid"


class VoxelizationError(ReproError, ValueError):
    """Voxelization produced no model or could not run (Section 3.2)."""

    stage = "voxelize"
    default_code = "voxel.failed"


class SkeletonizationError(ReproError, RuntimeError):
    """Thinning / skeletal-graph construction failed (Section 3.3)."""

    stage = "skeletonize"
    default_code = "skeleton.failed"


class FeatureExtractionError(ReproError, ValueError):
    """A feature vector could not be computed (Section 3.5)."""

    stage = "extract"
    default_code = "feature.failed"


class WorkerTimeoutError(FeatureExtractionError):
    """A worker exceeded its per-task wall-clock budget and was killed."""

    default_code = "extract.timeout"


class WorkerCrashError(FeatureExtractionError):
    """A worker process died (segfault, OOM kill) without reporting."""

    default_code = "extract.worker_crash"


class StorageCorruptionError(ReproError, RuntimeError):
    """A database directory is unreadable, inconsistent, or fails its
    checksum verification."""

    stage = "storage"
    default_code = "storage.corrupt"


def traceback_digest(exc: BaseException) -> str:
    """Short stable digest of an exception's traceback.

    Two failures with the same root cause (same frames, same message type)
    share a digest, which lets quarantine reports group repeats without
    storing full tracebacks per item.
    """
    frames = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return hashlib.sha256("".join(frames).encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class FailureInfo:
    """Picklable description of one failure (what workers send home).

    ``stage``/``code`` follow the taxonomy above; foreign exceptions are
    classified as stage ``"extract"`` with code ``"extract.<ExcType>"``.
    """

    stage: str
    code: str
    message: str
    digest: str = ""

    def format(self) -> str:
        return f"[{self.stage}/{self.code}] {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)


#: Failure codes worth a fresh-worker retry: the worker (not the input)
#: was the problem, so a second attempt can genuinely succeed.  Every
#: deterministic pipeline error — validation, voxelization, skeleton
#: non-convergence — fails the same mesh the same way on every attempt,
#: so retrying only burns the budget re-proving it.
RETRYABLE_CODES = frozenset(
    {
        "extract.timeout",
        "extract.worker_crash",
        "extract.MemoryError",
    }
)


def is_retryable(code: str) -> bool:
    """Whether a failure code describes a *transient* (environmental)
    failure that may pass on a fresh worker, as opposed to a
    deterministic property of the input.

    Used by the worker pools to short-circuit the retry budget:
    a :class:`MeshValidationError` or any other permanent taxonomy code
    is reported after the first attempt, never re-forked.
    """
    return code in RETRYABLE_CODES


def classify_exception(exc: BaseException) -> FailureInfo:
    """Map any exception onto the taxonomy as a :class:`FailureInfo`."""
    message = "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()
    digest = traceback_digest(exc)
    if isinstance(exc, ReproError):
        return FailureInfo(
            stage=exc.stage, code=exc.code, message=message, digest=digest
        )
    if isinstance(exc, MeshError):
        return FailureInfo(
            stage="validate", code="mesh.invalid", message=message, digest=digest
        )
    return FailureInfo(
        stage="extract",
        code=f"extract.{type(exc).__name__}",
        message=message,
        digest=digest,
    )
