"""HTTP uploader client component (§4.1).

"The HTTP uploader uses the scheduler to perform parallel multi-part POST
requests to upload a set of selected pictures on a web server." Each photo
travels as one multipart POST (the native Facebook/Flickr/Picasa client
behaviour), parallelised across the uplink paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.items import Direction, Transaction, TransferItem
from repro.core.resilience import RetryPolicy, TransferGuard
from repro.core.scheduler import TransactionRunner, make_policy
from repro.core.scheduler.runner import TransactionResult
from repro.netsim.fluid import FluidNetwork
from repro.netsim.path import NetworkPath
from repro.obs.capture import Instrumentation
from repro.web.upload import MultipartUpload, Photo


@dataclass
class UploadReport:
    """Outcome of one onloaded photo-set upload."""

    photo_count: int
    payload_bytes: float
    total_time: float
    result: TransactionResult


def photos_to_items(photos: Sequence[Photo]) -> List[TransferItem]:
    """Convert photos into transaction items (multipart framing included)."""
    if not photos:
        raise ValueError("need at least one photo")
    items = []
    for photo in photos:
        upload = MultipartUpload(photo)
        items.append(
            TransferItem(
                label=photo.name,
                size_bytes=upload.body_bytes,
                metadata={"photo_bytes": photo.size_bytes},
            )
        )
    return items


class MultipartUploader:
    """The client-side uploader: schedules POSTs over the uplink paths."""

    def __init__(self, network: FluidNetwork) -> None:
        self.network = network

    def upload(
        self,
        photos: Sequence[Photo],
        paths: Sequence[NetworkPath],
        policy_name: str = "GRD",
        guard: Optional["TransferGuard"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stall_timeout_s: Optional[float] = None,
        obs: Optional[Instrumentation] = None,
    ) -> UploadReport:
        """Upload ``photos`` across ``paths``; returns timing report.

        ``guard`` (a :class:`~repro.core.resilience.TransferGuard`) makes
        the upload react mid-flight to permit revocations and cap
        exhaustion, degrading to the surviving paths. ``obs`` overrides
        the runner's instrumentation handle (default: the active
        capture, if any).
        """
        items = photos_to_items(photos)
        transaction = Transaction(
            items, direction=Direction.UPLOAD, name="photo-upload"
        )
        runner = TransactionRunner(
            self.network,
            list(paths),
            make_policy(policy_name),
            retry_policy=retry_policy,
            stall_timeout_s=stall_timeout_s,
            obs=obs,
        )
        if guard is not None:
            guard.attach(runner, paths)
        result = runner.run(transaction)
        if guard is not None:
            guard.finalize(result)
        return UploadReport(
            photo_count=len(photos),
            payload_bytes=sum(photo.size_bytes for photo in photos),
            total_time=result.total_time,
            result=result,
        )
