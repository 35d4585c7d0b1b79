"""TransferGuard: permit revocation and cap exhaustion mid-transfer."""

import json

import pytest

from repro.core.mobile import OperatingMode
from repro.core.permits import PermitServer
from repro.core.resilience import TransferGuard, bind_fault_schedule
from repro.core.session import OnloadSession
from repro.core.uploader import MultipartUploader
from repro.netsim.faults import FaultSchedule, PathFlapProcess
from repro.util.units import MB
from repro.web.upload import Photo


def photos(n, size=2 * MB):
    return [Photo(f"{i}.jpg", size) for i in range(n)]


class TestPermitRevocation:
    def make_session(self, quiet_location):
        server = PermitServer(utilization_fn=lambda cell, now: 0.1)
        session = OnloadSession.for_location(
            quiet_location,
            n_phones=2,
            seed=1,
            mode=OperatingMode.NETWORK_INTEGRATED,
            permit_server=server,
        )
        return session, server

    def test_revocation_mid_transfer_degrades_and_completes(
        self, quiet_location
    ):
        session, server = self.make_session(quiet_location)
        phone = session.household.phones[0].name
        # Pull the permit one simulated second into the upload.
        session.network.schedule(1.0, lambda: server.revoke(phone))
        report = session.upload_photos(photos(8))
        assert report.photo_count == 8
        events = report.result.degradations_of_kind("permit-revoked")
        assert len(events) == 1
        assert phone in events[0].path_name
        # Nothing landed on the revoked path after the revocation.
        for record in report.result.records.values():
            if phone in record.path_name:
                assert record.completed_at <= 1.0 + 1e-9

    def test_revocation_of_idle_device_is_benign(self, quiet_location):
        session, server = self.make_session(quiet_location)
        # Revoke before the transfer: the phone never advertises, the
        # path set is built without it, and the guard has nothing to do.
        server.revoke(session.household.phones[0].name)
        report = session.upload_photos(photos(4))
        assert report.photo_count == 4
        assert report.result.degradations_of_kind("permit-revoked") == []

    def test_guard_unsubscribes_after_finalize(self, quiet_location):
        session, server = self.make_session(quiet_location)
        session.upload_photos(photos(2))
        # All transfer-time listeners are gone: a late revocation must
        # not touch a finished runner.
        assert server._revocation_listeners == []


class TestCapExhaustion:
    def test_cap_exhaustion_drains_path_mid_transfer(self, quiet_location):
        session = OnloadSession.for_location(
            quiet_location, n_phones=2, seed=1, daily_budget_bytes=3 * MB
        )
        report = session.upload_photos(photos(10))
        assert report.photo_count == 10
        drained = report.result.degradations_of_kind("cap-exhausted")
        # The phones blow their 3 MB budget during this ~20 MB upload.
        assert len(drained) >= 1
        # Metering saw every cellular byte (incremental + true-up).
        used = sum(
            c.cap_tracker.total_used_bytes
            for c in session.mobile_components.values()
        )
        cellular = sum(
            nbytes
            for name, nbytes in report.result.path_bytes.items()
            if "phone" in name
        )
        assert used == pytest.approx(cellular, rel=1e-6)

    def test_exhausted_phone_not_admissible_afterwards(self, quiet_location):
        session = OnloadSession.for_location(
            quiet_location, n_phones=2, seed=1, daily_budget_bytes=1 * MB
        )
        session.upload_photos(photos(6))
        assert session.admissible_phones() == []


class TestGuardMechanics:
    def test_guard_is_single_use(self, quiet_location):
        session = OnloadSession.for_location(
            quiet_location, n_phones=1, seed=1
        )
        guard = session._make_guard()
        session.host_bipbop()
        from repro.core.items import Direction
        from repro.core.proxy import HlsAwareProxy

        proxy = HlsAwareProxy(
            session.network, session.origin, session.household.adsl_down_path()
        )
        paths = session.paths_for(Direction.DOWNLOAD)
        playlist = session.origin.video("bipbop").playlist("Q1")
        proxy.download(playlist.playlist_uri, paths, guard=guard)
        with pytest.raises(RuntimeError, match="single-use"):
            proxy.download(playlist.playlist_uri, paths, guard=guard)

    def test_bind_fault_schedule_drives_membership(self, quiet_location):
        from repro.core.items import Direction, Transaction
        from repro.core.scheduler import (
            IMMEDIATE_RETRY,
            TransactionRunner,
            make_policy,
        )
        from repro.core.uploader import photos_to_items

        session = OnloadSession.for_location(
            quiet_location, n_phones=2, seed=1
        )
        network = session.network
        paths = session.paths_for(Direction.UPLOAD)
        runner = TransactionRunner(
            network,
            paths,
            make_policy("GRD"),
            retry_policy=IMMEDIATE_RETRY,
        )
        items = photos_to_items(photos(12))
        runner.start(Transaction(items, name="churny-upload"))
        schedule = FaultSchedule(
            [
                PathFlapProcess(
                    paths[1].name, seed=3, mean_up_s=5.0, mean_down_s=3.0
                )
            ]
        )
        armed = bind_fault_schedule(
            runner, schedule, horizon=network.time + 600.0
        )
        assert armed
        while not runner.finished:
            if not network.step(max_time=network.time + 600.0):
                break
        result = runner.collect_result()
        assert len(result.records) == 12
        kinds = {e.kind for e in result.degradations}
        assert "path-fault" in kinds


class TestRejoinVeto:
    """The guard vetoes re-joins of paths that lost their authority.

    A fault schedule's ``up`` transition only says the physical link is
    back; whether the session layer may use it again depends on the cap
    tracker (§6) and the permit backend (§2.4). The scenario hunter
    found re-joins bypassing both — these pin the fix at guard level.
    """

    def run_guarded(self, session, n=6):
        from repro.core.items import Direction, Transaction
        from repro.core.scheduler import (
            IMMEDIATE_RETRY,
            TransactionRunner,
            make_policy,
        )
        from repro.core.uploader import photos_to_items

        network = session.network
        paths = session.paths_for(Direction.UPLOAD)
        runner = TransactionRunner(
            network,
            paths,
            make_policy("GRD"),
            retry_policy=IMMEDIATE_RETRY,
        )
        guard = session._make_guard()
        guard.attach(runner, paths)
        runner.start(Transaction(photos_to_items(photos(n))))
        while not runner.finished:
            if not network.step(max_time=network.time + 600.0):
                break
        assert runner.finished
        return runner, guard, paths

    def test_cap_dry_path_cannot_rejoin(self, quiet_location):
        session = OnloadSession.for_location(
            quiet_location, n_phones=1, seed=1, daily_budget_bytes=1 * MB
        )
        runner, guard, paths = self.run_guarded(session)
        phone = next(p for p in paths if p.device is not None)
        kinds = [e.kind for e in runner.degradations]
        assert "cap-exhausted" in kinds
        # The link coming back up does not refill the quota.
        worker = runner.add_path(phone.name)
        assert not worker.available
        assert runner.degradations[-1].kind == "rejoin-vetoed"
        result = runner.collect_result()
        assert len(result.records) == 6
        guard.finalize(result)
        assert runner.rejoin_gate is None

    def test_revoked_permit_vetoes_rejoin_while_congested(
        self, quiet_location
    ):
        # The cell is calm at grant time and congested from the moment
        # of revocation on: the gate's re-grant attempt is refused and
        # the path stays out.
        congested = {"now": False}
        server = PermitServer(
            utilization_fn=lambda cell, now: (
                0.95 if congested["now"] else 0.1
            )
        )
        session = OnloadSession.for_location(
            quiet_location,
            n_phones=1,
            seed=1,
            mode=OperatingMode.NETWORK_INTEGRATED,
            permit_server=server,
        )
        phone_name = session.household.phones[0].name

        def revoke_and_congest():
            congested["now"] = True
            server.revoke(phone_name)

        session.network.schedule(1.0, revoke_and_congest)
        runner, guard, paths = self.run_guarded(session)
        phone = next(p for p in paths if p.device is not None)
        assert "permit-revoked" in [e.kind for e in runner.degradations]
        worker = runner.add_path(phone.name)
        assert not worker.available
        assert runner.degradations[-1].kind == "rejoin-vetoed"

    def test_calm_cell_re_grants_and_path_rejoins(self, quiet_location):
        # Inverse control: same revocation, but the cell stays calm, so
        # the gate obtains a fresh permit and the re-join goes through.
        server = PermitServer(utilization_fn=lambda cell, now: 0.1)
        session = OnloadSession.for_location(
            quiet_location,
            n_phones=1,
            seed=1,
            mode=OperatingMode.NETWORK_INTEGRATED,
            permit_server=server,
        )
        phone_name = session.household.phones[0].name
        session.network.schedule(1.0, lambda: server.revoke(phone_name))
        runner, guard, paths = self.run_guarded(session)
        phone = next(p for p in paths if p.device is not None)
        worker = runner.add_path(phone.name)
        assert worker.available
        assert runner.degradations[-1].kind == "path-rejoin"
        assert server.has_valid_permit(
            phone.device.name, session.network.time
        )


class TestGuardLedgerBinding:
    """The guard's ledger binds obs to the trackers of guarded paths only.

    The pre-ledger guard bound the tracker of each phone on the transfer's
    path set; a phone the session knows but the transfer does not use
    must keep an unbound tracker, or its later metering would leak
    ``cap.*`` lines into the trace.
    """

    def test_unused_phone_keeps_unbound_tracker(self, quiet_location):
        from repro.core.items import Direction
        from repro.obs.capture import capture

        session = OnloadSession.for_location(
            quiet_location, n_phones=2, seed=1
        )
        used, unused = session.household.phones
        paths = session.paths_for(Direction.UPLOAD, max_phones=1)
        assert [p.device.name for p in paths if p.device] == [used.name]
        with capture() as handle:
            report = MultipartUploader(session.network).upload(
                photos(4), paths, guard=session._make_guard()
            )
            session.mobile_components[unused.name].cap_tracker.record_usage(
                1 * MB, session.network.time
            )
        assert report.photo_count == 4
        keys = {
            json.loads(line).get("key", "")
            for line in handle.export_lines()
        }
        assert f"cap.metered_bytes{{device={used.name}}}" in keys
        assert not any(unused.name in key for key in keys)
        assert (
            session.mobile_components[unused.name].cap_tracker._obs is None
        )
