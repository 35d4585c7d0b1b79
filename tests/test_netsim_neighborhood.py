"""Multi-household neighbourhood topology."""

import pytest

from repro.core.items import Transaction, items_from_sizes
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.netsim.neighborhood import Neighborhood
from repro.netsim.topology import LocationProfile
from repro.util.units import MB, mbps


@pytest.fixture
def location():
    return LocationProfile(
        name="nbh-test",
        description="neighbourhood test",
        adsl_down_bps=mbps(3.0),
        adsl_up_bps=mbps(0.4),
        signal_dbm=-85.0,
        peak_utilization=0.4,
        measurement_hour=2.0,
    )


class TestTopology:
    def test_homes_built(self, location):
        neighborhood = Neighborhood(location, n_homes=4, phones_per_home=2)
        assert len(neighborhood.homes) == 4
        assert all(len(h.phones) == 2 for h in neighborhood.homes)
        ids = {h.home_id for h in neighborhood.homes}
        assert len(ids) == 4

    def test_all_wired_paths_share_dslam(self, location):
        neighborhood = Neighborhood(location, n_homes=3)
        for home in neighborhood.homes:
            path = neighborhood.wired_down_path(home)
            assert neighborhood.dslam_down in path.links
            assert home.adsl_down in path.links

    def test_phones_share_cell_deployment(self, location):
        neighborhood = Neighborhood(location, n_homes=4, phones_per_home=1)
        sectors = {
            home.phones[0].sector.name for home in neighborhood.homes
        }
        stations = {s.name for s in neighborhood.stations}
        assert len(stations) == location.n_stations
        assert sectors  # everyone attached somewhere in the shared set

    def test_oversubscription_ratio(self, location):
        neighborhood = Neighborhood(
            location, n_homes=30, dslam_backhaul_bps=mbps(30.0)
        )
        assert neighborhood.oversubscription_ratio() == pytest.approx(3.0)

    def test_validation(self, location):
        with pytest.raises(ValueError):
            Neighborhood(location, n_homes=0)
        with pytest.raises(ValueError):
            Neighborhood(location, n_homes=1, phones_per_home=-1)


class TestSharedContention:
    def test_dslam_bottleneck_shared_between_homes(self, location):
        # Two homes downloading through a backhaul smaller than the sum of
        # their lines: each gets about half.
        neighborhood = Neighborhood(
            location, n_homes=2, phones_per_home=0,
            dslam_backhaul_bps=mbps(3.0),
        )
        runners = []
        for home in neighborhood.homes:
            runner = TransactionRunner(
                neighborhood.network,
                [neighborhood.wired_down_path(home)],
                make_policy("GRD"),
            )
            runner.start(
                Transaction(
                    items_from_sizes([3 * MB], prefix=home.home_id)
                )
            )
            runners.append(runner)
        while not all(r.finished for r in runners):
            neighborhood.network.step(
                max_time=neighborhood.network.time + 600.0
            )
        times = [r.collect_result().total_time for r in runners]
        # Alone: 3 MB at min(3 Mbps line, 3 Mbps backhaul) = 8 s. Shared
        # backhaul: ~16 s each.
        assert all(t > 12.0 for t in times)

    def test_cell_contention_between_3gol_homes(self, location):
        # Two homes' phones on the same cell split the HSDPA channel; a
        # lone home's phone-only download is faster than when a rival
        # home's phone is saturating the same cell.
        single_cell = LocationProfile(
            name="nbh-single",
            description="one station, so rivals must share the sector",
            adsl_down_bps=mbps(3.0),
            adsl_up_bps=mbps(0.4),
            signal_dbm=-85.0,
            n_stations=1,
            peak_utilization=0.4,
            measurement_hour=2.0,
        )

        def phone_only_time(rivals):
            neighborhood = Neighborhood(
                single_cell, n_homes=1 + rivals, phones_per_home=1, seed=4
            )
            target = neighborhood.homes[0]
            runners = []
            for home in neighborhood.homes:
                runner = TransactionRunner(
                    neighborhood.network,
                    [neighborhood.phone_down_path(home, home.phones[0])],
                    make_policy("GRD"),
                )
                runner.start(
                    Transaction(
                        items_from_sizes([4 * MB] * 2, prefix=home.home_id)
                    )
                )
                runners.append(runner)
            while not all(r.finished for r in runners):
                neighborhood.network.step(
                    max_time=neighborhood.network.time + 600.0
                )
            return runners[0].collect_result().total_time

        alone = phone_only_time(rivals=0)
        contended = phone_only_time(rivals=3)
        assert contended > alone
