"""Flow-level network simulator used as the substrate for every experiment.

The paper evaluates 3GOL on real ADSL lines, real HSPA cells and real
phones; none of those are available here, so this package provides the
closest synthetic equivalent: a *fluid* (flow-level) simulator where TCP
transfers are modelled as fluid flows sharing link capacity max-min fairly,
links can have fixed, piecewise or stochastic time-varying capacity, and
paths compose links in series with an RTT and an optional 3G radio state
machine in front.

Main entry points:

* :class:`repro.netsim.fluid.FluidNetwork` — the simulation loop.
* :class:`repro.netsim.path.NetworkPath` — a transfer path (chain of links).
* :class:`repro.netsim.topology.Household` — builders wiring up the 3GOL
  scenario (gateway + ADSL line + phones + cell + origin).
"""

from repro.netsim.engine import EventQueue, ScheduledEvent
from repro.netsim.faults import (
    FaultEvent,
    FaultProcess,
    FaultSchedule,
    LatencySpikeProcess,
    Outage,
    PathFlapProcess,
    RadioDropProcess,
    WifiDepartureProcess,
)
from repro.netsim.link import Link, PiecewiseLink, StochasticLink, TIME_INFINITY
from repro.netsim.fluid import FluidNetwork, Flow
from repro.netsim.path import NetworkPath
from repro.netsim.adsl import AdslLine, sync_rate_for_distance
from repro.netsim.wifi import WifiNetwork, WIFI_80211G, WIFI_80211N
from repro.netsim.radio import RrcState, RadioStateMachine, RrcParameters
from repro.netsim.cellular import (
    BaseStation,
    CellSector,
    CellularDevice,
    HspaParameters,
)
from repro.netsim.diurnal import DiurnalProfile, MOBILE_PROFILE, WIRED_PROFILE
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "FaultEvent",
    "FaultProcess",
    "FaultSchedule",
    "LatencySpikeProcess",
    "Outage",
    "PathFlapProcess",
    "RadioDropProcess",
    "WifiDepartureProcess",
    "Link",
    "PiecewiseLink",
    "StochasticLink",
    "TIME_INFINITY",
    "FluidNetwork",
    "Flow",
    "NetworkPath",
    "AdslLine",
    "sync_rate_for_distance",
    "WifiNetwork",
    "WIFI_80211G",
    "WIFI_80211N",
    "RrcState",
    "RadioStateMachine",
    "RrcParameters",
    "BaseStation",
    "CellSector",
    "CellularDevice",
    "HspaParameters",
    "DiurnalProfile",
    "MOBILE_PROFILE",
    "WIRED_PROFILE",
    "Household",
    "HouseholdConfig",
    "LocationProfile",
]
