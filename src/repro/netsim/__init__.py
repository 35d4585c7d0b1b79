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
