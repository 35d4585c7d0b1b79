"""The max-min fair fluid simulator — the substrate of everything."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fluid import Flow, FluidNetwork, completion_epsilon
from repro.netsim.link import Link, PiecewiseLink
from repro.util.units import MB, mbps
from tests.maxmin_reference import max_min_allocation


def make_flow(size, links, **kwargs):
    return Flow(size, links, **kwargs)


class TestMaxMinAllocation:
    def test_single_flow_gets_bottleneck(self):
        chain = [Link("a", 10.0), Link("b", 4.0)]
        flow = make_flow(100.0, chain)
        rates = max_min_allocation([flow], 0.0)
        assert rates[flow] == pytest.approx(4.0)

    def test_equal_split_on_shared_link(self):
        shared = Link("s", 9.0)
        flows = [make_flow(100.0, [shared]) for _ in range(3)]
        rates = max_min_allocation(flows, 0.0)
        for flow in flows:
            assert rates[flow] == pytest.approx(3.0)

    def test_water_filling_redistributes(self):
        # Flow A limited to 1 by its private link; B shares the 10-link
        # with A and should receive the leftover 9.
        shared = Link("shared", 10.0)
        private = Link("private", 1.0)
        a = make_flow(100.0, [shared, private])
        b = make_flow(100.0, [shared])
        rates = max_min_allocation([a, b], 0.0)
        assert rates[a] == pytest.approx(1.0)
        assert rates[b] == pytest.approx(9.0)

    def test_rate_cap_honoured(self):
        link = Link("l", 10.0)
        capped = make_flow(100.0, [link], rate_cap_bps=2.0)
        free = make_flow(100.0, [link])
        rates = max_min_allocation([capped, free], 0.0)
        assert rates[capped] == pytest.approx(2.0)
        assert rates[free] == pytest.approx(8.0)

    def test_zero_capacity_link_freezes_flows(self):
        dead = Link("dead", 0.0)
        flow = make_flow(100.0, [dead])
        rates = max_min_allocation([flow], 0.0)
        assert rates[flow] == 0.0

    def test_no_link_overloaded(self):
        # A small mesh: assert feasibility of the allocation.
        l1, l2, l3 = Link("1", 7.0), Link("2", 5.0), Link("3", 11.0)
        flows = [
            make_flow(1.0, [l1, l2]),
            make_flow(1.0, [l2, l3]),
            make_flow(1.0, [l1, l3]),
            make_flow(1.0, [l3]),
        ]
        rates = max_min_allocation(flows, 0.0)
        for link in (l1, l2, l3):
            total = sum(
                rates[f] for f in flows if link in f.links
            )
            assert total <= link.capacity_at(0.0) * (1 + 1e-9)

    def test_empty_flow_list(self):
        assert max_min_allocation([], 0.0) == {}


class TestFluidNetworkBasics:
    def test_single_transfer_timing(self):
        net = FluidNetwork()
        done = []
        net.add_flow(
            make_flow(
                1 * MB, [Link("l", mbps(8))],
                on_complete=lambda f, t: done.append(t),
            )
        )
        net.run()
        assert done == [pytest.approx(1.0)]

    def test_delayed_start(self):
        net = FluidNetwork()
        done = []
        net.add_flow(
            make_flow(
                1 * MB, [Link("l", mbps(8))],
                on_complete=lambda f, t: done.append(t),
            ),
            delay=2.5,
        )
        net.run()
        assert done == [pytest.approx(3.5)]

    def test_two_flows_share_then_speed_up(self):
        # Two equal flows on an 8 Mbps link: first completes at 2 s
        # (shared), second at 3 s (full rate for its second half).
        net = FluidNetwork()
        link = Link("l", mbps(8))
        done = []
        net.add_flow(make_flow(1 * MB, [link], on_complete=lambda f, t: done.append(t)))
        net.add_flow(make_flow(2 * MB, [link], on_complete=lambda f, t: done.append(t)))
        net.run()
        assert done[0] == pytest.approx(2.0)
        assert done[1] == pytest.approx(3.0)

    def test_zero_byte_flow_completes_immediately(self):
        net = FluidNetwork()
        done = []
        net.add_flow(
            make_flow(0.0, [Link("l", 1.0)], on_complete=lambda f, t: done.append(t))
        )
        net.run()
        assert done == [0.0]

    def test_abort_keeps_partial_progress(self):
        net = FluidNetwork()
        link = Link("l", mbps(8))
        aborted = []
        flow = make_flow(10 * MB, [link], on_abort=lambda f, t: aborted.append(t))
        net.add_flow(flow)
        net.schedule(2.0, lambda: net.abort_flow(flow))
        net.run()
        assert aborted == [pytest.approx(2.0)]
        assert flow.transferred_bytes == pytest.approx(2 * MB)
        assert flow.is_done

    def test_abort_pending_flow_never_starts(self):
        net = FluidNetwork()
        started = []
        flow = make_flow(
            1 * MB, [Link("l", mbps(8))],
            on_complete=lambda f, t: started.append(t),
        )
        net.add_flow(flow, delay=5.0)
        net.abort_flow(flow)
        net.run()
        assert started == []
        assert flow.transferred_bytes == 0.0

    def test_cannot_add_finished_flow(self):
        net = FluidNetwork()
        flow = make_flow(1.0, [Link("l", 1.0)])
        net.abort_flow(flow)
        with pytest.raises(ValueError):
            net.add_flow(flow)

    def test_cannot_add_active_flow_twice(self):
        # Regression: a second add registered the flow twice and run()
        # ended in "exceeded max_steps".
        net = FluidNetwork()
        done = []
        flow = make_flow(
            1 * MB, [Link("l", mbps(8))],
            on_complete=lambda f, t: done.append(t),
        )
        net.add_flow(flow)
        with pytest.raises(ValueError, match="already added"):
            net.add_flow(flow)
        with pytest.raises(ValueError, match="already added"):
            net.add_flow(flow, delay=1.0)
        net.run()
        assert done == [pytest.approx(1.0)]

    def test_cannot_add_pending_flow_twice(self):
        # Regression: two delayed starts activated the flow twice when it
        # was still running at the second one.
        net = FluidNetwork()
        done = []
        flow = make_flow(
            1 * MB, [Link("l", mbps(8))],
            on_complete=lambda f, t: done.append(t),
        )
        net.add_flow(flow, delay=0.5)
        with pytest.raises(ValueError, match="already added"):
            net.add_flow(flow, delay=0.7)
        with pytest.raises(ValueError, match="already added"):
            net.add_flow(flow)
        net.run()
        assert done == [pytest.approx(1.5)]

    def test_link_bytes_accounting(self):
        net = FluidNetwork()
        a, b = Link("a", mbps(8)), Link("b", mbps(8))
        net.add_flow(make_flow(1 * MB, [a, b]))
        net.run()
        assert net.link_bytes["a"] == pytest.approx(1 * MB)
        assert net.link_bytes["b"] == pytest.approx(1 * MB)


class TestTimeVaryingCapacity:
    def test_piecewise_capacity_integrated_exactly(self):
        # 8 Mbps for 1 s then 4 Mbps: a 1.5 MB flow needs 1 MB + 0.5 MB
        # -> 1 s + 1 s = 2 s.
        net = FluidNetwork()
        link = PiecewiseLink("p", [(0.0, mbps(8)), (1.0, mbps(4))])
        done = []
        net.add_flow(make_flow(1.5 * MB, [link], on_complete=lambda f, t: done.append(t)))
        net.run()
        assert done == [pytest.approx(2.0)]

    def test_capacity_drop_to_zero_stalls_then_resumes(self):
        net = FluidNetwork()
        link = PiecewiseLink(
            "p", [(0.0, mbps(8)), (0.5, 0.0), (2.0, mbps(8))]
        )
        done = []
        net.add_flow(make_flow(1 * MB, [link], on_complete=lambda f, t: done.append(t)))
        net.run()
        # 0.5 MB before the outage, 0.5 MB after it ends at t=2.
        assert done == [pytest.approx(2.5)]

    def test_timer_during_transfer(self):
        net = FluidNetwork()
        link = Link("l", mbps(8))
        events = []
        net.add_flow(make_flow(2 * MB, [link], on_complete=lambda f, t: events.append(("done", t))))
        net.schedule(1.0, lambda: events.append(("timer", net.time)))
        net.run()
        assert events == [("timer", pytest.approx(1.0)), ("done", pytest.approx(2.0))]


class TestCallbackReentrancy:
    def test_completion_callback_can_add_flow(self):
        net = FluidNetwork()
        link = Link("l", mbps(8))
        done = []

        def chain(flow, t):
            done.append(t)
            if len(done) < 3:
                net.add_flow(
                    make_flow(1 * MB, [link], on_complete=chain)
                )

        net.add_flow(make_flow(1 * MB, [link], on_complete=chain))
        net.run()
        assert done == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_run_until_bounds_time(self):
        net = FluidNetwork()
        net.add_flow(make_flow(100 * MB, [Link("l", mbps(8))]))
        final = net.run(until=3.0)
        assert final == pytest.approx(3.0)
        assert net.active_flows  # still in flight


class TestCompletionEpsilon:
    def test_absolute_floor(self):
        assert completion_epsilon(10.0) == pytest.approx(1e-3)

    def test_scales_with_size(self):
        assert completion_epsilon(1e13) == pytest.approx(1e4)

    def test_no_zero_progress_livelock(self):
        # Regression: float residue after a completion-boundary step must
        # not leave the flow alive (previously looped forever at loc3).
        net = FluidNetwork(start_time=79214.33936045435)
        link = PiecewiseLink(
            "p", [(0.0, 1956013.0), (79216.0, 2538667.0)]
        )
        done = []
        net.add_flow(
            make_flow(2 * MB, [link], on_complete=lambda f, t: done.append(t)),
            delay=0.68,
        )
        net.run()
        assert len(done) == 1


class TestStepDrainedReturn:
    def test_final_completing_step_returns_false(self):
        # Regression: the step that finishes the last flow (with no timers
        # left) must report "drained" instead of demanding one extra call.
        net = FluidNetwork()
        net.add_flow(make_flow(1 * MB, [Link("l", mbps(8))]))
        results = []
        for _ in range(10):
            alive = net.step()
            results.append(alive)
            if not alive:
                break
        assert results[-1] is False
        assert not net.active_flows
        assert net.time == pytest.approx(1.0)

    def test_drained_step_advances_to_max_time(self):
        # step() moves the clock to the bound even when idle (unlike
        # run(), which leaves the clock for advance_to to handle).
        net = FluidNetwork()
        assert net.step(max_time=5.0) is False
        assert net.time == 5.0
        assert net.step() is False  # unbounded + drained: no progress
        assert net.time == 5.0

    def test_run_leaves_clock_when_drained(self):
        net = FluidNetwork()
        assert net.run(until=7.0) == 0.0
        assert net.advance_to(7.0) == 7.0


class _UnboundedLink(Link):
    """A link of infinite capacity (no constructor accepts ``inf``)."""

    def __init__(self, name):
        super().__init__(name, 0.0)

    def capacity_at(self, time):
        return math.inf


def assert_matches_reference(net, context=""):
    """The stepper's rates equal the brute-force reference bit for bit."""
    net._recompute_rates()
    reference = max_min_allocation(list(net.active_flows), net.time)
    for flow in net.active_flows:
        assert flow.current_rate_bps == reference[flow], (
            f"{context}: {flow} allocator {flow.current_rate_bps!r} != "
            f"reference {reference[flow]!r}"
        )
        assert net._arr_rate[flow._slot] == reference[flow]


#: Examples for the allocator property test: 200 in tier-1, or the
#: loaded hypothesis profile's count when larger (``--hypothesis-profile
#: deep``, registered in ``tests/conftest.py``).
ALLOCATOR_EXAMPLES = max(200, settings().max_examples)


@st.composite
def near_slack_links(draw, tag, links):
    """Flows over one shared link whose members' private bounds sum to
    ``C * (1 + k * 1e-9)`` for a small ``k`` of either sign: the edge of
    the allocator's cannot-bind pruning. Equal bounds may be nudged
    within ``1e-12`` of each other; a zero-capacity link gets members
    bound at zero. Each member's bound is a private link or a rate cap,
    and it may also cross one of ``links``."""
    capacity = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([1e6, 3e6]),
            st.floats(min_value=1e3, max_value=1e8),
        )
    )
    members = draw(st.integers(2, 5))
    k = draw(st.integers(-3, 3))
    total = capacity * (1.0 + k * 1e-9)
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.5, max_value=2.0),
                min_size=members,
                max_size=members,
            ),
        )
    )
    if weights is None:
        nudges = draw(
            st.lists(
                st.sampled_from([0.0, 5e-13, -5e-13]),
                min_size=members,
                max_size=members,
            )
        )
        bounds = [total / members * (1.0 + nudge) for nudge in nudges]
    else:
        bounds = [total * w / sum(weights) for w in weights]
    shared = Link(f"slack-{tag}", capacity)
    flows = []
    for i, bound in enumerate(bounds):
        chain = [shared]
        extra = draw(st.none() | st.sampled_from(range(len(links))))
        if extra is not None:
            chain.append(links[extra])
        if draw(st.booleans()):
            flows.append(make_flow(1e6, chain, rate_cap_bps=bound))
        else:
            chain.insert(0, Link(f"slack-{tag}-{i}", bound))
            flows.append(make_flow(1e6, chain))
    return flows


@st.composite
def allocation_topologies(draw):
    """Links (zero, infinite, tied or arbitrary capacity), flows over
    chains that may repeat a link, caps that may equal a link's fair
    share or sit within the share tolerance of it, shared links at the
    edge of binding (:func:`near_slack_links`), and an abort order."""
    capacities = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(math.inf),
                st.sampled_from([1e6, 2e6, 3e6]),
                st.floats(min_value=1e3, max_value=1e8),
            ),
            min_size=1,
            max_size=5,
        )
    )
    links = [
        _UnboundedLink(f"l{j}") if math.isinf(c) else Link(f"l{j}", c)
        for j, c in enumerate(capacities)
    ]
    link_index = st.integers(min_value=0, max_value=len(links) - 1)
    specs = draw(
        st.lists(
            st.tuples(
                st.lists(link_index, min_size=1, max_size=4),
                st.one_of(
                    st.none(),
                    st.floats(min_value=1e3, max_value=1e8),
                    st.tuples(
                        link_index,
                        st.integers(1, 4),
                        st.sampled_from([0.0, 5e-13, -5e-13]),
                    ),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    flows = []
    for chain, cap in specs:
        if isinstance(cap, tuple):
            # A cap at (or within the tolerance of) a link's fair share
            # among k flows.
            j, k, nudge = cap
            share = capacities[j] / k
            cap = None if math.isinf(share) else share * (1.0 + nudge)
        flows.append(make_flow(1e6, [links[j] for j in chain], rate_cap_bps=cap))
    for tag in range(draw(st.integers(0, 2))):
        flows.extend(draw(near_slack_links(tag, links)))
    aborts = draw(st.lists(st.integers(min_value=0, max_value=11), max_size=6))
    return flows, aborts


def _member_need(link, active, now):
    """What ``link``'s live members can take at most: each one's private
    bound (its rate cap and every link of its chain no other live flow
    crosses), counted once per occurrence of ``link`` in its chain."""
    crossing = {}
    for flow in active:
        for chain_link in flow.links:
            crossing.setdefault(chain_link, set()).add(flow)
    need = 0.0
    for flow in active:
        if link not in flow.links:
            continue
        bound = math.inf if flow.rate_cap_bps is None else flow.rate_cap_bps
        for chain_link in flow.links:
            if crossing[chain_link] == {flow}:
                bound = min(bound, chain_link.capacity_at(now))
        need += bound * flow.links.count(link)
    return need


class TestAllocatorEventSequences:
    """The allocator against the reference after every step of a drawn
    event sequence: the kept answer must absorb arrivals, departures and
    capacity changes exactly, and give way to the water-fill whenever a
    change could make a shared link bind or bring two bounds within the
    share tolerance of each other."""

    #: Nudges that keep two bounds apart (``3e-12``) or tie them within
    #: the share tolerance.
    NUDGES = (0.0, 0.0, 5e-13, -5e-13, 3e-12)
    #: What happens between checks, stepping twice as often as the rest.
    EVENTS = ("step", "step", "add", "abort", "set", "edge")

    @given(data=st.data())
    @settings(max_examples=ALLOCATOR_EXAMPLES, deadline=None)
    def test_every_step_matches_reference(self, data):
        from repro.netsim.link import StochasticLink
        from repro.netsim.stochastic import LognormalProcess

        draw = data.draw
        base = draw(st.sampled_from([1e6, 3e6]), label="base")

        def near(multiple):
            nudge = draw(st.sampled_from(self.NUDGES))
            return base * multiple * (1.0 + nudge)

        fixed = Link(
            "fixed", draw(st.sampled_from([0.0, 2 * base, 8 * base]))
        )
        shared = [
            fixed,
            PiecewiseLink(
                "piecewise",
                [(0.0, 3 * base), (0.3, base), (0.9, 0.0), (1.2, 6 * base)],
            ),
            StochasticLink(
                "stochastic",
                4 * base,
                LognormalProcess(
                    seed=draw(st.integers(0, 9)), interval=0.4, sigma=0.3
                ),
            ),
        ]
        net = FluidNetwork()
        flows = []

        def add():
            multiple = draw(st.sampled_from([0.5, 1.0, 1.0, 2.0]))
            chain = [
                shared[j]
                for j in draw(st.lists(st.integers(0, 2), max_size=3))
            ]
            cap = None
            if not chain or draw(st.booleans()):
                chain.insert(0, Link(f"own-{len(flows)}", near(multiple)))
                if draw(st.booleans()):
                    chain.append(chain[0])  # a repeated private link
            else:
                cap = near(multiple)
            flow = make_flow(
                draw(st.sampled_from([2e4, 1e5, 4e5])), chain, rate_cap_bps=cap
            )
            flows.append(flow)
            net.add_flow(flow, delay=draw(st.sampled_from([0.0, 0.1, 0.35])))

        for _ in range(draw(st.integers(1, 6))):
            add()
        for event in range(draw(st.integers(1, 30))):
            kind = draw(st.sampled_from(self.EVENTS))
            active = net.active_flows
            if kind == "step":
                net.step()
            elif kind == "add":
                add()
            elif kind == "abort" and flows:
                net.abort_flow(draw(st.sampled_from(flows)))  # any state
            elif kind == "set":
                # The fixed shared link, or a flow's own link.
                own = [f.links[0] for f in active if f.links[0] not in shared]
                link = draw(st.sampled_from([fixed, *own]))
                link.set_capacity(
                    near(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0])))
                )
            elif kind == "edge":
                # The fixed link at the edge of binding: its members'
                # bounds sum to C * (1 + k * 1e-9).
                need = _member_need(fixed, active, net.time)
                if 0.0 < need < math.inf:
                    k = draw(st.integers(-3, 3))
                    fixed.set_capacity(need / (1.0 + k * 1e-9))
            assert_matches_reference(net, f"event {event} ({kind})")
        for step in range(40):
            if not net.step():
                break
            assert_matches_reference(net, f"drain step {step}")


class TestIncrementalAllocatorEquivalence:
    """The stepper's event-driven allocator vs the brute-force reference."""

    def _topology(self, rng, n_flows):
        from repro.util.units import kbps

        links = [
            Link(f"shared-{j}", mbps(1.0 + 3.0 * rng.random()))
            for j in range(rng.randint(1, 4))
        ]
        flows = []
        for i in range(n_flows):
            chain = [Link(f"acc-{i}", mbps(0.3 + 2.0 * rng.random()))]
            chain.extend(rng.sample(links, rng.randint(0, len(links))))
            cap = kbps(100.0 + 900.0 * rng.random()) if rng.random() < 0.4 else None
            flows.append(make_flow(1e6, chain, rate_cap_bps=cap))
        return flows

    @pytest.mark.parametrize("vector_min", [2, 10**9])
    def test_matches_reference_exactly(self, vector_min, monkeypatch):
        # The allocation must match the reference whether the stepper
        # moves bytes and retires flows on its vectorized or scalar path.
        import random

        import repro.netsim.fluid as fluid_mod

        monkeypatch.setattr(fluid_mod, "VECTOR_MIN_FLOWS", vector_min)
        rng = random.Random(20260807)
        for trial in range(50):
            net = FluidNetwork()
            for flow in self._topology(rng, rng.randint(1, 60)):
                net.add_flow(flow)
            assert_matches_reference(net, f"trial {trial}")
            for until in (2.0, 8.0, 30.0):
                net.advance_to(until)
                assert_matches_reference(net, f"trial {trial} at {until}s")

    def test_equivalence_holds_across_membership_churn(self):
        import random

        rng = random.Random(97)
        net = FluidNetwork()
        flows = self._topology(rng, 40)
        for flow in flows:
            net.add_flow(flow)
        for victim in flows[3::4]:
            net.abort_flow(victim)
            assert_matches_reference(net, f"after aborting {victim}")

    @given(topology=allocation_topologies())
    @settings(max_examples=ALLOCATOR_EXAMPLES, deadline=None)
    def test_random_topologies_with_churn(self, topology):
        flows, aborts = topology
        net = FluidNetwork()
        for flow in flows:
            net.add_flow(flow)
        assert_matches_reference(net, "initial")
        for index in aborts:
            active = net.active_flows
            if not active:
                break
            net.abort_flow(active[index % len(active)])
            assert_matches_reference(net, f"after abort {index}")

    def test_one_saturated_link_freezes_everyone(self):
        # One round: every flow is frozen by the shared link at once.
        shared = Link("shared", mbps(10.0))
        net = FluidNetwork()
        for i in range(50):
            net.add_flow(make_flow(1e6, [Link(f"acc-{i}", mbps(2.0)), shared]))
        assert_matches_reference(net, "one round")
        assert {f.current_rate_bps for f in net.active_flows} == {mbps(10.0) / 50}


class TestPrivateBoundFold:
    """Cases the fold of private columns into one bound per flow creates.

    A link column crossed by one live flow acts on it like a rate cap, so
    each flow's cap and private columns fold into one sorted bound; only
    columns shared by two or more live flows are water-filled.
    """

    def test_column_drops_to_one_member_during_fill(self):
        # A is bound privately at 1 and frozen first; the shared column
        # then has B alone and gives it the 3 left.
        shared = Link("s", 4.0)
        a = make_flow(100.0, [Link("a", 1.0), shared])
        b = make_flow(100.0, [Link("b", 5.0), shared])
        net = FluidNetwork()
        net.add_flow(a)
        net.add_flow(b)
        assert_matches_reference(net, "two then one")
        assert (a.current_rate_bps, b.current_rate_bps) == (1.0, 3.0)

    @pytest.mark.parametrize("nudge", [5e-13, -5e-13, 0.0])
    def test_bound_tied_with_shared_share(self, nudge):
        # A's cap lies within the share tolerance of the shared column's
        # fair share among three: one round freezes all three.
        shared = Link("s", 6e6)
        cap = 2e6 * (1.0 + nudge)
        flows = [make_flow(1e6, [shared], rate_cap_bps=cap)]
        flows += [
            make_flow(1e6, [Link(f"p{i}", 9e6), shared]) for i in range(2)
        ]
        net = FluidNetwork()
        for flow in flows:
            net.add_flow(flow)
        assert_matches_reference(net, f"nudge {nudge}")
        assert len({flow.current_rate_bps for flow in flows}) == 1

    def test_flow_with_only_private_links(self):
        # Every link of the first flow is its own: its rate is their
        # minimum, next to a pair sharing a link of their own.
        alone = make_flow(100.0, [Link("x", 7.0), Link("y", 3.0)])
        shared = Link("s", 8.0)
        pair = [make_flow(100.0, [shared]) for _ in range(2)]
        net = FluidNetwork()
        for flow in (alone, *pair):
            net.add_flow(flow)
        assert_matches_reference(net, "private only")
        assert alone.current_rate_bps == 3.0
        assert {flow.current_rate_bps for flow in pair} == {4.0}

    def test_cap_equal_to_access_capacity(self):
        shared = Link("s", 10.0)
        capped = make_flow(100.0, [Link("a", 2.5), shared], rate_cap_bps=2.5)
        other = make_flow(100.0, [Link("b", 9.0), shared])
        net = FluidNetwork()
        net.add_flow(capped)
        net.add_flow(other)
        assert_matches_reference(net, "cap at access")
        assert (capped.current_rate_bps, other.current_rate_bps) == (2.5, 7.5)

    def test_set_capacity_between_steps_changes_allocation(self):
        # A repeat allocation is skipped only when every live capacity is
        # unchanged; a fixed link's set_capacity is such a change.
        shared = Link("s", mbps(8.0))
        flows = [
            make_flow(10 * MB, [Link(f"a{i}", mbps(6.0)), shared])
            for i in range(2)
        ]
        net = FluidNetwork()
        for flow in flows:
            net.add_flow(flow)
        for at in (1.0, 2.0, 3.0):
            net.schedule(at, lambda: None)
        net.step()
        assert [f.current_rate_bps for f in flows] == [mbps(4.0)] * 2
        net.step()  # a timer, nothing changed: the last rates stand
        assert [f.current_rate_bps for f in flows] == [mbps(4.0)] * 2
        shared.set_capacity(mbps(2.0))
        net.step()
        assert [f.current_rate_bps for f in flows] == [mbps(1.0)] * 2
        assert_matches_reference(net, "after set_capacity")

    def test_unstarted_flows_leave_allocation_clean(self):
        # Aborting a pending flow or finishing a zero-byte one changes no
        # membership, so the allocator setup stays valid.
        net = FluidNetwork()
        net.add_flow(make_flow(1 * MB, [Link("l", mbps(8))]))
        net._recompute_rates()
        pending = make_flow(1 * MB, [Link("m", mbps(8))])
        net.add_flow(pending, delay=1.0)
        net.abort_flow(pending)
        net.add_flow(make_flow(0.0, [Link("z", mbps(8))]))
        assert not net._alloc_dirty


class TestCannotBindPruning:
    """A shared link whose members' bounds sum below its capacity cannot
    bind and is left out of the water-fill."""

    def test_repeated_link_counts_its_flow_per_occurrence(self):
        # A crosses the shared link twice, so its 3 takes 6 of the 9: the
        # bounds sum to 3 + 3 + 5 = 11 > 9, and the link binds B at 3.
        # Counting A once (3 + 5 = 8 <= 9) would leave B at 5.
        shared = Link("s", 9.0)
        a = make_flow(100.0, [Link("a", 3.0), shared, shared])
        b = make_flow(100.0, [Link("b", 5.0), shared])
        net = FluidNetwork()
        net.add_flow(a)
        net.add_flow(b)
        assert_matches_reference(net, "repeated link")
        assert (a.current_rate_bps, b.current_rate_bps) == (3.0, 3.0)

    def test_slack_link_leaves_every_flow_at_its_bound(self):
        shared = Link("s", mbps(200.0))
        flows = [
            make_flow(1e6, [Link(f"a{i}", mbps(1.0 + i / 8)), shared])
            for i in range(30)
        ]
        net = FluidNetwork()
        for flow in flows:
            net.add_flow(flow)
        assert_matches_reference(net, "slack")
        assert [f.current_rate_bps for f in flows] == [
            mbps(1.0 + i / 8) for i in range(30)
        ]


class TestKeptAllocation:
    """While no shared link can bind, the allocator applies arrivals,
    departures and capacity changes to its last answer instead of
    water-filling again."""

    #: Most water-fills the slack scenario below may run. Each costs
    #: O(n log n) over the live flows, where the kept update costs
    #: O(log n) per change; running one per event would multiply the
    #: allocator's share of an engine step.
    MAX_WATER_FILLS = 2
    #: Most full member sums of the shared bottleneck the scenario may
    #: run (58 today): one after each water-fill and after each
    #: departure that an arrival or a capacity change follows.
    #: Re-summing every touched column instead takes 237 here.
    MAX_FULL_SUMS = 70

    def test_slack_scenario_rarely_water_fills(self, monkeypatch):
        from repro.util.units import kbps

        calls = {"allocate": 0, "fill": 0, "rebuild": 0}
        # Full sums of a column's need, and those in an allocation that
        # saw no arrival and no capacity change (departures only).
        sums = {"full": 0, "extended": 0, "after_departures": 0}
        growth = {"arrivals": 0, "capacity": None, "can_grow": False}

        class CountingNeeds(dict):
            def __setitem__(self, col, entry):
                if col in self:
                    sums["extended"] += 1
                else:
                    sums["full"] += 1
                    if not growth["can_grow"]:
                        sums["after_departures"] += 1
                super().__setitem__(col, entry)

        def counted(name, method):
            def wrapper(self):
                calls[name] += 1
                return method(self)

            return wrapper

        for name, attr in (
            ("allocate", "_recompute_rates"),
            ("fill", "_water_fill"),
            ("rebuild", "_rebuild_alloc_caches"),
        ):
            monkeypatch.setattr(
                FluidNetwork, attr, counted(name, getattr(FluidNetwork, attr))
            )
        register = FluidNetwork._register
        allocate = FluidNetwork._recompute_rates

        def counted_register(self, flow):
            growth["arrivals"] += 1
            register(self, flow)

        def noted_allocate(self):
            capacity = bottleneck.capacity_at(self.time)
            growth["can_grow"] = (
                growth["arrivals"] > 0 or capacity != growth["capacity"]
            )
            growth["capacity"] = capacity
            allocate(self)
            growth["arrivals"] = 0

        monkeypatch.setattr(FluidNetwork, "_register", counted_register)
        monkeypatch.setattr(FluidNetwork, "_recompute_rates", noted_allocate)
        net = FluidNetwork()
        net._needs = CountingNeeds()
        # 120 flows bound at most 5 Mbps each: the bottleneck's capacity
        # always exceeds their 600 Mbps sum, and changes twice.
        bottleneck = PiecewiseLink(
            "bottleneck",
            [(0.0, mbps(800.0)), (2.0, mbps(650.0)), (4.0, mbps(900.0))],
        )
        flows = []
        for i in range(120):
            access = Link(f"access-{i}", mbps(2.0 + (i % 7) * 0.5))
            cap = kbps(900.0 + (i % 3) * 150.0) if i % 5 == 0 else None
            flow = make_flow(
                200_000.0 + (i * 37 % 97) * 8_000.0,
                (access, bottleneck),
                rate_cap_bps=cap,
            )
            net.add_flow(flow, delay=(i * 53 % 120) * 0.05)
            flows.append(flow)
        for k in range(20):
            net.schedule(0.25 * (k + 1), lambda: None)
        net.run()
        assert all(flow.completed_at is not None for flow in flows)
        assert calls["allocate"] > 200
        assert calls["fill"] <= self.MAX_WATER_FILLS, calls
        assert calls["rebuild"] <= self.MAX_WATER_FILLS, calls
        # A departure cannot raise a need, so it never starts a sum over.
        assert sums["after_departures"] == 0, sums
        assert sums["full"] <= self.MAX_FULL_SUMS, sums
        assert sums["extended"], sums  # arrivals extend cached sums


def assert_needs_fresh(net, context=""):
    """Each cached need is a fresh left-to-right sum of the kept bounds
    of its column's current members."""
    if net._kept_bounds is None:
        assert not net._needs, f"{context}: needs cached without a kept answer"
    for col, (need, count) in net._needs.items():
        members = net._col_members[col]
        assert count == len(members) >= 2, f"{context}: column {col}"
        fresh = 0.0
        for flow in members:
            fresh += flow._bound
        assert need == fresh, f"{context}: column {col} {need!r} != {fresh!r}"


class TestNeedCache:
    """The kept update caches each shared column's need, the
    left-to-right sum of its members' bounds: an arrival extends the
    last sum, and a member's bound change, a departure or a water-fill
    starts it over."""

    #: Capacities, in units of ``base``, that a ``set`` event draws:
    #: mostly slack for flows bound at ``base`` or less, sometimes tight
    #: enough to bind.
    SCALES = (0.05, 0.3, 1.0, 4.0, 30.0)

    @given(data=st.data())
    @settings(max_examples=ALLOCATOR_EXAMPLES, deadline=None)
    def test_cached_needs_are_fresh_sums(self, data):
        draw = data.draw
        base = draw(st.sampled_from([1e6, 3e6]), label="base")
        shared = [
            Link("wide", base * draw(st.sampled_from([4.0, 30.0]))),
            Link("narrow", base * draw(st.sampled_from([2.0, 6.0]))),
            PiecewiseLink(
                "fade",
                [(0.0, 20 * base), (0.4, 3 * base), (0.8, 40 * base)],
            ),
        ]
        net = FluidNetwork()
        flows = []

        def add():
            chain = [
                shared[j]
                for j in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
            ]
            own = draw(st.booleans())
            if own:
                scale = draw(st.sampled_from([0.1, 0.5, 1.0]))
                chain.insert(0, Link(f"own-{len(flows)}", base * scale))
            cap = None
            if not own or draw(st.booleans()):
                cap = base * draw(st.sampled_from([0.1, 0.2, 0.7]))
            flow = make_flow(
                draw(st.sampled_from([2e4, 1e5, 4e5])), chain, rate_cap_bps=cap
            )
            flows.append(flow)
            net.add_flow(flow, delay=draw(st.sampled_from([0.0, 0.0, 0.2])))

        for _ in range(draw(st.integers(2, 8))):
            add()
        for event in range(draw(st.integers(1, 40))):
            kind = draw(
                st.sampled_from(("step", "step", "add", "add", "abort", "set"))
            )
            if kind == "step":
                net.step()
            elif kind == "add":
                add()
            elif kind == "abort":
                net.abort_flow(draw(st.sampled_from(flows)))  # any state
            elif kind == "set":
                own_links = [
                    f.links[0] for f in net.active_flows
                    if f.links[0] not in shared
                ]
                link = draw(st.sampled_from([*shared[:2], *own_links]))
                link.set_capacity(base * draw(st.sampled_from(self.SCALES)))
            assert_matches_reference(net, f"event {event} ({kind})")
            assert_needs_fresh(net, f"event {event} ({kind})")
        for step in range(60):
            if not net.step():
                break
            assert_matches_reference(net, f"drain step {step}")
            assert_needs_fresh(net, f"drain step {step}")

    def test_need_accumulates_left_to_right(self):
        # Ten bounds of 0.1 add up to 0.9999999999999999 one at a time;
        # Python 3.12's compensated ``sum`` would give 1.0.
        shared = Link("s", 10.0)
        net = FluidNetwork()
        for _ in range(10):
            net.add_flow(make_flow(100.0, [shared], rate_cap_bps=0.1))
        net._recompute_rates()
        col = net._uses[id(shared)].col
        assert net._needs[col] == (0.9999999999999999, 10)

    #: A capacity whose slack-scaled value is the left-to-right sum of
    #: ten 0.1 bounds: ``1.0000000009999999 * (1 - 1e-9)`` rounds to
    #: ``0.9999999999999999``, one ulp below 1.0.
    EDGE_CAPACITY = 1.0000000009999999

    def test_both_prune_tests_use_the_left_to_right_sum(self):
        # Pruned by the loop's sum, unpruned by a compensated one: the
        # kept update and the water-fill must both prune.
        shared = Link("s", self.EDGE_CAPACITY)
        flows = [make_flow(100.0, [shared], rate_cap_bps=0.1) for _ in range(10)]
        net = FluidNetwork()
        for flow in flows:
            net.add_flow(flow)
        net._recompute_rates()  # the kept update
        assert net._needs, "the kept update did not prune"
        shared.set_capacity(0.5)  # binds: the water-fill keeps nothing
        assert_matches_reference(net, "binding")
        assert net._kept_bounds is None
        shared.set_capacity(self.EDGE_CAPACITY)
        assert_matches_reference(net, "edge")
        assert net._kept_bounds is not None, "the water-fill did not prune"
        assert [flow.current_rate_bps for flow in flows] == [0.1] * 10


class TestLinkTracking:
    """The engine tracks a link for capacity changes once per allocator
    column, and only a link whose class can announce one."""

    def test_plain_links_are_never_tracked(self):
        shared = Link("s", mbps(4.0))
        net = FluidNetwork()
        for i in range(3):
            net.add_flow(make_flow(1 * MB, [Link(f"a{i}", mbps(3.0)), shared]))
        while net.step():
            assert net.engine.links.tracked_count() == 0
        assert net.engine.links.tracked_count() == 0

    def test_shared_piecewise_link_tracked_once_while_crossed(self):
        fade = PiecewiseLink(
            "fade", [(0.0, mbps(8.0)), (1.0, mbps(4.0)), (2.5, mbps(9.0))]
        )
        net = FluidNetwork()
        tracker = net.engine.links
        flows = [
            make_flow(1 * MB, [Link(f"a{i}", mbps(3.0 + i)), fade])
            for i in range(3)
        ]
        net.add_flow(flows[0])
        net.add_flow(flows[1])
        assert tracker.tracked_count() == 1
        net.add_flow(flows[2], delay=0.5)
        late = make_flow(0.5 * MB, [Link("late", mbps(2.0)), fade])
        net.add_flow(late, delay=10.0)
        boundaries = []
        counts = []
        while net.step():
            boundaries.append(net.time)
            counts.append(tracker.tracked_count())
        boundaries.append(net.time)
        # Once while any flow crosses the link, none while none does.
        assert counts == [1, 1, 1, 1, 1, 0, 1]
        assert tracker.tracked_count() == 0
        # The boundaries a tracker refcounted per flow and per link gave.
        assert boundaries == [
            0.5, 1.0, 2.5, 3.388888888888889, 3.555555555555556,
            3.7888888888888888, 10.0, 12.0,
        ]


class _DriftingLink(Link):
    """A link whose capacity moves with ``t`` but announces no change."""

    def capacity_at(self, time):
        return self._capacity_bps * (1.0 + 0.5 * math.sin(time))


class TestCapacityReads:
    """Only capacities that can change are read at every allocation.

    A link whose class keeps ``Link.capacity_at`` returns a stored value
    that only ``set_capacity`` changes: the stepper reads it when its
    allocator column is created and again after a ``set_capacity``.
    Every other link is read at every allocation.
    """

    def test_stored_value_links_read_once_per_use(self, monkeypatch):
        from repro.netsim.link import StochasticLink
        from repro.netsim.stochastic import LognormalProcess

        reads = {}
        stored_read = Link.capacity_at

        def counted(self, time):
            reads[self.name] = reads.get(self.name, 0) + 1
            return stored_read(self, time)

        monkeypatch.setattr(Link, "capacity_at", counted)
        allocations = [0]
        allocate = FluidNetwork._recompute_rates

        def counted_allocate(self):
            allocations[0] += bool(self._flows)
            allocate(self)

        monkeypatch.setattr(FluidNetwork, "_recompute_rates", counted_allocate)

        class CountedStochastic(StochasticLink):
            def capacity_at(self, time):
                reads[self.name] = reads.get(self.name, 0) + 1
                return super().capacity_at(time)

        bottleneck = CountedStochastic(
            "bottleneck",
            mbps(200.0),
            LognormalProcess(seed=5, interval=1.0, sigma=0.25),
        )
        net = FluidNetwork()
        flows = []
        for i in range(120):
            access = Link(f"access-{i}", mbps(2.0 + (i % 7) * 0.5))
            flow = make_flow(
                200_000.0 + (i * 37 % 97) * 8_000.0, (access, bottleneck)
            )
            net.add_flow(flow, delay=(i * 53 % 120) * 0.05)
            flows.append(flow)
        # Each write makes the next allocation read every live link once.
        expected = {f"access-{i}": 1 for i in range(120)}

        def write(index):
            for flow in net.active_flows:
                expected[flow.links[0].name] += 1
            flows[index].links[0].set_capacity(mbps(3.0))

        for k, at in enumerate((1.013, 2.029, 3.041)):
            net.schedule(at, lambda index=40 * k: write(index))
        net.run()
        assert all(flow.completed_at is not None for flow in flows)
        assert sum(expected.values()) > 120  # the writes met live links
        assert {name: reads[name] for name in expected} == expected
        assert reads["bottleneck"] == allocations[0] > 200

    def test_unannounced_changes_are_read_every_step(self):
        from repro.netsim.link import StochasticLink
        from repro.netsim.stochastic import LognormalProcess

        drifting = _DriftingLink("drift", mbps(6.0))
        modulated = StochasticLink(
            "modulated",
            mbps(8.0),
            LognormalProcess(seed=3, interval=50.0, sigma=0.2),
            modulation=lambda t: 1.0 + 0.4 * math.cos(3.0 * t),
            modulation_interval=0.0,
        )
        net = FluidNetwork()
        for i in range(12):
            chain = [Link(f"a{i}", mbps(1.0 + 0.25 * i))]
            chain.append(drifting if i % 2 else modulated)
            net.add_flow(make_flow(2 * MB, chain), delay=0.1 * (i % 4))
        for k in range(1, 30):
            net.schedule(0.17 * k, lambda: None)
        steps = 0
        while net.step():
            assert_matches_reference(net, f"step {steps}")
            steps += 1
        assert steps > 30

    @pytest.mark.parametrize("recycler", ["stored", "varying"])
    def test_flow_aborted_before_allocation(self, recycler):
        # The aborted flow's link was never read; its column goes to a
        # link of another capacity before the next allocation.
        shared = Link("s", mbps(10.0))
        net = FluidNetwork()
        for i in range(3):
            net.add_flow(make_flow(MB, [Link(f"a{i}", mbps(2.0)), shared]))
        net.step()
        gone = make_flow(MB, [Link("gone", mbps(1.0))])
        net.add_flow(gone)
        net.abort_flow(gone)
        if recycler == "stored":
            link = Link("next", mbps(7.0))
        else:
            link = PiecewiseLink("next", [(0.0, mbps(7.0))])
        net.add_flow(make_flow(MB, [link]))
        assert_matches_reference(net, f"{recycler} recycler")
        assert net.active_flows[-1].current_rate_bps == mbps(7.0)


class TestVectorScalarBitEquality:
    #: sha256 of the trajectory below, as produced by the allocator and
    #: stepper before the event-driven allocator replaced them.
    DIGEST = "d0b5f2c35236fd5289a41fc522775749187c0fb3e010b74d86fe7d55d7a4f269"

    def test_full_simulation_digest_matches(self, monkeypatch):
        """Vector and scalar advance paths reproduce the pinned trajectory."""
        import hashlib
        import struct

        import repro.netsim.fluid as fluid_mod
        from repro.netsim.link import StochasticLink
        from repro.netsim.stochastic import LognormalProcess
        from repro.util.units import kbps

        def digest(vector_min_flows):
            monkeypatch.setattr(
                fluid_mod, "VECTOR_MIN_FLOWS", vector_min_flows
            )
            net = FluidNetwork()
            bottleneck = StochasticLink(
                "b",
                mbps(40.0),
                LognormalProcess(seed=7, interval=2.0, sigma=0.3),
            )
            shared = Link("s2", mbps(18.0))
            flows = []
            for i in range(40):
                access = Link(f"a{i}", mbps(1.0 + (i % 5) * 0.7))
                chain = (
                    (access, bottleneck)
                    if i % 3
                    else (access, shared, bottleneck)
                )
                cap = kbps(400.0 + (i % 4) * 200.0) if i % 4 == 0 else None
                flow = make_flow(
                    50_000.0 + (i * 31 % 53) * 3_000.0,
                    chain,
                    rate_cap_bps=cap,
                )
                flows.append(flow)
                net.add_flow(flow, delay=(i % 11) * 0.03)
            hasher = hashlib.sha256()
            while net.step():
                hasher.update(struct.pack("d", net.time))
                for flow in flows:
                    hasher.update(
                        struct.pack(
                            "dd", flow.current_rate_bps, flow.remaining_bytes
                        )
                    )
            for name in sorted(net.link_bytes):
                hasher.update(struct.pack("d", net.link_bytes[name]))
            return hasher.hexdigest()

        assert digest(2) == self.DIGEST
        assert digest(10**9) == self.DIGEST

    @pytest.mark.filterwarnings("error")
    def test_free_and_zero_rate_slots_match_scalar(self, monkeypatch):
        """Grown, freed and reused slots beside a live zero-rate flow.

        Free slots hold remaining ``+inf`` and rate zero, and a flow on
        a dead link is live at rate zero: the vectorized ETA and sweep
        must skip both exactly as the scalar loops do, without a
        divide-by-zero warning.
        """
        import random

        import repro.netsim.fluid as fluid_mod
        from repro.netsim.fluid import _INITIAL_SLOTS

        def trajectory(vector_min_flows):
            monkeypatch.setattr(
                fluid_mod, "VECTOR_MIN_FLOWS", vector_min_flows
            )
            rng = random.Random(35)
            net = FluidNetwork()
            shared = Link("shared", mbps(20.0))
            stalled = make_flow(MB, [Link("dead", 0.0), shared])
            net.add_flow(stalled)
            flows = []
            completions = []

            def spawn(delay):
                i = len(flows)
                access = Link(f"a{i}", mbps(rng.uniform(0.5, 3.0)))
                flow = make_flow(
                    rng.uniform(1e4, 3e5),
                    [access, shared],
                    on_complete=lambda f, t: completions.append((f.label, t)),
                    label=str(i),
                )
                flows.append(flow)
                net.add_flow(flow, delay=delay)

            def churn():
                for flow in rng.sample(flows, 3):
                    net.abort_flow(flow)
                for _ in range(6):
                    spawn(rng.uniform(0.0, 0.1))

            for _ in range(2 * _INITIAL_SLOTS + 5):
                spawn(0.0)
            for k in range(8):
                net.schedule(0.2 + 0.25 * k, churn)
            steps = []
            while net.step():
                steps.append(net.time)
            assert len(net._arr_rate) > 2 * _INITIAL_SLOTS
            assert net.active_flows == (stalled,)
            assert stalled.current_rate_bps == 0.0
            return steps, completions, net.link_bytes

        vector = trajectory(1)
        assert len(vector[1]) > 60
        assert vector == trajectory(10**9)

    #: sha256 of the churn trajectory below, recorded with the allocator
    #: and stepper as they were before private bounds were folded, repeat
    #: allocations skipped and the pair arrays made incremental.
    CHURN_DIGEST = "80052baec960dd98eb00ebfebf032d62c4ec6e6b13ad4cf638b0f56063478503"

    def test_churn_trajectory_digest_matches(self, monkeypatch):
        """Delayed starts, aborts and completions under heavy churn.

        Pins the byte-accounting pair arrays across many retirements
        (and so their compaction), the ``link_bytes`` summation order,
        chains that repeat a link or share a link name, zero-byte flows
        and aborts of flows that never started.
        """
        import hashlib
        import random
        import struct

        import repro.netsim.fluid as fluid_mod
        from repro.netsim.link import StochasticLink
        from repro.netsim.stochastic import LognormalProcess
        from repro.util.units import kbps

        def digest(vector_min_flows):
            monkeypatch.setattr(
                fluid_mod, "VECTOR_MIN_FLOWS", vector_min_flows
            )
            rng = random.Random(1806)
            net = FluidNetwork()
            bottleneck = StochasticLink(
                "b",
                mbps(30.0),
                LognormalProcess(seed=11, interval=0.5, sigma=0.4),
            )
            uplink = Link("u", mbps(12.0))
            twin = Link("u", mbps(9.0))  # a second link named like uplink
            flows = []
            hasher = hashlib.sha256()

            def on_complete(flow, t):
                # Flow ids run on across networks; hash the index.
                hasher.update(struct.pack("dd", t, float(flow.label)))
                if rng.random() < 0.3 and len(flows) < 160:
                    spawn(rng.uniform(0.0, 0.2))

            def spawn(delay):
                i = len(flows)
                access = Link(f"a{i}", mbps(rng.uniform(0.5, 4.0)))
                shape = i % 5
                if shape == 0:
                    chain = (access, bottleneck, uplink)
                elif shape == 1:
                    chain = (access, twin, access)  # a repeated link
                elif shape == 2:
                    chain = (access,)
                else:
                    chain = (access, bottleneck)
                cap = kbps(rng.uniform(300.0, 2500.0)) if i % 3 == 0 else None
                size = 0.0 if i % 17 == 0 else rng.uniform(2e4, 4e5)
                flow = make_flow(
                    size,
                    chain,
                    rate_cap_bps=cap,
                    on_complete=on_complete,
                    label=str(i),
                )
                flows.append(flow)
                net.add_flow(flow, delay=delay)

            def abort_some():
                for flow in rng.sample(flows, min(4, len(flows))):
                    net.abort_flow(flow)  # active, pending or done

            for _ in range(90):
                spawn(rng.uniform(0.0, 3.0))
            for k in range(12):
                net.schedule(0.15 + 0.3 * k, abort_some)
            while net.step():
                hasher.update(struct.pack("d", net.time))
                for flow in flows:
                    hasher.update(
                        struct.pack(
                            "dd", flow.current_rate_bps, flow.remaining_bytes
                        )
                    )
            for name in sorted(net.link_bytes):
                hasher.update(struct.pack("d", net.link_bytes[name]))
            return hasher.hexdigest()

        assert digest(2) == self.CHURN_DIGEST
        assert digest(10**9) == self.CHURN_DIGEST
