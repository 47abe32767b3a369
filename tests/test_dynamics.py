"""The repro.dynamics subsystem: models, streams, schedules, identity.

Cross-backend *agreement* under faults is enforced by the equivalence
harness (``tests/test_engine_equivalence.py``); this module owns the
subsystem's local contracts: spec validation and serialisation, the
counter-hash fault streams' determinism, the Markov schedule's rewind
semantics, how the fault axis enters (and stays out of)
``ExecutionConfig`` identities, and the new robustness counters.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig
from repro.dynamics import (
    CHURN,
    CRASH,
    JAM,
    MODEL_KINDS,
    DynamicsSpec,
    EdgeChurn,
    FaultModel,
    FaultSchedule,
    FaultStreams,
    JammingWindows,
    NodeCrash,
    coerce_dynamics,
)
from repro.core.compete import Compete
from repro.dynamics import schedule as schedule_module
from repro.errors import ConfigurationError
from repro.experiments import get_scenario
from repro.network.metrics import NetworkMetrics
from repro.service import resolution_key

from fault_oracle import PerRoundFaults, round_bits
from radio_oracle import edge_ids


CHURN_SPEC = DynamicsSpec(
    fault_seed=7, models=(EdgeChurn(p_down=0.1, p_up=0.4),)
)
FULL_SPEC = DynamicsSpec(
    fault_seed=2017,
    models=(
        EdgeChurn(p_down=0.05, p_up=0.35),
        NodeCrash(p_crash=0.02, p_recover=0.25),
        JammingWindows(period=8, duration=2, offset=4, fraction=0.25),
    ),
)


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
def test_model_parameter_validation():
    with pytest.raises(ConfigurationError, match="p_down"):
        EdgeChurn(p_down=1.5, p_up=0.5)
    with pytest.raises(ConfigurationError, match="p_crash"):
        NodeCrash(p_crash=-0.1, p_recover=0.5)
    # Permanent faults (a nonzero down-rate with no recovery) would
    # monotonically disconnect the network; both Markov models reject it.
    with pytest.raises(ConfigurationError, match="p_up"):
        EdgeChurn(p_down=0.2, p_up=0.0)
    with pytest.raises(ConfigurationError, match="p_recover"):
        NodeCrash(p_crash=0.2, p_recover=0.0)
    with pytest.raises(ConfigurationError):
        JammingWindows(period=0, duration=1)
    with pytest.raises(ConfigurationError):
        JammingWindows(period=4, duration=5)
    with pytest.raises(ConfigurationError):
        JammingWindows(period=4, duration=2, offset=-1)
    with pytest.raises(ConfigurationError):
        JammingWindows(period=4, duration=2, fraction=2.0)


def test_jamming_window_phase():
    jam = JammingWindows(period=6, duration=2, offset=3)
    active = [round_ for round_ in range(15) if jam.active(round_)]
    assert active == [3, 4, 9, 10]
    # Zero duration is a valid no-op jammer configuration? No: duration
    # must be >= 1, so the narrowest window is one round wide.
    always = JammingWindows(period=1, duration=1)
    assert all(always.active(round_) for round_ in range(5))


def test_model_describe_round_trip_and_kind_dispatch():
    for model in FULL_SPEC.models:
        assert FaultModel.from_dict(model.describe()) == model
        assert model.describe()["kind"] in MODEL_KINDS
    with pytest.raises(ConfigurationError, match="kind"):
        FaultModel.from_dict({"p_down": 0.1})
    with pytest.raises(ConfigurationError, match="unknown fault model"):
        FaultModel.from_dict({"kind": "meteor-strike"})
    with pytest.raises(ConfigurationError):
        FaultModel.from_dict({"kind": "edge-churn", "p_down": 0.1})


# ----------------------------------------------------------------------
# DynamicsSpec
# ----------------------------------------------------------------------
def test_spec_round_trips_and_sorts_models_by_lane():
    rebuilt = DynamicsSpec.from_dict(FULL_SPEC.describe())
    assert rebuilt == FULL_SPEC
    assert json.loads(json.dumps(FULL_SPEC.describe())) == FULL_SPEC.describe()
    # Construction order never matters: models are stored in stream-lane
    # order, so shuffled inputs compare and serialise identically.
    shuffled = DynamicsSpec(
        fault_seed=2017, models=tuple(reversed(FULL_SPEC.models))
    )
    assert shuffled == FULL_SPEC
    assert [m.kind for m in shuffled.models] == list(MODEL_KINDS)
    assert shuffled.churn == FULL_SPEC.models[CHURN]
    assert shuffled.crash == FULL_SPEC.models[CRASH]
    assert shuffled.jamming == FULL_SPEC.models[JAM]


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="fault_seed"):
        DynamicsSpec(fault_seed=-1, models=(EdgeChurn(0.1, 0.4),))
    with pytest.raises(ConfigurationError, match="at least one"):
        DynamicsSpec(fault_seed=0, models=())
    with pytest.raises(ConfigurationError, match="per kind"):
        DynamicsSpec(
            fault_seed=0,
            models=(EdgeChurn(0.1, 0.4), EdgeChurn(0.2, 0.4)),
        )
    with pytest.raises(ConfigurationError, match="models"):
        DynamicsSpec(fault_seed=0, models=(42,))


def test_coerce_dynamics():
    assert coerce_dynamics(None) is None
    assert coerce_dynamics(CHURN_SPEC) is CHURN_SPEC
    assert coerce_dynamics(CHURN_SPEC.describe()) == CHURN_SPEC
    with pytest.raises(ConfigurationError, match="dynamics"):
        coerce_dynamics("churn")


# ----------------------------------------------------------------------
# FaultStreams: the counter-hash lanes
# ----------------------------------------------------------------------
def test_streams_are_deterministic_pure_functions():
    a = FaultStreams(fault_seed=99)
    b = FaultStreams(fault_seed=99)
    for round_ in (0, 1, 17):
        for kind in (CHURN, CRASH, JAM):
            np.testing.assert_array_equal(
                a.bits(round_, kind, 32), b.bits(round_, kind, 32)
            )
    # Query order is irrelevant -- streams hold no cursor state.
    late = a.bits(5, CHURN, 8).copy()
    a.bits(0, CRASH, 8)
    np.testing.assert_array_equal(a.bits(5, CHURN, 8), late)


def test_streams_decorrelate_across_seed_round_kind():
    base = FaultStreams(fault_seed=1).bits(3, CHURN, 64)
    assert not np.array_equal(base, FaultStreams(2).bits(3, CHURN, 64))
    assert not np.array_equal(base, FaultStreams(1).bits(4, CHURN, 64))
    assert not np.array_equal(base, FaultStreams(1).bits(3, CRASH, 64))
    uniforms = FaultStreams(1).uniforms(3, CHURN, 4096)
    assert uniforms.shape == (4096,)
    assert np.all((uniforms >= 0.0) & (uniforms < 1.0))
    # Coarse uniformity sanity: the mean of 4096 U(0,1) draws.
    assert abs(float(uniforms.mean()) - 0.5) < 0.05


def test_streams_validate_arguments():
    with pytest.raises(ConfigurationError):
        FaultStreams(fault_seed=-1)
    streams = FaultStreams(fault_seed=0)
    with pytest.raises(ConfigurationError):
        streams.bits(-1, CHURN, 4)
    with pytest.raises(ConfigurationError):
        streams.bits(0, 99, 4)
    with pytest.raises(ConfigurationError):
        streams.bits(0, CHURN, -1)
    # Zero entities is a valid (empty) query, not an error.
    assert streams.bits(0, CHURN, 0).shape == (0,)


# ----------------------------------------------------------------------
# FaultSchedule: Markov evolution + rewind
# ----------------------------------------------------------------------
def test_schedule_canonical_enumeration():
    graph = topology.grid_graph(4, 4)
    schedule = FaultSchedule(FULL_SPEC, graph)
    assert schedule.num_nodes == graph.num_nodes
    assert schedule.num_edges == graph.num_edges
    assert tuple(schedule.nodes) == tuple(graph.adjacency_csr()[2])
    lo, hi = schedule.edge_endpoints
    assert np.all(lo < hi)
    # Every directed CSR entry maps back onto a canonical edge id.
    assert schedule.entry_edge_ids.shape == (2 * graph.num_edges,)
    assert int(schedule.entry_edge_ids.max()) == graph.num_edges - 1


def test_schedule_rewind_replays_identically():
    graph = topology.grid_graph(5, 5)
    schedule = FaultSchedule(FULL_SPEC, graph)
    forward = [schedule.round_faults(r) for r in range(12)]
    # Rewinding to an earlier round resets the chains and replays from
    # round 0 -- exactly what a fresh run or the engines' silent-trial
    # prepass does -- so the trajectory must be reproduced bit for bit.
    for r in (0, 4, 11):
        again = schedule.round_faults(r)
        np.testing.assert_array_equal(again.alive, forward[r].alive)
        np.testing.assert_array_equal(again.jammed, forward[r].jammed)
        np.testing.assert_array_equal(again.edge_up, forward[r].edge_up)
        assert again.suppressed == forward[r].suppressed
        assert again.crashed_count == forward[r].crashed_count
    # A second schedule over the same (spec, graph) sees the identical
    # environment: faults are a function of (fault_seed, graph) only.
    twin = FaultSchedule(FULL_SPEC, graph)
    for r in (0, 3, 7):
        np.testing.assert_array_equal(
            twin.round_faults(r).edge_up, forward[r].edge_up
        )


def test_schedule_returns_fresh_arrays_and_set_helpers():
    graph = topology.grid_graph(4, 4)
    schedule = FaultSchedule(FULL_SPEC, graph)
    faults = schedule.round_faults(5)
    faults.alive[:] = False
    faults.edge_up[:] = False
    clean = schedule.round_faults(5)
    assert clean.crashed_count < schedule.num_nodes
    crashed = schedule.crashed_nodes(clean)
    jammed = schedule.jammed_nodes(clean)
    assert len(crashed) == clean.crashed_count
    assert all(node in graph for node in crashed | jammed)
    # jammed_nodes intersects the victim set with the living.
    assert not (jammed & crashed)
    # The radio oracle's edge ids answer for both orientations of every
    # link of the graph, and nothing else; the schedule's own per-node
    # links carry the same ids.
    ids = edge_ids(schedule)
    assert ids.keys() == {(u, v) for u in graph for v in graph.neighbors(u)}
    lo, hi = schedule.edge_endpoints
    nodes = schedule.nodes
    for edge, (i, j) in enumerate(zip(lo.tolist(), hi.tolist())):
        u, v = nodes[i], nodes[j]
        assert ids[u, v] == ids[v, u] == edge
    links = schedule.links()
    assert list(links) == list(nodes)
    assert {
        (u, v): edge for u in links for v, edge in links[u]
    } == ids
    assert int((~clean.edge_up).sum()) == clean.suppressed > 0


def test_schedule_without_churn_keeps_links_up():
    graph = topology.star_graph(6)
    crash_only = DynamicsSpec(
        fault_seed=3, models=(NodeCrash(p_crash=0.1, p_recover=0.5),)
    )
    schedule = FaultSchedule(crash_only, graph)
    for r in range(6):
        faults = schedule.round_faults(r)
        assert faults.edge_up is None
        assert faults.suppressed == 0
        assert not faults.jammed.any()


# ----------------------------------------------------------------------
# FaultSchedule against the per-round oracle of tests/fault_oracle.py
# ----------------------------------------------------------------------
ORACLE_SPECS = {
    "churn": CHURN_SPEC,
    "crash": DynamicsSpec(
        fault_seed=5, models=(NodeCrash(p_crash=0.05, p_recover=0.3),)
    ),
    "jam": DynamicsSpec(
        fault_seed=3,
        models=(JammingWindows(period=6, duration=2, offset=2,
                               fraction=0.3),),
    ),
    "stacked": DynamicsSpec(
        fault_seed=2017,
        models=(
            EdgeChurn(p_down=0.05, p_up=0.35),
            NodeCrash(p_crash=0.05, p_recover=0.25),
            JammingWindows(period=8, duration=3, offset=4, fraction=0.5),
        ),
    ),
}

#: Graphs whose ``n + m`` give chunks of 128, 16 and 4 rounds.
ORACLE_GRAPHS = {
    "grid-5x5": lambda: topology.grid_graph(5, 5),
    "grid-32x32": lambda: topology.grid_graph(32, 32),
    "grid-64x64": lambda: topology.grid_graph(64, 64),
}


def test_bits_block_rows_are_the_per_round_words():
    for seed in (0, 7, 2**40 + 3):
        streams = FaultStreams(seed)
        for kind in (CHURN, CRASH, JAM):
            block = streams.bits_block(5, 40, kind, 33)
            assert block.shape == (40, 33)
            for k, row in enumerate(block):
                expected = round_bits(seed, 5 + k, kind, 33)
                np.testing.assert_array_equal(row, expected)
                np.testing.assert_array_equal(
                    streams.bits(5 + k, kind, 33), expected
                )
    streams = FaultStreams(1)
    assert streams.bits_block(3, 0, CHURN, 4).shape == (0, 4)
    assert streams.bits_block(3, 2, CHURN, 0).shape == (2, 0)
    with pytest.raises(ConfigurationError):
        streams.bits_block(0, -1, CHURN, 4)


@pytest.mark.parametrize("graph_name", list(ORACLE_GRAPHS))
@pytest.mark.parametrize("spec_name", list(ORACLE_SPECS))
def test_schedule_matches_the_per_round_oracle(spec_name, graph_name):
    graph = ORACLE_GRAPHS[graph_name]()
    spec = ORACLE_SPECS[spec_name]
    schedule = FaultSchedule(spec, graph)
    chunk = schedule._chunk_rounds
    assert chunk == {"grid-5x5": 128, "grid-32x32": 16, "grid-64x64": 4}[
        graph_name
    ]
    horizon = 3 * chunk + 9
    oracle = PerRoundFaults(spec, graph)
    expected = [oracle.round_faults(r) for r in range(horizon)]
    expected_totals = oracle.totals(horizon)
    if spec_name == "stacked":
        # The jammed total counts only alive victims: some rounds must
        # have a crashed victim inside a window for that to be checked.
        assert any(
            (faults.jammed & ~faults.alive).any() for faults in expected
        )

    def check_block(start, rounds):
        alive, jammed, edge_up = schedule.block(start, rounds)
        assert alive.shape == jammed.shape == (rounds, schedule.num_nodes)
        assert not (alive.flags.writeable or jammed.flags.writeable)
        for k in range(rounds):
            faults = expected[start + k]
            np.testing.assert_array_equal(alive[k], faults.alive)
            np.testing.assert_array_equal(jammed[k], faults.jammed)
            if faults.edge_up is None:
                assert edge_up is None
            else:
                np.testing.assert_array_equal(edge_up[k], faults.edge_up)
        held = schedule._stop - schedule._first
        assert held <= max(chunk, rounds)

    def check_round(round_number):
        faults = schedule.round_faults(round_number)
        want = expected[round_number]
        np.testing.assert_array_equal(faults.alive, want.alive)
        np.testing.assert_array_equal(faults.jammed, want.jammed)
        if want.edge_up is None:
            assert faults.edge_up is None
        else:
            np.testing.assert_array_equal(faults.edge_up, want.edge_up)
        assert faults.suppressed == want.suppressed
        assert faults.crashed_count == want.crashed_count

    check_block(0, 3)
    check_block(3, chunk - 3)
    check_block(chunk - 2, 5)  # straddles the first chunk's end
    check_round(chunk + 4)
    check_block(2 * chunk - 1, 2)  # straddles the second chunk's end
    # Totals past the frontier hash forward; the memo then answers.
    totals = schedule.totals(horizon)
    np.testing.assert_array_equal(totals, expected_totals)
    assert not totals.flags.writeable
    check_round(chunk // 2 + 1)  # rewind into the middle of chunk 0
    check_block(chunk + 1, 3)
    check_round(0)  # rewind to round 0
    check_block(0, 2 * chunk + 1)  # a request longer than a chunk
    for round_number in range(2 * chunk - 2, horizon):
        check_round(round_number)
    np.testing.assert_array_equal(schedule.totals(horizon), expected_totals)
    np.testing.assert_array_equal(
        schedule.totals(5), expected_totals[:5]
    )
    # A fresh schedule asked for totals first agrees as well.
    fresh = FaultSchedule(spec, graph)
    np.testing.assert_array_equal(fresh.totals(horizon), expected_totals)
    check = fresh.round_faults(horizon - 1)
    np.testing.assert_array_equal(check.alive, expected[-1].alive)


def test_schedule_validates_requests():
    schedule = FaultSchedule(FULL_SPEC, topology.grid_graph(3, 3))
    with pytest.raises(ConfigurationError, match="round_number"):
        schedule.round_faults(-1)
    with pytest.raises(ConfigurationError, match="rounds"):
        schedule.block(0, 0)
    with pytest.raises(ConfigurationError, match="rounds"):
        schedule.totals(-1)
    assert schedule.totals(0).shape == (0, 3)


def test_chunk_stays_within_its_entry_budget_on_a_large_grid():
    graph = topology.grid_graph(128, 128)
    schedule = FaultSchedule(CHURN_SPEC, graph)
    per_round = graph.num_nodes + graph.num_edges
    budget = schedule_module._CHUNK_ENTRIES
    chunk = schedule._chunk_rounds
    assert chunk * per_round <= budget < 2 * chunk * per_round
    # A chunk holds more rounds only where one request asks for more.
    for start, rounds in [(0, 1), (1, 1), (5, 3), (9, 1), (40, 2), (45, 1)]:
        schedule.block(start, rounds)
        assert schedule._edge_up.shape[0] <= max(chunk, rounds)
    schedule.round_faults(2)
    assert schedule.totals(60).shape == (60, 3)
    assert schedule._edge_up.shape[0] <= chunk
    assert schedule._alive.shape[0] <= chunk


def test_attempts_hash_each_chunk_once_and_reuse_charged_totals(
    monkeypatch,
):
    calls = []
    original = FaultStreams.bits_block

    def counted(self, first_round, rounds, kind, num_entities):
        calls.append(first_round)
        return original(self, first_round, rounds, kind, num_entities)

    monkeypatch.setattr(FaultStreams, "bits_block", counted)
    graph = topology.grid_graph(6, 6)
    # Chunks of 16 rounds, so one attempt spans several of them.
    per_round = graph.num_nodes + graph.num_edges
    monkeypatch.setattr(schedule_module, "_CHUNK_ENTRIES", 16 * per_round)
    primitive = Compete(
        graph,
        config=ExecutionConfig(backend="vectorized", dynamics=CHURN_SPEC),
    )
    budget = primitive.parameters.total_rounds
    assert primitive._resolved().fault_schedule._chunk_rounds == 16
    # A silent attempt is charged the whole budget: its totals are
    # hashed once, chunk by chunk ...
    assert not primitive.run({}, seed=0).success
    assert len(calls) == len(set(calls)) >= budget // 16
    calls.clear()
    # ... and never again.
    primitive.run({}, seed=1)
    assert calls == []
    for seed in (2, 3, 4):
        result = primitive.run({0: 1}, seed=seed)
        assert result.success and result.rounds > 16
        # Each simulated attempt rewinds to round 0 and computes every
        # chunk its rounds touch exactly once.
        assert sorted(calls) == list(range(0, result.rounds, 16))
        calls.clear()
        primitive.run({}, seed=seed)
        assert calls == []


# ----------------------------------------------------------------------
# identity: the fault axis must (only) matter when present
# ----------------------------------------------------------------------
def test_identity_excludes_dynamics_when_static():
    static = ExecutionConfig()
    assert "dynamics" not in static.describe()
    faulty = ExecutionConfig(dynamics=CHURN_SPEC)
    assert faulty.describe()["dynamics"] == CHURN_SPEC.describe()
    assert static.identity() != faulty.identity()
    # The service cache never serves a faulty run the static entry of
    # the same topology.
    clean = get_scenario("broadcast-grid-n64")
    churned = dataclasses.replace(clean, dynamics=CHURN_SPEC)
    assert resolution_key(clean) != resolution_key(churned)
    assert (
        resolution_key(clean).split(":")[1]
        == resolution_key(churned).split(":")[1]
    )
    # Mapping and spec spellings coerce to the same identity; different
    # fault seeds diverge (the service cache must never conflate them).
    assert (
        ExecutionConfig(dynamics=CHURN_SPEC.describe()).identity()
        == faulty.identity()
    )
    reseeded = ExecutionConfig(
        dynamics=DynamicsSpec(fault_seed=8, models=CHURN_SPEC.models)
    )
    assert reseeded.identity() != faulty.identity()


def test_resolved_execution_binds_one_fault_schedule():
    graph = topology.grid_graph(4, 4)
    from repro.api.config import resolve_execution

    static = resolve_execution(graph, ExecutionConfig())
    assert static.fault_schedule is None
    resolved = resolve_execution(graph, ExecutionConfig(dynamics=FULL_SPEC))
    schedule = resolved.fault_schedule
    assert isinstance(schedule, FaultSchedule)
    assert resolved.fault_schedule is schedule
    assert schedule.spec == FULL_SPEC


# ----------------------------------------------------------------------
# robustness counters
# ----------------------------------------------------------------------
def test_metrics_carry_fault_counters():
    a = NetworkMetrics(
        rounds=2, transmissions=3, receptions=1, collisions=1,
        idle_listens=2, suppressed_links=4, crashed_nodes=1,
        jammed_listens=2,
    )
    b = a.copy()
    merged = a.merge(b)
    assert merged.suppressed_links == 8
    assert merged.crashed_nodes == 2
    assert merged.jammed_listens == 4
    assert merged.diff(a).jammed_listens == 2
    # Crashed and jammed listener slots count toward the delivery
    # denominator: a faulty run cannot report a better ratio than the
    # same traffic on a healthy network.
    healthy = NetworkMetrics(
        rounds=2, transmissions=3, receptions=1, collisions=1,
        idle_listens=2,
    )
    assert a.delivery_ratio < healthy.delivery_ratio
    assert a.as_dict()["suppressed_links"] == 4
