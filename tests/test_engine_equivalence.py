"""The backend equivalence harness: reference vs vectorized vs oracle.

This is the single home of the package's equivalence guarantee
(``repro.simulation`` docstring).  One table of cases -- topology family
x strategy x collision model x algorithm -- runs every seeded instance
through three execution paths:

* the pure-Python reference ``ProtocolRunner`` (``backend="reference"``),
* the vectorized backend on its CSR kernel (``backend="vectorized"``),
* the vectorized backend with its engine swapped for the dense-matmul
  oracle of ``tests/dense_oracle.py``,

and asserts *round-exact* agreement of the vectorized backend with the
other two, field by field: same winner/leader, same success flag, same
executed-round count, same per-node reception rounds and final messages,
identical metric counters.  The oracle is the only exact check where the
reference runner cannot run: under ``rng="decoupled"`` and beyond
``n = 1024``.  Cases marked ``slow`` cover the large-``n`` regime and
are excluded in CI via ``-m "not slow"``.

Engine *internals* (draw streams, input validation, caching) live in
``tests/test_vectorized.py``; CSR structure in ``tests/test_sparse.py``;
decomposition/schedule structure in ``tests/test_clustering.py``.
"""

import contextlib
import dataclasses
from typing import Callable, Optional, Tuple

import pytest

from repro import topology
from repro.api import ExecutionConfig
from repro.dynamics import (
    DynamicsSpec,
    EdgeChurn,
    JammingWindows,
    NodeCrash,
)
from repro.core.broadcast import broadcast
from repro.core.compete import Compete, compete
from repro.core.leader_election import elect_leader
from repro.core.parameters import CompeteParameters
from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.network.radio import CollisionModel

from dense_oracle import dense_oracle_engines

#: The three execution paths: reference runner, engine, dense oracle.
EXECUTIONS = ("reference", "vectorized", "oracle")

NO_DETECT = CollisionModel.NO_DETECTION
DETECT = CollisionModel.WITH_DETECTION


@dataclasses.dataclass(frozen=True)
class Case:
    """One row of the equivalence table."""

    name: str
    factory: Callable[[], Graph]
    algorithm: str = "compete"  # compete | broadcast | election
    strategy: str = "skeleton"
    collision_model: CollisionModel = NO_DETECT
    spontaneous: bool = True
    seeds: Tuple[int, ...] = (0, 7)
    dynamics: Optional[DynamicsSpec] = None
    slow: bool = False


CASES = [
    # --- Compete: candidate races across the family x strategy grid ----
    Case("compete-path-skeleton", lambda: topology.path_graph(17)),
    Case("compete-path-clustered", lambda: topology.path_graph(30),
         strategy="clustered"),
    Case("compete-path-classical", lambda: topology.path_graph(17),
         spontaneous=False),
    Case("compete-star-skeleton-detect", lambda: topology.star_graph(12),
         collision_model=DETECT),
    Case("compete-star-clustered", lambda: topology.star_graph(12),
         strategy="clustered"),
    Case("compete-grid-skeleton", lambda: topology.grid_graph(5, 5)),
    Case("compete-grid-clustered-detect", lambda: topology.grid_graph(6, 5),
         strategy="clustered", collision_model=DETECT),
    Case("compete-grid-classical-clustered",
         lambda: topology.grid_graph(5, 5), strategy="clustered",
         spontaneous=False),
    Case("compete-gnp-skeleton",
         lambda: topology.connected_gnp_graph(20, 0.15, seed=11)),
    Case("compete-gnp-clustered",
         lambda: topology.connected_gnp_graph(24, 0.15, seed=9),
         strategy="clustered"),
    Case("compete-randomtree-skeleton",
         lambda: topology.random_tree_graph(18, seed=4)),
    Case("compete-cliquepath-clustered",
         lambda: topology.path_of_cliques_graph(5, 5), strategy="clustered"),
    # --- broadcast: the one-candidate instance -------------------------
    Case("broadcast-path-skeleton", lambda: topology.path_graph(16),
         algorithm="broadcast"),
    Case("broadcast-path-classical", lambda: topology.path_graph(16),
         algorithm="broadcast", spontaneous=False),
    Case("broadcast-grid-clustered", lambda: topology.grid_graph(4, 5),
         algorithm="broadcast", strategy="clustered"),
    Case("broadcast-star-detect", lambda: topology.star_graph(10),
         algorithm="broadcast", collision_model=DETECT),
    Case("broadcast-tree-skeleton", lambda: topology.binary_tree_graph(4),
         algorithm="broadcast"),
    Case("broadcast-rgg-skeleton",
         lambda: topology.random_geometric_graph(24, seed=5),
         algorithm="broadcast"),
    # --- leader election: retries + candidate randomness ---------------
    Case("election-grid-skeleton", lambda: topology.grid_graph(4, 4),
         algorithm="election", spontaneous=False, seeds=(0, 3, 9)),
    Case("election-grid-clustered", lambda: topology.grid_graph(4, 4),
         algorithm="election", strategy="clustered", spontaneous=False,
         seeds=(0, 4)),
    Case("election-complete-skeleton", lambda: topology.complete_graph(16),
         algorithm="election", spontaneous=False),
    Case("election-gnp-clustered",
         lambda: topology.connected_gnp_graph(16, 0.2, seed=3),
         algorithm="election", strategy="clustered", spontaneous=False),
    Case("election-star-spontaneous", lambda: topology.star_graph(8),
         algorithm="election", spontaneous=True),
    # --- fault injection: every path sees the same fault stream --------
    # The repro.dynamics contract (keyed on (fault_seed, round, entity),
    # never on the trial) means the reference runner and both kernels
    # must make bit-identical fault decisions -- these rows enforce it
    # for each fault kind alone and for all three stacked.
    Case("broadcast-grid-churn", lambda: topology.grid_graph(6, 6),
         algorithm="broadcast",
         dynamics=DynamicsSpec(
             fault_seed=11,
             models=(EdgeChurn(p_down=0.08, p_up=0.4),))),
    Case("compete-gnp-crash",
         lambda: topology.connected_gnp_graph(20, 0.2, seed=6),
         dynamics=DynamicsSpec(
             fault_seed=5,
             models=(NodeCrash(p_crash=0.03, p_recover=0.3),))),
    Case("election-grid-jam-detect", lambda: topology.grid_graph(4, 4),
         algorithm="election", spontaneous=False,
         collision_model=DETECT,
         dynamics=DynamicsSpec(
             fault_seed=3,
             models=(JammingWindows(period=6, duration=2, offset=2,
                                    fraction=0.3),))),
    Case("broadcast-tree-churn-crash-jam",
         lambda: topology.binary_tree_graph(5),
         algorithm="broadcast",
         dynamics=DynamicsSpec(
             fault_seed=2017,
             models=(EdgeChurn(p_down=0.05, p_up=0.35),
                     NodeCrash(p_crash=0.02, p_recover=0.25),
                     JammingWindows(period=8, duration=2, offset=4)))),
    Case("compete-path-churn-classical", lambda: topology.path_graph(14),
         spontaneous=False,
         dynamics=DynamicsSpec(
             fault_seed=8,
             models=(EdgeChurn(p_down=0.04, p_up=0.5),))),
    # Every attempt after the first rewinds chains that carry state (see
    # test_fault_election_retries_on_chains_with_state).
    Case("election-gnp-churn-crash",
         lambda: topology.connected_gnp_graph(14, 0.25, seed=2),
         algorithm="election", spontaneous=False, seeds=(0, 4),
         dynamics=DynamicsSpec(
             fault_seed=13,
             models=(EdgeChurn(p_down=0.06, p_up=0.4),
                     NodeCrash(p_crash=0.03, p_recover=0.3)))),
    # --- the large-n regime (excluded in CI via -m "not slow") ---------
    Case("compete-grid-n1024", lambda: topology.grid_graph(32, 32),
         seeds=(0,), slow=True),
    Case("compete-tree-n1023-clustered",
         lambda: topology.binary_tree_graph(9), strategy="clustered",
         seeds=(0,), slow=True),
    Case("broadcast-gnp-n1024",
         lambda: topology.connected_gnp_graph(1024, 0.008, seed=1024),
         algorithm="broadcast", seeds=(0,), slow=True),
    Case("broadcast-path-n257-clustered", lambda: topology.path_graph(257),
         algorithm="broadcast", strategy="clustered", seeds=(0,),
         slow=True),
    # The shapes behind the sparse-regime sweep additions
    # (broadcast-rgg-n4096 / election-grid-n4096), pinned at the largest
    # size the reference runner can still join: the benchmark scenarios
    # themselves run --skip-reference, so these rows are where their
    # round-exactness is actually enforced.
    Case("broadcast-rgg-n1024",
         lambda: topology.random_geometric_graph(1024, seed=1024),
         algorithm="broadcast", seeds=(0,), slow=True),
    Case("election-grid-n100", lambda: topology.grid_graph(10, 10),
         algorithm="election", spontaneous=False, seeds=(0,), slow=True),
]


def case_params():
    for case in CASES:
        marks = (pytest.mark.slow,) if case.slow else ()
        yield pytest.param(case, id=case.name, marks=marks)


def on_path(path: str):
    """The backend for ``path``, and a context that installs the oracle."""
    backend = "reference" if path == "reference" else "vectorized"
    if path == "oracle":
        return backend, dense_oracle_engines()
    return backend, contextlib.nullcontext()


def run_case(case: Case, seed: int, path: str, rng: str = "replay"):
    """Execute one case on one execution path (via ExecutionConfig)."""
    graph = case.factory()
    backend, context = on_path(path)
    common = dict(
        seed=seed,
        spontaneous=case.spontaneous,
        config=ExecutionConfig(
            backend=backend,
            strategy=case.strategy,
            collision_model=case.collision_model,
            rng=rng,
            dynamics=case.dynamics,
        ),
    )
    with context:
        if case.algorithm == "compete":
            nodes = graph.nodes()
            candidates = {
                nodes[0]: 10, nodes[-1]: 20, nodes[len(nodes) // 2]: 15
            }
            return compete(graph, candidates, **common)
        if case.algorithm == "broadcast":
            return broadcast(graph, source=graph.nodes()[0], **common)
        assert case.algorithm == "election"
        return elect_leader(graph, **common)


def assert_round_exact(case: Case, seed: int, reference, other, label: str):
    """Field-by-field agreement of two results of the same algorithm."""
    context = f"{case.name} seed={seed}: {label}"
    if case.algorithm == "election":
        fields = ("success", "leader", "attempts", "rounds", "num_candidates")
    elif case.algorithm == "broadcast":
        fields = ("success", "source", "message", "rounds", "num_informed")
    else:
        fields = ("success", "winner", "rounds", "num_candidates")
    for field in fields:
        assert getattr(reference, field) == getattr(other, field), (
            f"{context}: {field} diverged"
        )
    assert dict(reference.reception_rounds) == dict(
        other.reception_rounds
    ), context
    if case.algorithm == "compete":
        assert dict(reference.final_messages) == dict(
            other.final_messages
        ), context
    assert reference.metrics.as_dict() == other.metrics.as_dict(), context


@pytest.mark.parametrize("case", case_params())
def test_three_way_round_exact_agreement(case):
    for seed in case.seeds:
        results = {path: run_case(case, seed, path) for path in EXECUTIONS}
        assert_round_exact(case, seed, results["reference"],
                           results["vectorized"], "reference vs vectorized")
        assert_round_exact(case, seed, results["oracle"],
                           results["vectorized"], "oracle vs vectorized")


def test_fault_election_retries_on_chains_with_state():
    # The three-way check of election-gnp-churn-crash covers a rewind of
    # the churn and crash chains only if some seed needs a second attempt.
    case = next(c for c in CASES if c.name == "election-gnp-churn-crash")
    attempts = [
        run_case(case, seed, "vectorized").attempts for seed in case.seeds
    ]
    assert max(attempts) > 1


@pytest.mark.parametrize("case", case_params())
def test_dense_sparse_exact_under_decoupled_rng(case):
    # The decoupled counter rng intentionally breaks parity with the
    # *reference* runner (that contract is distributional, owned by
    # tests/test_rng_decoupled.py) -- but the dense-matmul oracle and
    # the CSR engine must still agree bit for bit: they evaluate the
    # same hash at the same (trial, round, node) coordinates, so any
    # divergence is an engine bug, not a randomness question.
    for seed in case.seeds:
        dense = run_case(case, seed, "oracle", rng="decoupled")
        sparse = run_case(case, seed, "vectorized", rng="decoupled")
        assert_round_exact(case, seed, dense, sparse,
                           "oracle vs vectorized, decoupled")


# ----------------------------------------------------------------------
# Degenerate and boundary dynamics, across all three paths
# ----------------------------------------------------------------------
def _three_way_compete(graph, candidates, *, parameters=None,
                       spontaneous=False, seed=0):
    results = {}
    for path in EXECUTIONS:
        backend, context = on_path(path)
        with context:
            results[path] = Compete(
                graph,
                config=ExecutionConfig(backend=backend, parameters=parameters),
            ).run(candidates, seed=seed, spontaneous=spontaneous)
    return results


def _assert_all_equal(results):
    reference = results["reference"]
    for label in ("vectorized", "oracle"):
        other = results[label]
        assert reference.success == other.success, label
        assert reference.winner == other.winner, label
        assert reference.rounds == other.rounds, label
        assert dict(reference.reception_rounds) == dict(
            other.reception_rounds
        ), label
        assert dict(reference.final_messages) == dict(
            other.final_messages
        ), label
        assert reference.metrics.as_dict() == other.metrics.as_dict(), label
    return reference


def test_budget_exhaustion_agreement():
    # A schedule far too short to saturate must fail identically on all
    # three paths (same partial progress, same charged rounds).
    graph = topology.path_graph(12)
    parameters = CompeteParameters(
        num_nodes=12, diameter=11, decay_steps=4, num_decay_rounds=2
    )
    for seed in range(4):
        results = _three_way_compete(
            graph, {0: 1}, parameters=parameters, seed=seed
        )
        reference = _assert_all_equal(results)
        assert reference.rounds == parameters.total_rounds


def _mixed_id_path():
    """A 12-node path whose ids mix ints, strs and tuples, plus a chord.

    Under the tie-break, int ids sort before str ids before tuples, and
    by ``str`` within a type: ``10 < 11 < 2`` and ``"10" < "a"``.
    """
    nodes = [0, "b", 10, (1, 2), "a", 2, 11, "10", (0, "z"), 3, "c", 1]
    graph = Graph(nodes=nodes)
    for u, v in zip(nodes, nodes[1:]):
        graph.add_edge(u, v)
    graph.add_edge(10, "a")
    return graph


@pytest.mark.parametrize(
    "factory", [lambda: topology.path_graph(12), _mixed_id_path],
    ids=["path", "mixed-ids"],
)
@pytest.mark.parametrize("candidates", [{0: 1}, {}], ids=["source", "none"])
def test_spontaneous_dummy_order_agreement(factory, candidates):
    # A budget too short to saturate leaves dummies in final_messages,
    # where their order shows: a node keeps the highest dummy it heard.
    # In path_graph(12) ids 10 and 11 sort before 2 (the tie-break
    # compares str(source)), so ranking dummies by node order differs.
    graph = factory()
    parameters = CompeteParameters(
        num_nodes=graph.num_nodes, diameter=graph.diameter(),
        decay_steps=4, num_decay_rounds=2,
    )
    adopted_dummies = 0
    for seed in range(6):
        results = _three_way_compete(
            graph, candidates, parameters=parameters, spontaneous=True,
            seed=seed,
        )
        reference = _assert_all_equal(results)
        assert not reference.success
        assert reference.rounds == parameters.total_rounds
        adopted_dummies += sum(
            1 for node, best in reference.final_messages.items()
            if best != reference.winner and best.source != node
        )
    assert adopted_dummies > 0


class _Unnamed:
    """A node id whose ``str`` is the same for every instance."""

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"_Unnamed({self.index})"

    def __str__(self):
        return "node"


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_node_ids_with_one_tie_break_key_are_rejected(backend):
    # Dummies of these nodes would tie under Message.beats while the
    # engine ranked one above the other, so the backends would differ.
    nodes = [_Unnamed(index) for index in range(8)]
    graph = Graph(nodes=nodes, edges=zip(nodes, nodes[1:]))
    config = ExecutionConfig(backend=backend)
    with pytest.raises(
        ConfigurationError, match=r"^nodes _Unnamed\(0\) and _Unnamed\(1\) "
    ):
        compete(graph, {}, seed=0, spontaneous=True, config=config)
    # The check follows mutations: one more such node on an int graph.
    graph = topology.path_graph(4)
    graph.add_edge(3, nodes[0])
    primitive = Compete(graph, config=config)
    graph.add_edge(nodes[0], nodes[1])
    with pytest.raises(ConfigurationError, match="tie-break key"):
        primitive.run({0: 1}, seed=0)


def test_no_candidates_agreement():
    # The empty race charges the full (silent or dummy-only) schedule and
    # fails -- identically everywhere.
    graph = topology.star_graph(5)
    for spontaneous in (False, True):
        results = _three_way_compete(
            graph, {}, spontaneous=spontaneous, seed=2
        )
        reference = _assert_all_equal(results)
        assert not reference.success
        assert reference.winner is None


def test_degenerate_saturation_agreement():
    # Single node, and every node already holding the winner: zero rounds
    # and zero traffic on all three paths.
    single = Graph(nodes=[0])
    results = _three_way_compete(single, {0: 1}, seed=0)
    assert _assert_all_equal(results).rounds == 0

    clique = topology.complete_graph(4)
    winner = Message(value=9, source=0)
    results = _three_way_compete(
        clique, {node: winner for node in clique.nodes()}, seed=1
    )
    assert _assert_all_equal(results).rounds == 0


@pytest.mark.slow
def test_dense_sparse_agree_beyond_reference_scale():
    # Past n = 1024 the reference runner drops out of the loop; the
    # dense-matmul oracle and the CSR engine must still agree
    # batch-for-batch.
    graph = topology.binary_tree_graph(10)  # n = 2047, D = 20
    seeds = [0, 1, 2]
    outcomes = {}
    for path in ("oracle", "vectorized"):
        _, context = on_path(path)
        with context:
            primitive = Compete(
                graph, config=ExecutionConfig(backend="vectorized")
            )
            outcomes[path] = primitive.run_batch(
                {0: 1}, seeds=seeds, spontaneous=True
            )
    for fast, slow in zip(outcomes["vectorized"], outcomes["oracle"]):
        assert fast.success and slow.success
        assert fast.rounds == slow.rounds
        assert dict(fast.reception_rounds) == dict(slow.reception_rounds)
        assert fast.metrics.as_dict() == slow.metrics.as_dict()
