"""Persistence and validation of benchmark results (``BENCH_*.json``).

Every benchmark run emits one JSON document whose layout is pinned by
:data:`SCHEMA_VERSION` and enforced by :func:`validate_bench`.  The
schema is deliberately validated by hand (no external JSON-schema
dependency) with error messages that name the offending path, so a
malformed artifact fails loudly in CI rather than silently skewing a
trend line.  The full field-by-field description lives in
``docs/EXPERIMENTS.md``; the invariants encoded here and there must stay
in sync.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import Any, Mapping, Optional, Union

from repro.dynamics import MODEL_KINDS
from repro.errors import ConfigurationError
from repro.simulation.rng import RNG_MODES

#: Identifies the layout of a ``BENCH_*.json`` document.  Bump only with
#: a migration note in ``docs/EXPERIMENTS.md``.
SCHEMA_VERSION = "repro-bench/2"

#: Statistic blocks summarising a per-trial series.
_SERIES_KEYS = ("mean", "min", "max")


def bench_filename(scenario_name: str) -> str:
    """The canonical artifact name for a scenario's benchmark result."""
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "-", scenario_name).strip("-")
    if not stem:
        raise ConfigurationError(
            f"scenario name {scenario_name!r} leaves no filename characters"
        )
    return f"BENCH_{stem}.json"


def write_bench(
    payload: Mapping[str, Any], directory: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Validate ``payload`` and write it to ``directory``.

    Returns the written path.  The directory is created if needed; the
    filename is derived from the payload's scenario name, so re-running a
    scenario overwrites its previous artifact.
    """
    validate_bench(payload)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / bench_filename(payload["scenario"]["name"])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, pathlib.Path]) -> dict[str, Any]:
    """Load and validate one ``BENCH_*.json`` document."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        # UnicodeDecodeError is a ValueError, not an OSError: a bench
        # file with broken encoding must produce the same one-line CLI
        # error as any other unreadable file, never a traceback.
        raise ConfigurationError(
            f"cannot read bench file {path}: {error}"
        ) from None
    validate_bench(payload)
    return payload


def validate_bench(payload: Mapping[str, Any]) -> None:
    """Check ``payload`` against the documented ``repro-bench/2`` schema.

    Every field is required except the ``dynamics`` blocks, which static
    runs omit; unknown top-level keys (such as a load generator's
    ``service`` block) are ignored.

    Raises
    ------
    ConfigurationError
        Naming the first violated field.
    """
    _expect(isinstance(payload, Mapping), "payload", "must be a JSON object")
    _field(payload, "schema", str)
    _expect(
        payload["schema"] == SCHEMA_VERSION,
        "schema",
        f"must be {SCHEMA_VERSION!r}, got {payload['schema']!r}",
    )
    _field(payload, "created_at", str)

    scenario = _field(payload, "scenario", Mapping)
    _field(scenario, "name", str, path="scenario.name")
    _field(scenario, "family", str, path="scenario.family")
    _field(scenario, "algorithm", str, path="scenario.algorithm")
    _field(scenario, "collision_model", str, path="scenario.collision_model")
    _field(scenario, "spontaneous", bool, path="scenario.spontaneous")
    _field(scenario, "strategy", str, path="scenario.strategy")
    _rng_field(scenario, path="scenario.rng")
    # Static runs omit the fault environment.
    if "dynamics" in scenario:
        _dynamics(scenario["dynamics"], path="scenario.dynamics")
    _field(scenario, "topology_args", Mapping, path="scenario.topology_args")

    topo = _field(payload, "topology", Mapping)
    for key in ("num_nodes", "num_edges", "diameter", "max_degree"):
        _int_field(topo, key, minimum=0, path=f"topology.{key}")
    _expect(topo["num_nodes"] >= 1, "topology.num_nodes", "must be >= 1")

    schedule = _field(payload, "schedule", Mapping)
    for key in ("decay_steps", "num_decay_rounds", "total_rounds"):
        _int_field(schedule, key, minimum=1, path=f"schedule.{key}")

    trials = _field(payload, "trials", Mapping)
    _int_field(trials, "vectorized", minimum=1, path="trials.vectorized")
    _int_field(trials, "per_batch", minimum=1, path="trials.per_batch")
    _int_field(trials, "seed_batches", minimum=1, path="trials.seed_batches")
    _expect(
        trials["per_batch"] * trials["seed_batches"] == trials["vectorized"],
        "trials.vectorized",
        "must equal per_batch * seed_batches",
    )
    _int_field(trials, "reference", minimum=0, path="trials.reference")
    _int_field(trials, "base_seed", minimum=0, path="trials.base_seed")

    _rng_field(payload, path="rng")
    _int_field(payload, "workers", minimum=1)

    # A writer that records the fault environment records it in both
    # places, so the two blocks must appear together and agree.
    has_dynamics = "dynamics" in scenario
    _expect(
        ("dynamics" in payload) == has_dynamics,
        "dynamics",
        "must be present exactly when scenario.dynamics is present",
    )
    if "dynamics" in payload:
        _dynamics(payload["dynamics"], path="dynamics")
        _expect(
            payload["dynamics"] == scenario["dynamics"],
            "dynamics",
            "must match scenario.dynamics",
        )

    results = _field(payload, "results", Mapping)
    rate = _field(results, "success_rate", (int, float), path="results.success_rate")
    _expect(0.0 <= rate <= 1.0, "results.success_rate", "must be in [0, 1]")
    series_keys = ["rounds", "transmissions", "receptions", "collisions"]
    if payload["scenario"]["algorithm"] == "leader-election":
        series_keys.append("attempts")
    if has_dynamics:
        # Robustness series, recorded exactly when faults were injected.
        series_keys += [
            "delivery_rate",
            "suppressed_links",
            "crashed_nodes",
            "jammed_listens",
        ]
    for key in series_keys:
        _series(results, key)
    _per_trial(results, series_keys, trials["vectorized"])

    timing = _field(payload, "timing", Mapping)
    _number_field(timing, "vectorized_seconds", minimum=0.0, path="timing.vectorized_seconds")
    _number_field(timing, "vectorized_seconds_per_trial", minimum=0.0,
                  path="timing.vectorized_seconds_per_trial")
    for key in ("reference_seconds", "reference_seconds_per_trial", "speedup"):
        value = timing.get(key)
        if value is not None:
            _number_field(timing, key, minimum=0.0, path=f"timing.{key}")
    has_reference = trials["reference"] > 0
    _expect(
        (timing.get("speedup") is not None) == has_reference,
        "timing.speedup",
        "must be present exactly when reference trials were run",
    )

    agreement = _field(payload, "agreement", Mapping)
    _int_field(agreement, "checked_trials", minimum=0, path="agreement.checked_trials")
    _field(agreement, "round_exact", bool, path="agreement.round_exact")
    _expect(
        agreement["checked_trials"] <= trials["reference"],
        "agreement.checked_trials",
        "cannot exceed the number of reference trials",
    )
    _expect(
        agreement["round_exact"] == (agreement["checked_trials"] > 0),
        "agreement.round_exact",
        "must be true exactly when agreement was checked (a run that "
        "observes a disagreement raises instead of persisting)",
    )
    if payload["rng"] == "decoupled":
        # Decoupled draws never match the replayed reference streams, so
        # a decoupled artifact claiming round-exact agreement is lying.
        _expect(
            agreement["checked_trials"] == 0,
            "agreement.checked_trials",
            "must be 0 under rng='decoupled' (replay parity is "
            "distributional, not round-exact)",
        )

    environment = _field(payload, "environment", Mapping)
    for key in ("python", "numpy", "platform"):
        _field(environment, key, str, path=f"environment.{key}")


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------
def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"bench payload invalid at {path}: {message}")


def _field(
    container: Mapping[str, Any],
    key: str,
    types,
    path: Optional[str] = None,
) -> Any:
    path = path or key
    _expect(key in container, path, "missing required field")
    value = container[key]
    if types is bool:
        _expect(isinstance(value, bool), path, "must be a boolean")
    else:
        _expect(
            isinstance(value, types) and not isinstance(value, bool),
            path,
            f"has wrong type {type(value).__name__}",
        )
    return value


def _int_field(
    container: Mapping[str, Any],
    key: str,
    minimum: Optional[int] = None,
    path: Optional[str] = None,
) -> int:
    value = _field(container, key, int, path=path)
    if minimum is not None:
        _expect(value >= minimum, path or key, f"must be >= {minimum}")
    return value


def _number_field(
    container: Mapping[str, Any],
    key: str,
    minimum: Optional[float] = None,
    path: Optional[str] = None,
) -> float:
    value = _field(container, key, (int, float), path=path)
    if minimum is not None:
        _expect(value >= minimum, path or key, f"must be >= {minimum}")
    return float(value)


def _rng_field(container: Mapping[str, Any], path: str) -> None:
    value = _field(container, "rng", str, path=path)
    _expect(
        value in RNG_MODES, path, f"must be one of {RNG_MODES}, got {value!r}"
    )


def _dynamics(value: Any, path: str) -> None:
    """Validate one serialised ``DynamicsSpec`` block."""
    _expect(isinstance(value, Mapping), path, "must be a JSON object")
    _int_field(value, "fault_seed", minimum=0, path=f"{path}.fault_seed")
    models = _field(value, "models", list, path=f"{path}.models")
    _expect(len(models) >= 1, f"{path}.models", "must name at least one model")
    seen_kinds = []
    for index, model in enumerate(models):
        model_path = f"{path}.models[{index}]"
        _expect(isinstance(model, Mapping), model_path, "must be a JSON object")
        kind = _field(model, "kind", str, path=f"{model_path}.kind")
        _expect(
            kind in MODEL_KINDS,
            f"{model_path}.kind",
            f"must be one of {MODEL_KINDS}, got {kind!r}",
        )
        seen_kinds.append(kind)
    _expect(
        len(set(seen_kinds)) == len(seen_kinds),
        f"{path}.models",
        f"at most one model per kind, got {seen_kinds}",
    )


def _per_trial(
    results: Mapping[str, Any], series_keys: list, num_trials: int
) -> None:
    """Validate the ``results.per_trial`` raw-series block.

    One value per vectorized trial, and the summary statistics must be
    re-derivable from it.
    """
    per_trial = _field(results, "per_trial", Mapping, path="results.per_trial")
    success = _field(per_trial, "success", list, path="results.per_trial.success")
    _expect(
        len(success) == num_trials,
        "results.per_trial.success",
        f"must hold one entry per vectorized trial ({num_trials}), "
        f"got {len(success)}",
    )
    _expect(
        all(isinstance(value, bool) for value in success),
        "results.per_trial.success",
        "entries must be booleans",
    )
    derived_rate = sum(1 for value in success if value) / num_trials
    _expect(
        math.isclose(derived_rate, results["success_rate"], rel_tol=1e-9,
                     abs_tol=1e-12),
        "results.success_rate",
        f"does not match the per-trial successes (expected {derived_rate})",
    )
    for key in series_keys:
        path = f"results.per_trial.{key}"
        values = _field(per_trial, key, list, path=path)
        _expect(
            len(values) == num_trials,
            path,
            f"must hold one entry per vectorized trial ({num_trials}), "
            f"got {len(values)}",
        )
        _expect(
            all(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                for value in values
            ),
            path,
            "entries must be numbers",
        )
        block = results[key]
        for stat, derived in (
            ("mean", sum(values) / num_trials),
            ("min", min(values)),
            ("max", max(values)),
        ):
            _expect(
                math.isclose(block[stat], derived, rel_tol=1e-9,
                             abs_tol=1e-12),
                f"results.{key}.{stat}",
                f"does not match the per-trial series (expected {derived})",
            )


def _series(results: Mapping[str, Any], key: str) -> None:
    block = _field(results, key, Mapping, path=f"results.{key}")
    for stat in _SERIES_KEYS:
        _number_field(block, stat, path=f"results.{key}.{stat}")
    _expect(
        block["min"] <= block["mean"] <= block["max"],
        f"results.{key}",
        "must satisfy min <= mean <= max",
    )
