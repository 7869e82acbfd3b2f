"""Named scenario registry.

Every evaluation scenario of the repository -- the paper's Figure 1/2
run, the fast smoke test, failure injection, service differentiation
(batch classes and multi-app web rt goals), the consolidation-vs-static
comparison bed, a heterogeneous cluster, deep overload, a diurnal day,
a stochastic chaos soak and the zoned edge-cloud continuum (with its
cross-zone failover drill) -- is registered here as a *builder*
returning a
:class:`~repro.api.spec.ScenarioSpec`, so experiments are reproducible
from a name alone:

    >>> from repro.api import scenario_spec
    >>> spec = scenario_spec("smoke")
    >>> spec.materialize().num_nodes
    4

Builders accept keyword parameters (``seed`` everywhere, ``scale`` where
meaningful) and the resulting spec can be further adjusted with
:meth:`ScenarioSpec.with_overrides`.  To run a scenario as a
:class:`~repro.experiments.scenario.Scenario`, materialize its spec:
``scenario_spec("paper", scale=0.2).materialize()``.

This registry is the one source of the paper's parameters.  The
``paper`` scenario reproduces them:

* 25 nodes x 4 processors (3000 MHz each -> 300 GHz cluster), memory
  sized so only three jobs fit per node;
* 800 identical jobs, each capped at one processor, submitted with
  exponential inter-arrival times of mean 260 s; the submission rate
  drops near the end of the run;
* a constant transactional workload (closed session population) whose
  max-utility demand is about 70% of cluster capacity;
* placement recomputed every 600 s; horizon 70 000 s (the span of the
  paper's Figures 1-2).

``paper`` with ``scale < 1`` shrinks nodes, session population and job
arrival rate together, so the contention dynamics (ramp, crossover,
equalization, recovery) are preserved at a fraction of the simulation
cost; the horizon stays at 70 000 s because job durations do not scale.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.topology import NodeClass
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..experiments.scenario import NodeFailure
from ..faults import (
    BrownoutFaultSpec,
    CrashFaultSpec,
    FaultPlanSpec,
    FlapFaultSpec,
    ZoneOutageSpec,
)
from ..netmodel import NetworkSpec, ZoneSpec
from ..workloads.tracegen import JobTemplate
from .spec import (
    AppSpec,
    ConstantProfileSpec,
    DifferentiatedTraceSpec,
    DiurnalProfileSpec,
    NoisyProfileSpec,
    PaperTraceSpec,
    ProfileSpec,
    ScenarioSpec,
    TopologySpec,
    WeightedTemplate,
)

#: Builds a scenario spec; keyword parameters tune the family.
ScenarioBuilder = Callable[..., ScenarioSpec]

_REGISTRY: dict[str, ScenarioBuilder] = {}


def register_scenario(
    name: str, builder: ScenarioBuilder, *, overwrite: bool = False
) -> None:
    """Register ``builder`` under ``name``.

    Raises :class:`ConfigurationError` when ``name`` is empty or already
    taken (unless ``overwrite=True``).
    """
    if not name:
        raise ConfigurationError("scenario name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = builder


def get_scenario(name: str) -> ScenarioBuilder:
    """The builder registered under ``name``.

    Raises :class:`ConfigurationError` listing the registered names when
    ``name`` is unknown (same error style as the backend and policy
    registries).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown scenario {name!r} (registered: {known})"
        ) from None


def available_scenarios() -> tuple[str, ...]:
    """Sorted names of all registered scenarios."""
    return tuple(sorted(_REGISTRY))


def scenario_spec(name: str, **params) -> ScenarioSpec:
    """Build the spec registered under ``name`` with builder parameters."""
    return get_scenario(name)(**params)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
#: Transactional parameters tuned so the app's utility plateau is 0.75
#: (matching Figure 1's uncontended level) and its max-utility demand is
#: ~210 GHz on the 300 GHz cluster (matching Figure 2's demand band).
PAPER_SESSIONS = 210.0
PAPER_THINK_TIME = 0.2
PAPER_SERVICE_CYCLES = 300.0
PAPER_RT_GOAL = 0.4


def _paper_app(
    sessions: float = PAPER_SESSIONS,
    noise_rel_std: float = 0.04,
    noise_seed: int = 104729,
    max_instances: int = 25,
    app_id: str = "webapp",
    rt_goal: float = PAPER_RT_GOAL,
    profile: ProfileSpec | None = None,
) -> AppSpec:
    """The paper's transactional workload.

    A closed population of ``sessions`` clients with small think time;
    the session count is modulated by low-amplitude lognormal noise per
    control-cycle window, producing the wiggle visible in the paper's
    transactional demand curve.  ``profile`` replaces the constant paper
    intensity (noise still wraps it when ``noise_rel_std`` > 0);
    ``app_id``/``rt_goal`` support the multi-app differentiation
    scenarios.
    """
    if profile is None:
        profile = ConstantProfileSpec(sessions)
    if noise_rel_std > 0:
        profile = NoisyProfileSpec(
            base=profile, rel_std=noise_rel_std, interval=600.0, seed=noise_seed
        )
    return AppSpec(
        app_id=app_id,
        rt_goal=rt_goal,
        mean_service_cycles=PAPER_SERVICE_CYCLES,
        request_cap_mhz=3000.0,
        instance_memory_mb=400.0,
        min_instances=1,
        max_instances=max_instances,
        model_kind="closed",
        think_time=PAPER_THINK_TIME,
        profile=profile,
    )


def _scaled_paper_parts(scale: float) -> tuple[int, float, PaperTraceSpec]:
    """(num_nodes, node_ratio, job trace) of the scaled paper scenario."""
    if not 0 < scale <= 1:
        raise ConfigurationError("scale must be in (0, 1]")
    num_nodes = max(int(round(25 * scale)), 2)
    node_ratio = num_nodes / 25.0
    jobs = PaperTraceSpec(
        count=max(int(round(800 * node_ratio)), 10),
        mean_interarrival=260.0 / node_ratio,
        rate_drop_time=60_000.0,
    )
    return num_nodes, node_ratio, jobs


def _scaled_paper(
    name: str, seed: int, horizon: float, scale: float = 0.2, **parts
) -> ScenarioSpec:
    """The paper scenario scaled by ``scale``; ``parts`` replace its
    topology, apps or jobs, or add fields such as ``failures``."""
    num_nodes, node_ratio, jobs = _scaled_paper_parts(scale)
    app = _paper_app(sessions=PAPER_SESSIONS * node_ratio, max_instances=num_nodes)
    spec_parts = dict(
        topology=TopologySpec(num_nodes=num_nodes), apps=(app,), jobs=jobs
    )
    spec_parts.update(parts)
    return ScenarioSpec(name=name, seed=seed, horizon=horizon, **spec_parts)


# ----------------------------------------------------------------------
# Registered scenarios
# ----------------------------------------------------------------------
def paper(seed: int = 42, scale: float = 1.0) -> ScenarioSpec:
    """The paper's evaluation scenario (Figures 1-2), optionally scaled."""
    name = "paper-fig1-fig2" if scale >= 1.0 else f"paper-scaled-{scale:g}"
    return _scaled_paper(name, seed, 70_000.0, min(scale, 1.0))


def smoke(seed: int = 7) -> ScenarioSpec:
    """A minutes-long toy scenario used by fast integration tests."""
    return ScenarioSpec(
        name="smoke",
        seed=seed,
        horizon=6_000.0,
        topology=TopologySpec(num_nodes=4),
        apps=(_paper_app(sessions=40.0, noise_rel_std=0.0, max_instances=4),),
        jobs=PaperTraceSpec(
            count=20,
            mean_interarrival=300.0,
            rate_drop_time=4_000.0,
            template=JobTemplate(
                total_work=1_200.0 * 3000.0,  # 20 minutes at one processor
                speed_cap_mhz=3000.0,
                memory_mb=1200.0,
                goal_factor=4.0,
            ),
        ),
        controller=ControllerConfig(control_cycle=300.0),
        noise=NoiseConfig(0.0, 0.0, 0.0),
    )


def failure_recovery(seed: int = 3) -> ScenarioSpec:
    """Two of five nodes fail mid-run; one later recovers."""
    return _scaled_paper(
        "failure-recovery",
        seed,
        40_000.0,
        failures=(
            NodeFailure(at=12_000.0, node_id="node001", restore_at=26_000.0),
            NodeFailure(at=18_000.0, node_id="node003"),  # permanent loss
        ),
    )


#: Differentiated job classes: tight (gold) vs loose (silver) SLA goals.
GOLD_TEMPLATE = JobTemplate(
    total_work=9_000.0 * 3000.0,
    speed_cap_mhz=3000.0,
    memory_mb=1200.0,
    goal_factor=2.0,
    job_class="gold",
    importance=1.0,
)
SILVER_TEMPLATE = JobTemplate(
    total_work=9_000.0 * 3000.0,
    speed_cap_mhz=3000.0,
    memory_mb=1200.0,
    goal_factor=6.0,
    job_class="silver",
    importance=1.0,
)


def service_differentiation(seed: int = 11) -> ScenarioSpec:
    """Two job classes with different completion-time goals, one cluster."""
    return _scaled_paper(
        "service-differentiation",
        seed,
        70_000.0,
        jobs=DifferentiatedTraceSpec(
            count=60,
            mean_interarrival=520.0,
            templates=(
                WeightedTemplate(0.5, GOLD_TEMPLATE),
                WeightedTemplate(0.5, SILVER_TEMPLATE),
            ),
            stream="diff-jobs",
        ),
    )


def consolidation(seed: int = 42, scale: float = 0.2) -> ScenarioSpec:
    """The policy-comparison bed: the scaled paper scenario, run once per
    registered policy (utility-driven vs the static/one-sided baselines)."""
    return _scaled_paper("consolidation", seed, 70_000.0, scale)


def heterogeneous_cluster(seed: int = 21) -> ScenarioSpec:
    """Mixed hardware generations: a modern rack plus a legacy rack.

    The legacy nodes have less CPU (2 x 2000 MHz) and memory for only two
    jobs, so the placement has to respect per-node shapes instead of a
    uniform grid.  The transactional demand is sized to ~70% of the mixed
    cluster's 48 GHz, mirroring the paper's contention level.
    """
    classes = (
        NodeClass(
            name="modern", count=3, processors=4,
            mhz_per_processor=3000.0, memory_mb=4000.0,
        ),
        NodeClass(
            name="legacy", count=3, processors=2,
            mhz_per_processor=2000.0, memory_mb=2400.0,
        ),
    )
    capacity = sum(cls.cpu_capacity for cls in classes)
    capacity_ratio = capacity / 300_000.0  # vs the paper's 300 GHz cluster
    return ScenarioSpec(
        name="heterogeneous-cluster",
        seed=seed,
        horizon=40_000.0,
        topology=TopologySpec(classes=classes),
        apps=(
            _paper_app(
                sessions=PAPER_SESSIONS * capacity_ratio,
                max_instances=sum(cls.count for cls in classes),
            ),
        ),
        jobs=PaperTraceSpec(
            count=30,
            mean_interarrival=1_600.0,
            rate_drop_time=30_000.0,
        ),
    )


def multi_app_differentiation(seed: int = 13) -> ScenarioSpec:
    """Two web applications with different response-time goals.

    Transactional-side service differentiation: a premium app with a
    tight rt goal (half the paper's) and a budget app with a loose one
    (2.5x the paper's) share the scaled cluster with the batch workload.
    The utility controller should hold the premium app's response time
    by shifting capacity from the budget app under contention, not by
    starving the long-running jobs.
    """
    num_nodes, node_ratio, jobs = _scaled_paper_parts(0.2)
    sessions = PAPER_SESSIONS * node_ratio
    return ScenarioSpec(
        name="multi-app-differentiation",
        seed=seed,
        horizon=40_000.0,
        topology=TopologySpec(num_nodes=num_nodes),
        apps=(
            _paper_app(
                sessions=sessions * 0.55,
                max_instances=num_nodes,
                app_id="web-premium",
                rt_goal=PAPER_RT_GOAL * 0.5,
                noise_seed=104729,
            ),
            _paper_app(
                sessions=sessions * 0.45,
                max_instances=num_nodes,
                app_id="web-budget",
                rt_goal=PAPER_RT_GOAL * 2.5,
                noise_seed=15485863,
            ),
        ),
        jobs=jobs,
    )


def diurnal(seed: int = 17) -> ScenarioSpec:
    """A full day under a sinusoidal (diurnal) transactional load.

    The web workload swings +-60% around the paper's scaled intensity
    over a 24 h period (trough at night, peak mid-day), while batch jobs
    arrive all day; the controller has to consolidate toward the jobs at
    night and hand capacity back for the daytime peak.
    """
    num_nodes, node_ratio, _ = _scaled_paper_parts(0.2)
    base_sessions = PAPER_SESSIONS * node_ratio
    day = 86_400.0
    return ScenarioSpec(
        name="diurnal",
        seed=seed,
        horizon=day,
        topology=TopologySpec(num_nodes=num_nodes),
        apps=(
            _paper_app(
                sessions=base_sessions,
                max_instances=num_nodes,
                profile=DiurnalProfileSpec(
                    base=base_sessions,
                    amplitude=0.6 * base_sessions,
                    period=day,
                    # Trough at t=0 (night), peak mid-day.
                    phase=day / 4,
                ),
            ),
        ),
        jobs=PaperTraceSpec(
            count=90,
            mean_interarrival=900.0,
            rate_drop_time=72_000.0,
        ),
    )


def overload(seed: int = 5) -> ScenarioSpec:
    """Deep aggregate overload: offered demand well above capacity.

    Jobs arrive at roughly double the scaled paper rate, so offered
    long-running load (~69 GHz) plus the transactional demand (~42 GHz)
    far exceeds the 60 GHz cluster; exercises eviction churn bounds,
    completion protection and starvation avoidance.
    """
    return _scaled_paper(
        "overload",
        seed,
        30_000.0,
        jobs=PaperTraceSpec(
            count=80,
            mean_interarrival=650.0,
            rate_drop_time=24_000.0,
        ),
    )


def chaos_soak(seed: int = 23) -> ScenarioSpec:
    """The scaled paper scenario under a full stochastic fault plan.

    Every fault model at once: node crashes (MTBF 25 ks, MTTR 4 ks),
    correlated two-zone outages, half-speed capacity brownouts and
    flapping nodes -- all compiled deterministically from the scenario
    seed, so the run is reproducible and ``Experiment.replicate``
    aggregates over fault realizations.  The soak bed for the
    graceful-degradation control plane (pair with the ``chaos-utility``
    policy to also inject controller-level decide() failures).
    """
    return _scaled_paper(
        "chaos-soak",
        seed,
        40_000.0,
        faults=FaultPlanSpec(
            crashes=(CrashFaultSpec(mtbf=25_000.0, mttr=4_000.0),),
            zone_outages=(ZoneOutageSpec(zones=2, mtbf=60_000.0, mttr=2_500.0),),
            brownouts=(
                BrownoutFaultSpec(mtbf=18_000.0, duration=3_000.0, fraction=0.5),
            ),
            flaps=(FlapFaultSpec(mtbf=45_000.0, flaps=3, down=150.0, up=450.0),),
        ),
    )


def _edge_cloud_parts() -> tuple[tuple[NodeClass, ...], NetworkSpec]:
    """Topology and network of the edge-cloud continuum scenarios.

    Three zones: a small edge rack close to most users, a metro site one
    hop away, and a large cloud region far from everyone.  The cloud
    class is listed *first* so a latency-blind solver -- which orders
    candidates by free CPU -- naturally lands instances in the cloud,
    giving the latency-aware objective a meaningful baseline to beat.
    """
    classes = (
        NodeClass(
            name="cloud", count=3, processors=4,
            mhz_per_processor=3000.0, memory_mb=4000.0,
        ),
        NodeClass(
            name="metro", count=2, processors=4,
            mhz_per_processor=2500.0, memory_mb=4000.0,
        ),
        NodeClass(
            name="edge", count=3, processors=2,
            mhz_per_processor=2000.0, memory_mb=2400.0,
        ),
    )
    network = NetworkSpec(
        zones=(
            ZoneSpec("edge", users=70.0),
            ZoneSpec("metro", users=25.0),
            ZoneSpec("cloud", users=5.0),
        ),
        rtt_ms=(
            (0.0, 30.0, 150.0),
            (30.0, 0.0, 120.0),
            (150.0, 120.0, 0.0),
        ),
    )
    return classes, network


def edge_cloud_continuum(seed: int = 19) -> ScenarioSpec:
    """Three-zone edge/metro/cloud cluster with edge-skewed users.

    Most of the user population sits next to the small edge rack; the
    transactional demand (~9 GHz, three instances at the request cap)
    fits entirely inside the distant 36 GHz cloud region, so a
    latency-blind controller serves everyone from the cloud at ~135 ms
    expected RTT while the latency-aware objective
    (``latency_weight=1.0``) pulls the instances to the edge rack.
    The response-time goal is half the paper's, tight enough
    that the cloud's network leg alone breaks the end-to-end SLA --
    ``latency_sla_attainment`` and ``in_zone_fraction`` separate the
    two configurations (the latency-blind baseline is this same spec
    with ``controller.latency_weight`` overridden to 0).
    """
    classes, network = _edge_cloud_parts()
    return ScenarioSpec(
        name="edge-cloud-continuum",
        seed=seed,
        horizon=40_000.0,
        topology=TopologySpec(classes=classes),
        apps=(
            _paper_app(
                sessions=9.0,
                max_instances=sum(cls.count for cls in classes),
                rt_goal=PAPER_RT_GOAL * 0.5,
            ),
        ),
        jobs=PaperTraceSpec(
            count=30,
            mean_interarrival=1_600.0,
            rate_drop_time=30_000.0,
        ),
        controller=ControllerConfig(latency_weight=1.0),
        network=network,
    )


def cross_zone_failover(seed: int = 29) -> ScenarioSpec:
    """The continuum topology with a recurring edge-zone outage.

    A stochastic zone-outage process (named zone ``"edge"``) periodically
    takes the whole edge rack down; the latency-aware controller must
    fail the user-facing instances over to the metro site and pull them
    back to the edge on recovery, trading churn against the latency SLA.
    Composes the network model with the stochastic fault plane.
    """
    classes, network = _edge_cloud_parts()
    return ScenarioSpec(
        name="cross-zone-failover",
        seed=seed,
        horizon=40_000.0,
        topology=TopologySpec(classes=classes),
        apps=(
            _paper_app(
                sessions=9.0,
                max_instances=sum(cls.count for cls in classes),
                rt_goal=PAPER_RT_GOAL * 0.5,
            ),
        ),
        jobs=PaperTraceSpec(
            count=30,
            mean_interarrival=1_600.0,
            rate_drop_time=30_000.0,
        ),
        controller=ControllerConfig(latency_weight=1.0),
        faults=FaultPlanSpec(
            zone_outages=(
                ZoneOutageSpec(zones=("edge",), mtbf=15_000.0, mttr=3_000.0),
            ),
        ),
        network=network,
    )


register_scenario("paper", paper)
register_scenario("smoke", smoke)
register_scenario("failure-recovery", failure_recovery)
register_scenario("service-differentiation", service_differentiation)
register_scenario("consolidation", consolidation)
register_scenario("heterogeneous-cluster", heterogeneous_cluster)
register_scenario("overload", overload)
register_scenario("multi-app-differentiation", multi_app_differentiation)
register_scenario("diurnal", diurnal)
register_scenario("chaos-soak", chaos_soak)
register_scenario("edge-cloud-continuum", edge_cloud_continuum)
register_scenario("cross-zone-failover", cross_zone_failover)
