"""Phase attribution: exact cycle splits, engine runs, serialization."""

import pytest

from repro.bnn.accelerator import BatchTiming
from repro.cpu.env import ExecStats
from repro.engine import engine_names
from repro.errors import ObservabilityError
from repro.obs import (
    INFERENCE,
    INIT,
    MEMORY_IO,
    OVERHEAD,
    PHASES,
    PREPROCESS,
    ATTRIBUTION_SCHEMA,
    attribute_chained,
    attribute_scenario,
    attribution_document,
    bnn_phase_cycles,
    chained_phase_cycles,
    cpu_phase_cycles,
    phase_fractions,
    render_attribution,
    timeline_phase_cycles,
    validate_attribution_dict,
)
from repro.scenario import EngineSpec, Scenario, WorkloadSpec
from repro.sim import use_session
from repro.trace import tracing

ENGINES = sorted(set(engine_names()) & {"accurate", "fast"})


def bnn_scenario(**overrides):
    defaults = dict(
        name="obs-bnn",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(48, 32, 10)),
        seed=3, batch_size=12)
    defaults.update(overrides)
    return Scenario(**defaults)


def cpu_scenario():
    return Scenario(name="obs-cpu",
                    workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                          layer_sizes=(), iterations=2))


class TestCycleAttributors:
    def test_cpu_split_is_exact(self):
        stats = ExecStats(cycles=120, instructions=100, stalls=10,
                          flushes=6, mem_reads=20, mem_writes=10)
        phases = cpu_phase_cycles(stats)
        assert phases[INIT] == 4  # pipeline fill
        assert phases[MEMORY_IO] == 30
        assert phases[INFERENCE] == 70
        assert phases[OVERHEAD] == 16
        assert sum(phases.values()) == 120

    def test_bnn_split_is_exact(self):
        timing = BatchTiming(n_inputs=8, latency_cycles=50, total_cycles=200,
                             interval_cycles=15, macs=0,
                             weight_stream_cycles=0)
        phases = bnn_phase_cycles(timing)
        assert phases[INIT] == 35  # fill beyond the steady interval
        assert phases[INFERENCE] == 8 * 15
        assert phases[MEMORY_IO] == 200 - (50 + 7 * 15)
        assert sum(phases.values()) == 200

    def test_chained_split_matches_makespan(self):
        phases = chained_phase_cycles(n_inputs=4, front_latency=30,
                                      front_interval=10, back_latency=25,
                                      back_interval=12, dma_cycles=5)
        makespan = 30 + 5 + 25 + 3 * 12
        assert sum(phases.values()) == makespan
        assert phases[MEMORY_IO] == 5
        assert phases[INIT] == (30 - 10) + (25 - 12)

    def test_timeline_split_covers_all_segments(self):
        class Segment:
            def __init__(self, kind, cycles):
                self.kind, self.cycles = kind, cycles

        class Timeline:
            segments = [Segment("cpu", 10), Segment("bnn", 30),
                        Segment("dma", 5), Segment("switch", 2),
                        Segment("idle", 3), Segment("mystery", 1)]

        phases = timeline_phase_cycles(Timeline())
        assert phases[PREPROCESS] == 10
        assert phases[INFERENCE] == 30
        assert phases[MEMORY_IO] == 5
        assert phases[INIT] == 2
        assert phases[OVERHEAD] == 4  # idle + unknown kinds
        assert sum(phases.values()) == 51

    def test_fractions_sum_to_one_or_zero(self):
        assert sum(phase_fractions({p: 5 for p in PHASES}).values()) == \
            pytest.approx(1.0)
        assert set(phase_fractions({p: 0 for p in PHASES}).values()) == {0.0}


@pytest.mark.parametrize("engine", ENGINES)
class TestAttributeScenario:
    def test_bnn_run_attributes_both_planes(self, engine):
        with use_session(cache_enabled=False):
            attribution = attribute_scenario(bnn_scenario(), engine=engine)
        attribution.check()  # cycles exact, wall within one tick
        assert attribution.kind == "bnn"
        assert attribution.engine == engine
        assert attribution.total_cycles > 0
        assert attribution.total_wall_s > 0
        assert set(attribution.cycles) == set(PHASES)

    def test_cpu_run_attributes_both_planes(self, engine):
        with use_session(cache_enabled=False):
            attribution = attribute_scenario(cpu_scenario(), engine=engine)
        attribution.check()
        assert attribution.kind == "cpu"
        assert attribution.cycles[INFERENCE] > 0
        assert attribution.detail["stop_reason"] == "halt"

    def test_chained_run_matches_soc_makespan(self, engine):
        with use_session(cache_enabled=False):
            attribution = attribute_chained(bnn_scenario(), engine=engine)
        attribution.check()
        assert attribution.kind == "chained"
        assert attribution.cycles[MEMORY_IO] > 0  # the DMA hop


def pinned_cpu(program, iterations, prefer_functional=False):
    return Scenario(name=f"pinned-{program}",
                    workload=WorkloadSpec(kind="cpu", name=program,
                                          layer_sizes=(),
                                          iterations=iterations),
                    engine=EngineSpec(prefer_functional=prefer_functional))


#: the 100-100-100-10 classifier of the fabricated chip's array
PINNED_BNN = Scenario(name="pinned-bnn",
                      workload=WorkloadSpec(kind="bnn", name="random",
                                            layer_sizes=(100, 100, 100, 10)),
                      seed=0, batch_size=200)

#: the functional ISS and the fast interpreter both count one cycle per
#: instruction, so their Dhrystone split is the same
DHRYSTONE_ISA = {MEMORY_IO: 5145, INFERENCE: 15059}


class TestPinnedPhaseCycles:
    """Integer phase cycles of fixed scenarios, pinned exactly: a change
    to a timing model, a workload kernel or an attributor moves them."""

    @pytest.mark.parametrize("scenario, engine, expected", [
        pytest.param(pinned_cpu("dhrystone", 40), "accurate",
                     {INIT: 4, MEMORY_IO: 5145, INFERENCE: 15059,
                      OVERHEAD: 7232}, id="dhrystone-pipeline"),
        pytest.param(pinned_cpu("dhrystone", 40, prefer_functional=True),
                     "accurate", DHRYSTONE_ISA, id="dhrystone-functional"),
        pytest.param(pinned_cpu("dhrystone", 40), "fast", DHRYSTONE_ISA,
                     id="dhrystone-fast"),
        pytest.param(pinned_cpu("hotspot", 50), "accurate",
                     {INIT: 4, MEMORY_IO: 1600, INFERENCE: 5952,
                      OVERHEAD: 3898}, id="hotspot-pipeline"),
        pytest.param(PINNED_BNN, "accurate", {INIT: 208, INFERENCE: 20800},
                     id="bnn-accurate"),
        pytest.param(PINNED_BNN, "fast", {INIT: 208, INFERENCE: 20800},
                     id="bnn-fast"),
    ])
    def test_phase_cycles_reproduce_exactly(self, scenario, engine,
                                            expected):
        with use_session(cache_enabled=False):
            attribution = attribute_scenario(scenario, engine=engine)
        assert attribution.cycles == {phase: expected.get(phase, 0)
                                      for phase in PHASES}
        assert attribution.total_cycles == sum(expected.values())


class TestAttributeScenarioContracts:
    def test_total_cycles_identical_across_engines(self):
        totals = set()
        for engine in ENGINES:
            with use_session(cache_enabled=False):
                totals.add(attribute_scenario(bnn_scenario(),
                                              engine=engine).total_cycles)
        assert len(totals) == 1  # accounting is engine-independent

    def test_phase_events_published(self):
        with use_session(cache_enabled=False) as session:
            with tracing(session) as tracer:
                attribution = attribute_scenario(bnn_scenario(),
                                                 engine="fast")
        phases = [event for event in tracer.events
                  if event.track == "obs.fast"]
        assert [event.name for event in phases] == list(PHASES)
        assert [event.dur for event in phases] == \
            [attribution.cycles[phase] for phase in PHASES]
        assert session.stats.get("obs.runs") == 1

    def test_chained_rejects_cpu_scenarios(self):
        with use_session(cache_enabled=False):
            with pytest.raises(ObservabilityError, match="bnn"):
                attribute_chained(cpu_scenario())

    def test_chained_rejects_single_layer_models(self):
        scenario = bnn_scenario(
            workload=WorkloadSpec(kind="bnn", name="random",
                                  layer_sizes=(32, 10)))
        with use_session(cache_enabled=False):
            with pytest.raises(ObservabilityError, match="2 layers"):
                attribute_chained(scenario)


class TestSerialization:
    def attribution(self):
        with use_session(cache_enabled=False):
            return attribute_scenario(bnn_scenario(), engine="fast")

    def test_as_dict_round_trips_through_validator(self):
        validate_attribution_dict(self.attribution().as_dict())

    def test_validator_rejects_drifted_cycles(self):
        data = self.attribution().as_dict()
        data["cycles"]["inference"] += 1
        with pytest.raises(ObservabilityError, match="sum to"):
            validate_attribution_dict(data)

    def test_validator_rejects_missing_keys(self):
        data = self.attribution().as_dict()
        del data["total_wall_s"]
        with pytest.raises(ObservabilityError, match="total_wall_s"):
            validate_attribution_dict(data)

    def test_document_schema(self):
        scenario = bnn_scenario()
        with use_session(cache_enabled=False):
            runs = [attribute_scenario(scenario, engine="fast")]
        document = attribution_document(runs, scenario)
        assert document["schema"] == ATTRIBUTION_SCHEMA == \
            "repro-attribution/2"
        assert document["scenario"] == scenario.to_dict()
        for entry in document["runs"]:
            validate_attribution_dict(entry)
            assert "workers" not in entry
            assert "serial_fallback" not in entry

    def test_render_lists_phases_and_ab_summary(self):
        with use_session(cache_enabled=False):
            runs = [attribute_scenario(bnn_scenario(), engine=engine)
                    for engine in ("accurate", "fast")]
        text = render_attribution(runs)
        for phase in PHASES:
            assert phase in text
        assert "A/B summary" in text
        assert "`accurate`" in text and "`fast`" in text


class TestRunScenarioAttribute:
    def test_attribution_is_opt_in(self):
        from repro.scenario.materialize import run_scenario

        with use_session(cache_enabled=False):
            summary = run_scenario(cpu_scenario())
        assert "phase_cycles" not in summary
