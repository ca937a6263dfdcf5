"""Microarchitectural verification through the tracer's per-cycle events."""

from repro.cpu import FastCPU, PipelinedCPU
from repro.isa import assemble
from repro.sim import use_session
from repro.trace import (
    CPU_TRACK,
    CYCLE_EVENT,
    STAGES,
    chrome_trace,
    install_tracer,
    iter_chrome_events,
    render_pipeline_diagram,
    tracing,
)
from repro.workloads.dhrystone import dhrystone_asm

PIPELINE_EVENTS = (CYCLE_EVENT, "cpu.stall", "cpu.flush")


def trace_run(source, **kwargs):
    """Run ``source`` on a pipeline under a fresh tracer."""
    with use_session() as session:
        with tracing(session, capacity=None) as tracer:
            result = PipelinedCPU(assemble(source), **kwargs).run()
    return tracer, result


def run_traced(source, **kwargs):
    """Returns (records, result): one ``(cycle, {stage: pc})`` record per
    cycle of the run."""
    tracer, result = trace_run(source, **kwargs)
    records = [(int(event.ts) + 1, {stage: event.args[stage]
                                    for stage in STAGES})
               for event in tracer.events if event.name == CYCLE_EVENT]
    return records, result


def stage_history(records, stage):
    return [stages[stage] for _, stages in records]


def journey(records, pc):
    """Stage -> cycles during which the instruction at ``pc`` sat there."""
    path = {stage: [] for stage in STAGES}
    for cycle, stages in records:
        for stage, occupant in stages.items():
            if occupant == pc:
                path[stage].append(cycle)
    return path


class TestStraightLineFlow:
    def test_instruction_visits_stages_in_order(self):
        records, _ = run_traced("nop\nnop\nnop\nebreak")
        path = journey(records, 0)  # the first nop
        assert path["IF"] == [1]
        assert path["ID"] == [2]
        assert path["EX"] == [3]
        assert path["MEM"] == [4]
        assert path["WB"] == [5]

    def test_one_instruction_enters_per_cycle(self):
        records, _ = run_traced("nop\nnop\nnop\nebreak")
        fetched = [pc for pc in stage_history(records, "IF") if pc is not None]
        assert fetched[:4] == [0, 4, 8, 12]

    def test_pipeline_full_mid_run(self):
        records, _ = run_traced("nop\nnop\nnop\nnop\nnop\nebreak")
        fullest = max(sum(pc is not None for pc in stages.values())
                      for _, stages in records)
        assert fullest == 5


class TestHazardsInTrace:
    def test_load_use_bubble_visible(self):
        source = """
            li a1, 64
            lw a2, 0(a1)
            addi a3, a2, 1
            ebreak
        """
        records, result = run_traced(source)
        assert result.stats.stalls == 1
        # the consumer (pc=8) sits in ID for two consecutive cycles
        assert len(journey(records, 8)["ID"]) == 2
        # and EX has exactly one hazard bubble beyond the fill
        ex = stage_history(records, "EX")
        mid_bubbles = [i for i, pc in enumerate(ex[2:], start=2) if pc is None]
        assert len(mid_bubbles) >= 1

    def test_taken_branch_squashes_wrong_path(self):
        source = """
            beq x0, x0, target
            li a0, 99
            li a1, 99
        target:
            ebreak
        """
        records, _ = run_traced(source)
        # the wrong-path instruction (pc=4) is fetched but never reaches EX
        wrong = journey(records, 4)
        assert wrong["IF"] or wrong["ID"]  # it was in flight
        assert wrong["EX"] == []
        assert wrong["WB"] == []

    def test_no_forwarding_extends_id_occupancy(self):
        source = "li a0, 1\naddi a1, a0, 1\nebreak"
        fast_records, _ = run_traced(source)
        slow_records, _ = run_traced(source, forwarding=False)
        assert (len(journey(slow_records, 4)["ID"])
                > len(journey(fast_records, 4)["ID"]))


class TestDiagramRendering:
    def test_render_contains_stage_headers(self):
        tracer, _ = trace_run("nop\nebreak")
        text = render_pipeline_diagram(tracer)
        for stage in STAGES:
            assert stage in text

    def test_render_bubbles_as_dash(self):
        tracer, _ = trace_run("nop\nebreak")
        rows = render_pipeline_diagram(tracer).splitlines()
        assert rows[1].split() == ["1", "0", "-", "-", "-", "-"]

    def test_capture_respects_limit(self):
        """The tracer's ring buffer bounds what a long run records."""
        with use_session() as session:
            tracer = install_tracer(session, capacity=3)
            PipelinedCPU(assemble("nop\nnop\nnop\nnop\nebreak")).run()
        assert len(tracer) == 3
        assert tracer.dropped > 0


def lane_overlaps(payload, prefix):
    """Pairs of spans that overlap on any lane whose name starts with
    ``prefix``, in the exported Chrome trace."""
    lanes = {event["tid"]: event["args"]["name"]
             for event in payload["traceEvents"]
             if event["name"] == "thread_name"}
    spans = {}
    for event in iter_chrome_events(payload):
        if event["ph"] == "X" and lanes[event["tid"]].startswith(prefix):
            spans.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"]))
    overlaps = 0
    for lane in spans.values():
        lane.sort()
        overlaps += sum(start < previous_end for (_, previous_end), (start, _)
                        in zip(lane, lane[1:]))
    return overlaps


class TestTrackCursor:
    def test_successive_cpus_never_overlap_on_a_stage_lane(self):
        program = assemble(dhrystone_asm(1))
        with use_session() as session:
            with tracing(session, capacity=None) as tracer:
                first = PipelinedCPU(program).run().stats.cycles
                second = PipelinedCPU(program).run().stats.cycles
        cycles = [event for event in tracer.events
                  if event.name == CYCLE_EVENT]
        assert [event.ts for event in cycles] == \
            list(range(first + second))
        assert tracer.cursor(CPU_TRACK) == first + second
        assert lane_overlaps(chrome_trace(tracer), f"{CPU_TRACK}/") == 0

    def test_chunked_run_records_what_one_run_records(self):
        program = assemble(dhrystone_asm(1))

        def pipeline_events(chunk):
            with use_session() as session:
                with tracing(session, capacity=None) as tracer:
                    cpu = PipelinedCPU(program)
                    while cpu.run(max_cycles=cpu.stats.cycles
                                  + chunk).stop_reason == "max_cycles":
                        pass
            return [event.to_dict() for event in tracer.events
                    if event.name in PIPELINE_EVENTS]

        whole = pipeline_events(10 ** 9)
        assert pipeline_events(7) == whole
        assert pipeline_events(1) == whole

    def test_cpu_run_marks_the_end_of_its_run_on_its_own_track(self):
        program = assemble(dhrystone_asm(1))
        with use_session() as session:
            with tracing(session, capacity=None) as tracer:
                pipelined = PipelinedCPU(program).run().stats.cycles
                fast = FastCPU(program).run().stats.cycles
                FastCPU(program).run()
        marks = [(event.track, event.ts) for event in tracer.events
                 if event.name == "cpu.run"]
        assert marks == [(CPU_TRACK, pipelined), ("cpu.fastpath", fast),
                         ("cpu.fastpath", 2 * fast)]
