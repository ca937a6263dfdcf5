"""The SLO report: one JSON document per serve session, plus markdown.

``repro serve`` / ``repro loadgen`` end by emitting a
``repro-serve/1`` document — manifest-stamped like every other exported
artifact, so a report is attributable to a config hash, engine, seed and
git SHA.  :func:`validate_slo_report` is the schema check the CI smoke
step and the tests rely on (quantile monotonicity, request count
conservation, attainment in [0, 1]); :func:`render_slo_report` prints
the human-readable summary table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.obs import PHASES

#: schema tag of the serve SLO report document
SLO_SCHEMA = "repro-serve/1"


def build_slo_report(server, offsets: List[float]) -> Dict[str, Any]:
    """Assemble the report document from a finished server run."""
    from repro.metrics import RunManifest
    from repro.serve.loadgen import summarize_offsets

    recorder = server.recorder
    spec = server.scenario.serve
    attainment = recorder.attainment
    sizes = recorder.batch_sizes
    doc: Dict[str, Any] = {
        "schema": SLO_SCHEMA,
        "manifest": RunManifest.collect(server.session).as_dict(),
        "scenario": server.scenario.to_dict(),
        "engine": server.engine.name,
        "profile": server.scenario.profile,
        "policy": server.policy.as_dict(),
        "arrival": dict({"process": spec.arrival,
                         "rate_rps": spec.rate_rps,
                         "burst_factor": spec.burst_factor,
                         "seed": server.scenario.seed},
                        **summarize_offsets(offsets)),
        "requests": {
            "submitted": recorder.requests,
            "completed": recorder.completed,
            "shed": recorder.shed,
            "timeout": recorder.timeouts,
            "error": recorder.errors,
        },
        "latency_ms": recorder.latency.summary_ms()
        if recorder.latency.count else None,
        "phases_ms": {
            phase: {"p50": recorder.phase_latency[phase].quantile(0.5) * 1e3,
                    "p99": recorder.phase_latency[phase].quantile(0.99) * 1e3,
                    "mean": recorder.phase_latency[phase].mean_s * 1e3}
            for phase in PHASES
        } if recorder.latency.count else None,
        "batches": {
            "count": len(sizes),
            "size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
            "size_max": max(sizes) if sizes else 0,
            "sim_cycles": server.sim_cycles,
            "sim_macs": server.sim_macs,
        },
        "queue": {
            "depth_peak": recorder.queue_depth_peak,
            "depth_mean": recorder.queue_depth_mean,
            "inflight_peak": recorder.inflight_peak,
        },
        "wall_s": server.wall_s,
        "throughput_rps": recorder.completed / server.wall_s
        if server.wall_s > 0 else 0.0,
        "slo": {
            "budget_ms": recorder.budget_s * 1e3,
            "target": server.policy.slo_target,
            "attainment": attainment,
            "met": attainment >= server.policy.slo_target,
        },
        "quantile_error_bound": recorder.latency.relative_error_bound,
    }
    return doc


def validate_slo_report(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Schema check for SLO reports; raises ``ValueError`` on problems."""
    if not isinstance(doc, Mapping):
        raise ValueError("SLO report must be a JSON object")
    if doc.get("schema") != SLO_SCHEMA:
        raise ValueError(f"unknown SLO report schema {doc.get('schema')!r}")
    for key in ("manifest", "scenario", "engine", "policy", "arrival",
                "requests", "batches", "queue", "slo", "wall_s",
                "throughput_rps"):
        if key not in doc:
            raise ValueError(f"SLO report missing {key!r}")
    requests = doc["requests"]
    outcomes = ("completed", "shed", "timeout", "error")
    for key in ("submitted",) + outcomes:
        if not isinstance(requests.get(key), int) or requests[key] < 0:
            raise ValueError(f"SLO report requests.{key} must be a "
                             "non-negative integer")
    accounted = sum(requests[key] for key in outcomes)
    if accounted != requests["submitted"]:
        raise ValueError(
            f"SLO report loses requests: completed+shed+timeout+error="
            f"{accounted} but submitted={requests['submitted']}")
    latency = doc.get("latency_ms")
    if requests["completed"] and latency is None:
        raise ValueError("SLO report has completed requests but no "
                         "latency_ms block")
    if latency is not None:
        for key in ("p50", "p95", "p99", "mean", "min", "max"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"SLO report latency_ms.{key} missing")
        if not latency["p50"] <= latency["p95"] <= latency["p99"]:
            raise ValueError(
                f"SLO report latency quantiles not monotone: "
                f"p50={latency['p50']} p95={latency['p95']} "
                f"p99={latency['p99']}")
        if not latency["min"] <= latency["p50"] <= latency["max"]:
            raise ValueError("SLO report p50 outside [min, max]")
        phases = doc.get("phases_ms")
        if not isinstance(phases, Mapping) or set(phases) != set(PHASES):
            raise ValueError(
                "SLO report phases_ms must cover exactly the six obs "
                f"phases {list(PHASES)}")
    slo = doc["slo"]
    for key in ("budget_ms", "target", "attainment", "met"):
        if key not in slo:
            raise ValueError(f"SLO report slo.{key} missing")
    if not 0.0 <= slo["attainment"] <= 1.0:
        raise ValueError(
            f"SLO report attainment must be in [0, 1], got "
            f"{slo['attainment']}")
    if slo["met"] != (slo["attainment"] >= slo["target"]):
        raise ValueError("SLO report 'met' flag contradicts attainment "
                         "vs target")
    return {"requests": requests["submitted"],
            "batches": doc["batches"]["count"],
            "met": slo["met"]}


def render_slo_report(doc: Mapping[str, Any]) -> str:
    """Markdown summary of one SLO report (CLI default output)."""
    requests = doc["requests"]
    slo = doc["slo"]
    arrival = doc["arrival"]
    lines = [
        f"# SLO report — {doc['scenario']['name']} on `{doc['engine']}`",
        "",
        f"device profile: `{doc.get('profile', 'ncpu-65nm')}`",
        f"arrival: {arrival['process']} @ {arrival['rate_rps']:g} rps "
        f"({requests['submitted']} requests over "
        f"{arrival['duration_s'] * 1e3:.1f} ms)",
        f"policy: window {doc['policy']['batch_window_ms']:g} ms, "
        f"max batch {doc['policy']['max_batch']}, "
        f"queue depth {doc['policy']['max_queue_depth']}, "
        f"timeout {doc['policy']['timeout_ms']:g} ms",
        "",
        "| outcome | count |",
        "|---|---|",
        f"| completed | {requests['completed']} |",
        f"| shed | {requests['shed']} |",
        f"| timeout | {requests['timeout']} |",
        f"| error | {requests['error']} |",
        "",
    ]
    latency = doc.get("latency_ms")
    if latency:
        lines += [
            "| latency | ms |",
            "|---|---|",
            *(f"| {key} | {latency[key]:.3f} |"
              for key in ("p50", "p95", "p99", "mean", "min", "max")),
            "",
            "| phase | p50 ms | p99 ms |",
            "|---|---|---|",
            *(f"| {phase} | {doc['phases_ms'][phase]['p50']:.3f} "
              f"| {doc['phases_ms'][phase]['p99']:.3f} |"
              for phase in PHASES),
            "",
        ]
    verdict = "MET" if slo["met"] else "MISSED"
    lines += [
        f"batches: {doc['batches']['count']} "
        f"(mean size {doc['batches']['size_mean']:.1f}, "
        f"max {doc['batches']['size_max']}); "
        f"queue peak {doc['queue']['depth_peak']}, "
        f"inflight peak {doc['queue']['inflight_peak']}",
        f"throughput: {doc['throughput_rps']:.0f} rps over "
        f"{doc['wall_s'] * 1e3:.1f} ms "
        f"({doc['batches']['sim_cycles']} simulated cycles)",
        f"SLO {verdict}: {slo['attainment']:.1%} of requests under "
        f"{slo['budget_ms']:g} ms (target {slo['target']:.0%}, quantile "
        f"error bound {doc['quantile_error_bound']:.1%})",
        "",
    ]
    return "\n".join(lines)
