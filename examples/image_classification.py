"""The paper's image-classification use case, end to end.

A raw RGB frame is pre-processed by real RV32I assembly (resize, grayscale
filter, normalization) running on the NCPU's banked SRAM, the core flips
into BNN mode with ``trans_bnn``, and the 4x100 binary network classifies
the digit — all data staying local, which is the paper's whole point.

The script then compares the two-core NCPU SoC against the conventional
CPU + accelerator baseline on a batch of frames (paper Fig 16/17: 43 %
end-to-end speedup), and finally classifies a large evaluation set through
both functional engines — the accurate int32-matmul path and the fast
engine's whole-batch GEMM — to show they agree bit-for-bit while the fast
engine delivers an order of magnitude more host throughput.

Run:  python examples/image_classification.py     (~30 s: trains the BNN)
"""

import time

import numpy as np

from repro.bnn import BNNAccelerator, synthetic_mnist
from repro.core import NCPUCore, SchedulerConfig, compare_end_to_end
from repro.experiments.models import image_use_case
from repro.isa import assemble
from repro.workloads import image_pipeline as ip
from repro.workloads import layout

print("training the image BNN on the synthetic-MNIST stand-in ...")
use_case = image_use_case()
print(f"  4x100 BNN accuracy: {use_case.accuracy:.1%}")

# ---- single-core functional flow -----------------------------------------
dataset = synthetic_mnist(n_samples=12, seed=42)
core = NCPUCore()
core.load_model(use_case.model)

correct = 0
for image, label in zip(dataset.images, dataset.labels):
    raw = ip.synthesize_raw_frame(image.reshape(16, 16))
    ip.write_raw_frame(core.memory.data_memory(), raw, base=layout.RAW_BASE)
    source = """
        li a0, 256
        mv_neu 0, a0
        li a0, 1
        mv_neu 1, a0
    """ + ip.full_pipeline_asm(ip.ImageShape(32, 32), finish="trans_bnn")
    run = core.run_cpu_program(assemble(source))
    assert run.stop_reason == "trans_bnn"
    prediction = core.run_bnn()[0]
    core.switch_to_cpu()
    correct += int(prediction == label)

print(f"single NCPU core, full assembly pipeline: "
      f"{correct}/{len(dataset)} digits correct, "
      f"{core.clock} total cycles, utilization {core.utilization():.1%}")

# ---- two-core NCPU vs heterogeneous baseline ------------------------------
items = use_case.items(batch=2)
comparison = compare_end_to_end(items, SchedulerConfig())
print(f"\nbatch of 2 frames "
      f"(CPU fraction {use_case.cpu_fraction:.0%} measured):")
print(f"  CPU+BNN baseline : {comparison.baseline.end:>8} cycles")
print(f"  2x NCPU          : {comparison.ncpu_dual.end:>8} cycles "
      f"({comparison.improvement:.1%} faster)")
print(f"  1x NCPU          : {comparison.ncpu_single.end:>8} cycles "
      f"({comparison.single_core_degradation:+.1%} vs baseline, "
      f"at 35.7% less silicon)")

utils = comparison.ncpu_dual.utilizations()
print(f"  NCPU utilizations: "
      f"{', '.join(f'{k}={v:.1%}' for k, v in utils.items())}")

# ---- batched fast-path engine ---------------------------------------------
eval_set = synthetic_mnist(n_samples=1024, seed=7)
eval_inputs = eval_set.binarized()
accelerator = BNNAccelerator()
print(f"\nclassifying {len(eval_set)} frames with both functional engines:")
engine_predictions = {}
for engine in ("accurate", "fast"):
    start = time.perf_counter()
    batch_predictions, timing = accelerator.infer_batch(
        use_case.model, eval_inputs, engine=engine)
    wall = time.perf_counter() - start
    engine_predictions[engine] = batch_predictions
    accuracy = float(np.mean(batch_predictions == eval_set.labels))
    print(f"  engine={engine:<8s}: {len(eval_set) / wall:>10,.0f} "
          f"inferences/s host throughput, accuracy {accuracy:.1%}, "
          f"{timing.total_cycles:,} simulated cycles")
assert np.array_equal(engine_predictions["fast"],
                      engine_predictions["accurate"])
print("  engines agree bit-for-bit (see docs/PERFORMANCE.md)")
