"""Quickstart: the four layers of the library in ~80 lines.

1. assemble and run RISC-V code on the cycle-accurate 5-stage pipeline,
2. train a small binary neural network and run it on the accelerator model,
3. put both on one reconfigurable NCPU core and switch modes with the
   custom ``trans_bnn`` instruction,
4. classify a whole batch through the fast engine's GEMM kernel and
   compare host throughput against the accurate engine (identical
   predictions).

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro.bnn import BNNAccelerator, binarize_sign, train_bnn
from repro.bnn.quantize import pack_bits, sign_to_bits
from repro.core import NCPUCore
from repro.cpu import run_pipelined
from repro.isa import assemble

# ---- 1. a RISC-V program on the pipeline --------------------------------
program = assemble("""
    li   a0, 0          # sum
    li   a1, 1          # i
    li   a2, 101
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    bne  a1, a2, loop
    ebreak
""")
cpu, result = run_pipelined(program)
print(f"sum(1..100) = {cpu.regs.read(10)}  "
      f"({result.stats.instructions} instructions, "
      f"{result.stats.cycles} cycles, IPC {result.stats.ipc:.2f})")

# ---- 2. a binary neural network on the accelerator ----------------------
rng = np.random.default_rng(0)
x = np.where(rng.standard_normal((600, 32)) > 0, 1, -1)
labels = (x[:, :16].sum(axis=1) > x[:, 16:].sum(axis=1)).astype(np.int64)
model = train_bnn(x, labels, [32, 32, 32, 2], epochs=15, seed=0)
print(f"trained BNN accuracy: {model.accuracy(x, labels):.1%}")

accelerator = BNNAccelerator()
sample = binarize_sign(rng.standard_normal(32))
inference = accelerator.infer(model, sample)
print(f"accelerator: class {inference.prediction} in "
      f"{inference.cycles} cycles ({inference.macs} binary MACs)")

# ---- 3. both on one reconfigurable NCPU core -----------------------------
core = NCPUCore()
core.load_model(model)

# CPU mode: compute something, configure the BNN run, then switch modes
core.memory.banks["image"].write_words(
    0, [int(w) for w in pack_bits(sign_to_bits(sample))])
run = core.run_cpu_program(assemble("""
    li a0, 32
    mv_neu 0, a0        # transition neuron 0: input size
    li a0, 1
    mv_neu 1, a0        # transition neuron 1: batch of 1
    trans_bnn           # zero-latency switch into BNN mode
"""))
assert run.stop_reason == "trans_bnn"
predictions = core.run_bnn()
core.switch_to_cpu()
print(f"NCPU core: mode-switched and classified -> class {predictions[0]}, "
      f"total {core.clock} cycles, utilization {core.utilization():.1%}")

# ---- 4. batched inference on the fast engine -----------------------------
batch = np.where(rng.standard_normal((2000, 32)) > 0, 1, -1).astype(np.int8)
results = {}
for engine in ("accurate", "fast"):
    start = time.perf_counter()
    batch_predictions, timing = accelerator.infer_batch(
        model, batch, engine=engine)
    wall = time.perf_counter() - start
    results[engine] = batch_predictions
    print(f"engine={engine:<8s}: {len(batch) / wall:>10,.0f} inferences/s "
          f"host throughput ({timing.cycles_per_inference:.0f} simulated "
          f"cycles/inference either way)")
assert np.array_equal(results["fast"], results["accurate"])
print("fast and accurate engines agree bit-for-bit on all "
      f"{len(batch)} predictions")
