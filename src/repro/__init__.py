"""repro — a reproduction of *NCPU: An Embedded Neural CPU Architecture on
Resource-Constrained Low Power Devices for Real-time End-to-End Performance*
(MICRO 2020).

Subpackages:

* :mod:`repro.isa` — RV32I + NCPU custom extension, assembler/disassembler.
* :mod:`repro.cpu` — functional and cycle-accurate 5-stage pipeline simulators.
* :mod:`repro.bnn` — binary neural network model, trainer, datasets,
  cycle-level accelerator.
* :mod:`repro.mem` — SRAM banks, address arbiter, DMA, shared L2.
* :mod:`repro.core` — the reconfigurable NCPU core, SoCs, discrete-event
  end-to-end execution.
* :mod:`repro.power` — 65 nm technology/area/energy models and metrics.
* :mod:`repro.workloads` — image pre-processing, motion features, Dhrystone-
  and MiBench-like kernels (reference Python + RV32I assembly).
* :mod:`repro.nalu` — Neural ALU experiment (paper section VIII.C).
* :mod:`repro.experiments` — one module per paper table/figure.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to ``1`` where the caller left them unset.  A
multi-threaded BLAS pool can stall a small float32 GEMM for tens of
milliseconds, and the ``fast`` engine's BNN kernel is a chain of small
float32 GEMMs.  The variables only take effect if numpy has not loaded
yet, and ``import repro`` loads no numpy; for a process that loaded
numpy first, :mod:`repro.bnn.vectorized` sets numpy's bundled OpenBLAS
to one thread when it loads.  A value the caller sets still wins.
"""

import os

__version__ = "1.0.0"

#: the BLAS thread variables this import set, because the caller had not
_BLAS_DEFAULTED = tuple(name for name in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")
                        if name not in os.environ)
os.environ.update(dict.fromkeys(_BLAS_DEFAULTED, "1"))
