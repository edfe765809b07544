"""One copy of the kernel helpers: the ANN, CLK and fastpath kernels share
``repro.kernels``, and sharing it costs ``repro.privacy`` no heavy import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import kernels
from repro.ann import kernels as ann_kernels
from repro.infer import fastpath
from repro.privacy import kernels as clk_kernels

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_helpers_exist_once():
    assert ann_kernels.topk_candidates is kernels.topk_candidates
    assert clk_kernels.topk_candidates is kernels.topk_candidates
    for module in (ann_kernels, clk_kernels, fastpath):
        assert module.scratch_buf is kernels.scratch_buf


def test_scratch_buf_reuses_until_shape_or_dtype_changes():
    first = kernels.scratch_buf("test-buf", (4, 3), np.float32)
    assert kernels.scratch_buf("test-buf", (4, 3), np.float32) is first
    assert kernels.scratch_buf("test-buf", (4, 3), np.float64) is not first
    assert kernels.scratch_buf("test-buf", (2, 3), np.float64).shape == (2, 3)


def test_privacy_imports_without_the_lm_stack():
    """A fresh interpreter that imports repro.privacy loads no encoder,
    autograd, language-model or inference module."""
    script = ("import sys\n"
              "import repro.privacy\n"
              "heavy = ('repro.ann', 'repro.autograd', 'repro.lm', "
              "'repro.infer')\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.split('.')[0:2] in\n"
              "             [h.split('.') for h in heavy]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
