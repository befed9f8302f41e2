"""Mutated config and checkpoint files, the two inputs a command reads, end
in a loaded value or a DtstError, never in another exception."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst.config import load_config
from dtst.errors import DtstError
from dtst.model import (ModelConfig, init_params, load_checkpoint, restore_params,
                        save_checkpoint)
from dtst.selector import SelectorConfig

BENCHMARK_CFG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
TINY_MODEL = ModelConfig(num_identities=3, num_blocks=1, embed_dim=2, num_attn_heads=1,
                         patch_grid=(1, 2), patch_dim=1, selector=SelectorConfig(k=1))


@st.composite
def mutations(draw, blob):
    """`blob` truncated, with bytes flipped, with bytes inserted, or with
    lines dropped."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "drop_lines"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "insert":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
    lines = blob.splitlines(keepends=True)
    drop = draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3))
    return b"".join(line for i, line in enumerate(lines) if i not in drop)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_blob(fuzz_dir):
    path = fuzz_dir / "saved.bin"
    save_checkpoint(path, init_params(TINY_MODEL, seed=0), TINY_MODEL)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_config_loads_or_raises_dtst_error(fuzz_dir, data):
    path = fuzz_dir / "mutated.cfg"
    path.write_bytes(data.draw(mutations(BENCHMARK_CFG.read_bytes())))
    try:
        load_config(path)
    except DtstError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_dtst_error(fuzz_dir, checkpoint_blob, data):
    path = fuzz_dir / "checkpoint.bin"
    path.write_bytes(data.draw(mutations(checkpoint_blob)))
    try:
        restore_params(init_params(TINY_MODEL, seed=0), load_checkpoint(path, TINY_MODEL))
    except DtstError:
        pass
