import numpy as np
import pytest

# numpy picks its float64 exp kernel by CPU at import: "X86_V4" (AVX512),
# "X86_V3" (AVX2) or "baseline(X86_V2)".  The kernels can differ in the last
# bit, so a digest of output that passes through numpy's exp is pinned once
# per target.  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
# selects X86_V3 on an AVX512 host, and adding X86_V3 selects the baseline.


def _exp_target():
    """numpy's float64 exp dispatch target, or None where numpy does not report one."""
    try:
        return np.lib.introspect.opt_func_info(
            func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
    except (AttributeError, KeyError):
        return None


@pytest.fixture
def for_exp_target():
    """Select, from values keyed by exp dispatch target, this host's; fail naming an unpinned one."""
    def select(by_target):
        target = _exp_target()
        if target not in by_target:
            pytest.fail(f"no digest pinned for numpy's float64 exp dispatch target {target}")
        return by_target[target]
    return select
