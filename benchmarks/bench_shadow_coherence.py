"""Ablation — the shadow-coherence extension (the paper's future work).

"Our future research goals include ... development of frame coherence
algorithms with shadow generation."  The extension reuses cached
primary-hit shadow attenuations for pixels that are dirty only through
secondary (reflection/refraction) paths; see ``repro.coherence.engine``.

This bench runs the renderer with ``shadow_coherence`` off and on over the
Newton sequence and reports shadow rays fired, total rays and the exactness guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.coherence import CoherentRenderer
from repro.render import RayTracer
from repro.scenes import newton_animation

from _bench_utils import write_result

N_FRAMES, W, H = 12, 128, 96


def _run():
    anim = newton_animation(n_frames=N_FRAMES, width=W, height=H)
    base = CoherentRenderer(anim, grid_resolution=32)
    ext = CoherentRenderer(anim, grid_resolution=32, shadow_coherence=True)
    base_shadow = ext_shadow = base_total = ext_total = 0
    exact = True
    for f in range(N_FRAMES):
        brep = base.render_next()
        erep = ext.render_next()
        base_shadow += brep.stats.shadow
        ext_shadow += erep.stats.shadow
        base_total += brep.stats.total
        ext_total += erep.stats.total
        if f in (0, N_FRAMES // 2, N_FRAMES - 1):
            full, _ = RayTracer(anim.scene_at(f)).render()
            exact &= bool(np.array_equal(ext.frame_image(), full.as_image()))
    return base_shadow, ext_shadow, base_total, ext_total, ext.shadow_cache.rays_saved, exact


def test_shadow_coherence_extension(benchmark, results_dir):
    base_shadow, ext_shadow, base_total, ext_total, saved, exact = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    lines = [
        f"Shadow coherence extension — Newton, {N_FRAMES} frames, {W}x{H}:",
        "",
        f"  shadow rays, base engine     : {base_shadow:,}",
        f"  shadow rays, extension       : {ext_shadow:,}",
        f"  shadow rays saved            : {saved:,} "
        f"({saved / base_shadow:.1%} of base shadow rays)",
        f"  total rays, base -> extension: {base_total:,} -> {ext_total:,}",
        f"  images bit-identical to full : {exact}",
    ]
    write_result(results_dir, "ablation_shadow_coherence.txt", "\n".join(lines))

    assert exact
    assert ext_shadow < base_shadow
    assert base_shadow - ext_shadow == saved
    assert saved > 0.03 * base_shadow  # a real effect, not noise
