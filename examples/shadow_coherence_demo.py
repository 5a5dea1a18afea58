#!/usr/bin/env python3
"""The shadow-coherence extension (the paper's future work) in action.

Renders the Newton sequence with the coherent renderer's ``shadow_coherence``
off and on, verifying both produce identical images while the
extension fires fewer shadow rays: pixels on static chrome marbles that
merely *reflect* the swinging end marble reuse their own cached shadow
attenuations.

Run:  python examples/shadow_coherence_demo.py [--frames 12]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.coherence import CoherentRenderer
from repro.scenes import newton_animation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--width", type=int, default=128)
    parser.add_argument("--height", type=int, default=96)
    parser.add_argument("--grid", type=int, default=32)
    args = parser.parse_args()

    anim = newton_animation(n_frames=args.frames, width=args.width, height=args.height)
    base = CoherentRenderer(anim, grid_resolution=args.grid)
    ext = CoherentRenderer(anim, grid_resolution=args.grid, shadow_coherence=True)

    print(f"{'frame':>5s} {'dirty px':>9s} {'reusable':>9s} {'shadow rays':>12s} {'saved':>7s} {'identical':>10s}")
    base_shadow = ext_shadow = 0
    for f in range(anim.n_frames):
        brep = base.render_next()
        erep = ext.render_next()
        base_shadow += brep.stats.shadow
        ext_shadow += erep.stats.shadow
        same = np.array_equal(base.frame_image(), ext.frame_image())
        print(
            f"{f:>5d} {erep.n_computed:>9d} {erep.n_shadow_reusable:>9d} "
            f"{erep.stats.shadow:>6d}/{brep.stats.shadow:<5d} "
            f"{erep.shadow_rays_saved:>7d} {str(same):>10s}"
        )
        if not same:
            raise SystemExit("images diverged — extension bug!")

    saved = ext.shadow_cache.rays_saved
    print(
        f"\nshadow rays: {base_shadow:,} (base) -> {ext_shadow:,} (extension); "
        f"{saved:,} saved ({saved / base_shadow:.1%}), images bit-identical"
    )


if __name__ == "__main__":
    main()
