#!/usr/bin/env python3
"""Quickstart: build a scene, ray trace it, render a short animation with
frame coherence, and write Targa images.

Run:  python examples/quickstart.py [--width 160] [--height 120] [--out out/]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro import (
    Camera,
    CoherentRenderer,
    FunctionAnimation,
    Material,
    Plane,
    PointLight,
    RayTracer,
    Scene,
    Sphere,
    Transform,
)
from repro.materials import Checker
from repro.imageio import write_targa


def build_scene(width: int, height: int) -> Scene:
    """A floor, a chrome ball, a glass ball and one light."""
    camera = Camera(
        position=(0, 2.0, -6.5), look_at=(0, 1, 0), fov_degrees=55, width=width, height=height
    )
    floor = Plane.from_normal(
        (0, 1, 0),
        0.0,
        material=Material.textured(Checker((0.9, 0.9, 0.9), (0.15, 0.15, 0.2))),
        name="floor",
    )
    chrome = Sphere.at((-1.0, 1.0, 0.5), 1.0, material=Material.chrome(), name="chrome")
    glass = Sphere.at((1.3, 0.7, -1.0), 0.7, material=Material.glass(), name="glass")
    return Scene(
        camera=camera,
        objects=[floor, chrome, glass],
        lights=[PointLight(np.array([4.0, 7.0, -4.0]), np.array([1.0, 1.0, 1.0]))],
        background=np.array([0.15, 0.25, 0.45]),
        max_depth=5,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=160)
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--out", type=Path, default=Path("quickstart_out"))
    args = parser.parse_args()
    args.out.mkdir(exist_ok=True)

    # --- 1. render a single frame -------------------------------------------
    scene = build_scene(args.width, args.height)
    tracer = RayTracer(scene)
    framebuffer, result = tracer.render()
    write_targa(args.out / "still.tga", framebuffer.to_uint8())
    print(f"single frame: {result.stats}")
    print(f"wrote {args.out / 'still.tga'}")

    # --- 2. animate the glass ball and render with frame coherence ----------
    animation = FunctionAnimation(
        scene,
        n_frames=args.frames,
        motions={
            "glass": lambda f: Transform.translate(
                0.0, 0.9 * abs(np.sin(f * 0.55)), 0.0
            )
        },
    )
    renderer = CoherentRenderer(animation, grid_resolution=24)
    total_rays, saved_pixels = 0, 0
    for f in range(animation.n_frames):
        report = renderer.render_next()
        total_rays += report.stats.total
        saved_pixels += report.n_copied
        write_targa(args.out / f"anim{f:03d}.tga", renderer.frame_image())
        print(
            f"frame {f}: recomputed {report.n_computed:5d} px, "
            f"copied {report.n_copied:5d} px, {report.stats.total:7d} rays"
        )
    print(f"\nanimation total: {total_rays} rays; {saved_pixels} pixel-renders avoided")
    print(f"frames written to {args.out}/anim*.tga")


if __name__ == "__main__":
    main()
