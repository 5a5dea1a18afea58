"""Local illumination (the ``I_local`` term of the paper's equation).

``I_local`` is POV 3.0's Phong model: an ambient term plus, per visible
light, a Lambertian diffuse term tinted by the pigment and an untinted Phong
specular highlight.  Visibility is established with shadow rays fired
through the same intersector (and therefore counted and voxel-marked like
every other ray).

Shadow-coherence support: when a :class:`~repro.render.shadow_cache.ShadowCache`
and the hit pixels' ids are supplied, pixels flagged reusable take their
primary-shadow attenuation from the cache instead of firing shadow rays;
all other pixels fire normally and refresh their cache rows.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..rmath import dot, reflect

__all__ = ["shade_local"]


def shade_local(
    scene,
    intersector,
    points: np.ndarray,
    normals: np.ndarray,
    view_dirs: np.ndarray,
    obj_index: np.ndarray,
    shadow_hook: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
    pixel_ids: np.ndarray | None = None,
    shadow_cache=None,
) -> np.ndarray:
    """Local color at hit points.

    Parameters
    ----------
    points, normals, view_dirs:
        ``(K, 3)`` hit points, *ray-facing* unit normals, and incoming ray
        directions (pointing toward the surface).
    obj_index:
        ``(K,)`` object indices of the hits (into ``scene.objects``).
    shadow_hook:
        Called once per light with ``(origins, dirs, dists, mask)`` where
        ``mask`` selects which of the K points actually fired a shadow ray.
        The tracer uses it for ray counting and voxel marking.
    pixel_ids, shadow_cache:
        Optional shadow-coherence inputs: the flat pixel index of each hit
        and the cache of primary-shadow attenuations.  Only meaningful for
        primary (depth-0 camera) hits.

    Returns
    -------
    (K, 3) local RGB.
    """
    k = points.shape[0]
    out = np.zeros((k, 3), dtype=np.float64)
    if k == 0:
        return out

    obj_index = np.asarray(obj_index, dtype=np.int64)
    # Per-object material lookups, grouped so each object's pigment runs once.
    base_color = np.zeros((k, 3), dtype=np.float64)
    ambient = np.zeros(k, dtype=np.float64)
    diffuse = np.zeros(k, dtype=np.float64)
    specular = np.zeros(k, dtype=np.float64)
    phong_size = np.ones(k, dtype=np.float64)
    for idx in np.unique(obj_index):
        sel = obj_index == idx
        mat = scene.objects[idx].material
        if mat is None:
            raise ValueError(f"object {scene.objects[idx].name!r} has no material")
        base_color[sel] = mat.color_at(points[sel])
        fin = mat.finish
        ambient[sel] = fin.ambient
        diffuse[sel] = fin.diffuse
        specular[sel] = fin.specular
        phong_size[sel] = fin.phong_size

    out += ambient[:, None] * scene.ambient_light * base_color

    # Self-intersection offset along the shading normal.
    shadow_origins = points + normals * 1e-6

    for light_index, light in enumerate(scene.lights):
        l_dirs, l_dists = light.shadow_rays(shadow_origins)
        n_dot_l = dot(normals, l_dirs)
        lit = n_dot_l > 0.0

        if shadow_cache is not None and pixel_ids is not None:
            cached, reuse = shadow_cache.lookup(pixel_ids, light_index)
        else:
            cached = None
            reuse = np.zeros(k, dtype=bool)

        fire = lit & ~reuse
        # POV fires a shadow ray whenever the surface faces the light (and,
        # with shadow coherence, the cache cannot answer).
        atten = np.zeros(k, dtype=np.float64)
        if np.any(fire):
            origins_f = shadow_origins[fire]
            if shadow_hook is not None:
                shadow_hook(origins_f, l_dirs[fire], l_dists[fire], fire)
            atten[fire] = intersector.shadow_attenuation(origins_f, l_dirs[fire], l_dists[fire])
        if cached is not None:
            # Reused rows: the geometry (and therefore the lit mask) is
            # provably unchanged, so the cached attenuation applies exactly
            # where the pixel is lit.  Unlit rows stay 0 regardless of any
            # stale cache content.
            use = reuse & lit
            atten[use] = cached[use]
            shadow_cache.rays_saved += int(use.sum())
            if np.any(fire):
                shadow_cache.store(pixel_ids[fire], light_index, atten[fire])

        visible = atten > 0.0
        if not np.any(visible):
            continue
        intensity = light.intensity_at(l_dists) * atten[:, None]

        contrib = np.zeros((k, 3), dtype=np.float64)
        # Diffuse: pigment-tinted Lambert.
        contrib += (diffuse * np.maximum(n_dot_l, 0.0))[:, None] * base_color
        # Phong specular: highlight of the light's color, untinted.
        r = reflect(view_dirs, normals)
        r_dot_l = np.maximum(dot(r, l_dirs), 0.0)
        # Guard 0**0: where specular is off the pow is skipped anyway.
        spec = np.where(specular > 0.0, r_dot_l**phong_size, 0.0)
        contrib += (specular * spec)[:, None]

        out += np.where(visible[:, None], contrib * intensity, 0.0)

    return out
