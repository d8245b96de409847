#!/usr/bin/env python3
"""Generate the shipped workload profiles in models/.

The published per-model parameter totals and bitwidth lists are fixed
targets; exact per-layer channel splits were never published, so this
script constructs plausible layer stacks and solves the last one or two
widths as integers so each stack sums to its target exactly. Re-running
regenerates the same files (the solvers are deterministic scans).

Bitwidth list notes, baked into the emitted files:
* resnet20: the published weight list reads "[2, 4]" against 20 layers;
  emitted as first layer 2-bit, all remaining 4-bit. The activation list
  has 19 entries for 20 layers; the final classifier layer inherits the
  last listed value (8).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bitwave.workload_ir import weight_footprint_bits, workload_from_dict  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "models"

VARIANTS = {  # homogeneous quantization variants shipped next to each profile
    "w16a16": (16, 16),
    "w4a4": (4, 4),
    "w1a1": (1, 1),
    "w1a4": (1, 4),
}


def conv(cin, cout, k, h, w, stride=1, padding=1):
    return {
        "kind": "CONV", "in_channels": cin, "out_channels": cout,
        "kernel_h": k, "kernel_w": k, "in_height": h, "in_width": w,
        "stride": stride, "padding": padding,
    }


def fc(nin, nout):
    return {"kind": "FC", "in_features": nin, "out_features": nout}


def n_params(layer):
    if layer["kind"] == "CONV":
        return layer["kernel_h"] * layer["kernel_w"] * layer["in_channels"] * layer["out_channels"]
    return layer["in_features"] * layer["out_features"]


def build_alexnet(target=38_413_156):
    """CIFAR-10 scale stack: 5 conv + 2 fc; solve (conv5 width, fc hidden)."""
    head = [
        conv(3, 128, 7, 32, 32, stride=2, padding=3),    # -> 16x16
        conv(128, 768, 5, 16, 16, stride=2, padding=2),  # -> 8x8
        conv(768, 512, 3, 8, 8),
        conv(512, 384, 3, 8, 8),
    ]
    fixed = sum(n_params(l) for l in head)
    for c5 in range(512, 63, -1):
        rem = target - fixed - 9 * 384 * c5
        denom = 16 * c5 + 10  # fc1 (16*c5 -> y) plus fc2 (y -> 10)
        if rem > 0 and rem % denom == 0:
            y = rem // denom
            if 1024 <= y <= 16384:
                layers = head + [
                    conv(384, c5, 3, 8, 8, stride=2, padding=1),  # -> 4x4
                    fc(16 * c5, y),
                    fc(y, 10),
                ]
                return layers
    raise SystemExit("no alexnet solution found")


def build_resnet20(target=271_786):
    """Three-stage residual stack; solve the four stage widths.

    The scan prefers the solution closest to the classic 16/32/64 widths;
    with the published total that lands on stages 20/30/63 with a 76-wide
    final conv feeding the classifier.
    """
    candidates = []
    for c0 in range(12, 40):
        base = 27 * c0 + 6 * 9 * c0 * c0
        for u in range(16, 64):
            stage2 = 9 * c0 * u + 5 * 9 * u * u
            for w in range(32, 128):
                head = base + stage2 + 9 * u * w + 4 * 9 * w * w
                rem = target - head
                denom = 9 * w + 10  # last conv (w -> z) plus classifier (z -> 10)
                if rem > 0 and rem % denom == 0:
                    z = rem // denom
                    if 16 <= z <= 192:
                        dist = abs(c0 - 16) + abs(u - 32) + abs(w - 64) + abs(z - 64)
                        candidates.append((dist, c0, u, w, z))
    if not candidates:
        raise SystemExit("no resnet20 solution found")
    _, c0, u, w, z = min(candidates)
    layers = [conv(3, c0, 3, 32, 32)] + [conv(c0, c0, 3, 32, 32) for _ in range(6)]
    layers.append(conv(c0, u, 3, 32, 32, stride=2, padding=1))  # -> 16x16
    layers += [conv(u, u, 3, 16, 16) for _ in range(5)]
    layers.append(conv(u, w, 3, 16, 16, stride=2, padding=1))   # -> 8x8
    layers += [conv(w, w, 3, 8, 8) for _ in range(4)]
    layers.append(conv(w, z, 3, 8, 8))
    layers.append(fc(z, 10))  # global average pool feeds the classifier
    return layers


def build_svhn(target=552_362):
    """Compact 4 conv + 3 fc stack; solve the two fc widths."""
    head = [
        conv(3, 32, 3, 32, 32),
        conv(32, 48, 3, 32, 32, stride=2, padding=1),   # -> 16x16
        conv(48, 64, 3, 16, 16, stride=2, padding=1),   # -> 8x8
        conv(64, 96, 3, 8, 8, stride=2, padding=1),     # -> 4x4
    ]
    fixed = sum(n_params(l) for l in head)
    rem_total = target - fixed
    for f1 in range(64, 513):
        # fc1: 16*96 -> f1, fc2: f1 -> f2, fc3: f2 -> 10
        rest = rem_total - 16 * 96 * f1
        denom = f1 + 10
        if rest > 0 and rest % denom == 0:
            f2 = rest // denom
            if 32 <= f2 <= 512:
                return head + [fc(16 * 96, f1), fc(f1, f2), fc(f2, 10)]
    raise SystemExit("no svhn solution found")


MODELS = {
    "alexnet": {
        "build": build_alexnet,
        "declared": 38_413_156,
        "weight_bits": [6, 6, 4, 4, 4, 4, 4],
        "act_bits": [6, 6, 4, 4, 4, 4, 4],
    },
    "resnet20": {
        "build": build_resnet20,
        "declared": 271_786,
        # published list "[2, 4]": first layer 2-bit, the rest 4-bit
        "weight_bits": [2] + [4] * 19,
        # 19 published entries; the classifier inherits the final 8
        "act_bits": [4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 8, 6, 8, 10, 10, 10, 10, 8] + [8],
    },
    "svhn_cnn": {
        "build": build_svhn,
        "declared": 552_362,
        "weight_bits": [8, 8, 4, 4, 4, 4, 4],
        "act_bits": [8, 8, 4, 4, 4, 8, 4],
    },
}


def emit(name, layers, declared, weight_bits, act_bits):
    doc = {
        "name": name,
        "declared_param_count": declared,
        "weight_bits": weight_bits,
        "act_bits": act_bits,
        "layers": layers,
    }
    model = workload_from_dict(doc)  # validates shapes against the declared total
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    mean_bits = weight_footprint_bits(model) / declared
    print(f"{path.name}: {len(model.layers)} layers, {declared} params, "
          f"mean weight bits {mean_bits:.3f}")
    for suffix, (wb, ab) in VARIANTS.items():
        vdoc = dict(doc)
        vdoc["name"] = f"{name}_{suffix}"
        vdoc["weight_bits"] = wb
        vdoc["act_bits"] = ab
        workload_from_dict(vdoc)
        vpath = OUT / f"{name}_{suffix}.json"
        vpath.write_text(json.dumps(vdoc, indent=2) + "\n", encoding="utf-8")


def main():
    OUT.mkdir(exist_ok=True)
    for name, spec in MODELS.items():
        layers = spec["build"]()
        emit(name, layers, spec["declared"], spec["weight_bits"], spec["act_bits"])


if __name__ == "__main__":
    main()
