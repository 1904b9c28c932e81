"""The emitters as they ran before block formatting: one f-string per
value for the CSV and SVG, one dict per box through `json.dumps` for the
geometry JSON.  The tests require the files the streaming emitters write
to equal these byte for byte."""

import json

from trapcert.certify import Certificates
from trapcert.geometry import Boxes, GeometryError, GeometrySummary

_CSV_COLUMNS = ("j", "k", "a", "eps", "infsup_ub", "cprime_lb", "c_lb", "margin")


def certificates_csv(records: Certificates) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    columns = (records.j, records.k, records.a, records.eps, records.infsup_ub,
               records.c_prime_lb, records.c_lb, records.margin)
    for j, *values in zip(*(c.tolist() for c in columns)):
        lines.append(",".join([str(j)] + [f"{v:.17g}" for v in values]))
    return "\n".join(lines) + "\n"


def _f6(value: float) -> str:
    out = f"{value:.6f}"
    return "0.000000" if out == "-0.000000" else out


def svg_document(boxes: Boxes) -> str:
    if boxes.lo.shape[1] != 2:
        raise GeometryError(
            f"SVG output is only defined for dimension 2, "
            f"got dimension {boxes.lo.shape[1]}"
        )
    lo, hi = boxes.lo, boxes.hi
    xs_lo, ys_lo = lo.min(axis=0).tolist()
    xs_hi, ys_hi = hi.max(axis=0).tolist()
    margin = 0.05 * max(xs_hi - xs_lo, ys_hi - ys_lo)
    view = (xs_lo - margin, -ys_hi - margin,
            (xs_hi - xs_lo) + 2.0 * margin, (ys_hi - ys_lo) + 2.0 * margin)
    stroke = max(1.0e-6, 0.02 * boxes.side.min().item())

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_f6(view[0])} {_f6(view[1])} {_f6(view[2])} {_f6(view[3])}">',
        f'<g fill="#e6e6e6" stroke="#000000" stroke-width="{_f6(stroke)}" '
        f'stroke-linecap="butt" stroke-linejoin="miter">',
    ]
    slots = lo[:, 0] + boxes.side * boxes.gap
    for (x0, y0), (x1, y1), slot in zip(lo.tolist(), hi.tolist(), slots.tolist()):
        lines.append(
            f'<path d="M {_f6(slot)} {_f6(-y0)} L {_f6(x1)} {_f6(-y0)} '
            f'L {_f6(x1)} {_f6(-y1)} L {_f6(x0)} {_f6(-y1)} '
            f'L {_f6(x0)} {_f6(-y0)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def geometry_document(boxes: Boxes, summary: GeometrySummary) -> dict:
    """The JSON-ready document for a built arrangement.  All floats pass
    through json.dumps unchanged, i.e. as shortest round-trip decimals."""
    return {
        "dimension": summary.dimension,
        "layout": summary.layout,
        "summary": {
            "boxCount": summary.box_count,
            "horizontalExtent": summary.horizontal_extent,
            "heightInterval": list(summary.height_interval),
            "volumeInterval": list(summary.volume_interval),
            "rGammaUpper": summary.r_gamma_upper,
        },
        "boxes": [
            {"j": j, "layer": layer, "side": side, "translation": lo,
             "gap": gap, "wavenumber": k, "targetA": a}
            for j, layer, side, lo, gap, k, a in zip(
                boxes.j.tolist(), boxes.layer.tolist(), boxes.side.tolist(),
                boxes.lo.tolist(), boxes.gap.tolist(), boxes.k.tolist(),
                boxes.a.tolist())
        ],
    }


def geometry_json(boxes: Boxes, summary: GeometrySummary) -> str:
    return json.dumps(geometry_document(boxes, summary), indent=1) + "\n"
