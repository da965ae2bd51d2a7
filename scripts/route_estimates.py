#!/usr/bin/env python3
"""Print route RTT estimates for a geometry study case.

Evaluates the case's radio-segment statistics over one orbital period,
then prices the composite dish-to-POP route two ways: with the stated
sub-terms and with the satellite terms re-derived from geometry.  A few
physical reference floors frame the numbers.

Run with no arguments for the bundled Nigeria/Lagos case:

    python3 scripts/route_estimates.py
    python3 scripts/route_estimates.py --case my_case.json --extra-hops 2
"""
from __future__ import annotations

import argparse

from leolink.constellation import (
    StudyCase,
    composite_route_rtt,
    direct_path_floor_rtt,
    evaluate_case,
    isl_extra_hop_rtt,
)
from leolink.geo import GEO_FLOOR_RTT_MS


def print_route(title: str, route) -> None:
    print(f"\n{title}")
    for seg in route.segments:
        dist = "" if seg.distance_km is None else f"  {seg.distance_km:9.1f} km"
        print(f"  {seg.start:>14} -> {seg.end:<14} {seg.medium:<9}"
              f" {seg.rtt_ms:8.3f} ms{dist}")
    print(f"  {'total':>14}    {'':<14} {'':<9} {route.total_rtt_ms:8.3f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default=None,
                        help="study case JSON (default: bundled Nigeria case)")
    parser.add_argument("--access-rtt", type=float, default=11.0,
                        help="stated radio access RTT in ms")
    parser.add_argument("--isl-oneway", type=float, default=11.0,
                        help="stated inter-satellite one-way time in ms")
    parser.add_argument("--extra-hops", type=int, default=0,
                        help="extra in-plane laser hops to price in")
    args = parser.parse_args()

    case = StudyCase.from_json(args.case) if args.case else StudyCase.nigeria()
    summary = evaluate_case(case)

    print(f"case: {summary.label}")
    print(f"  dish  ({case.dish.latitude:.4f}, {case.dish.longitude:.4f})"
          f"  boresight {case.dish.boresight_azimuth_deg:g} deg")
    print(f"  gs    {case.access_gs.label or '-'}"
          f"  ({case.access_gs.latitude:.4f}, {case.access_gs.longitude:.4f})")
    print(f"  pop   {case.pop.label or '-'}"
          f"  ({case.pop.latitude:.4f}, {case.pop.longitude:.4f})")
    print(f"  mask  elevation >= {case.visibility.min_elevation_deg:g} deg,"
          f" slant <= {case.visibility.max_slant_km:g} km")
    print(f"\nradio segment over one period"
          f" ({summary.n_samples} samples, {summary.n_no_coverage} without coverage):")
    print(f"  best-case RTT        {summary.best_rtt_ms:8.3f} ms")
    print(f"  worst-case RTT       {summary.worst_rtt_ms:8.3f} ms")
    print(f"  worst minus best     {summary.worst_minus_best_ms:8.3f} ms")
    print(f"  next-gen threshold   {summary.isl_threshold_ms:8.3f} ms")

    stated = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=args.access_rtt, isl_oneway_ms=args.isl_oneway,
        terrestrial_rtt_ms=case.terrestrial_rtt_ms,
        extra_isl_hops=args.extra_hops, config=case.config)
    print_route("composite route, stated terms:", stated)

    derived = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=summary.best_rtt_ms,
        terrestrial_rtt_ms=case.terrestrial_rtt_ms,
        extra_isl_hops=args.extra_hops, config=case.config)
    print_route("composite route, satellite terms from geometry:", derived)

    floor = direct_path_floor_rtt(case.dish.latitude, case.dish.longitude,
                                  case.pop.latitude, case.pop.longitude)
    zigzag = direct_path_floor_rtt(case.dish.latitude, case.dish.longitude,
                                   case.pop.latitude, case.pop.longitude,
                                   zigzag_factor=2.0)
    print("\nreference floors:")
    print(f"  direct light floor   {floor:8.3f} ms")
    print(f"  zig-zag bound (x2)   {zigzag:8.3f} ms")
    print(f"  one extra laser hop  {isl_extra_hop_rtt(case.config):8.3f} ms")
    print(f"  geostationary floor  {GEO_FLOOR_RTT_MS:8.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
