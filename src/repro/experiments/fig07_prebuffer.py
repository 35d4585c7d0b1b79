"""Fig. 7 — pre-buffering gain vs pre-buffer amount (§5.2).

For the locations with the fastest (loc2) and slowest (loc4) ADSL, the
paper sweeps the player's pre-buffer from 20% to 100% of the video length
across all four qualities, with one and two phones, starting the radios
from idle ("3G") and from a connected state ("H"). 3GOL gain is the
reduction in seconds of the time to fill the pre-buffer, relative to ADSL
alone. Expected shapes: the gain grows with both video quality and
pre-buffer amount; a second phone adds up to ~+26-35% on the best gain;
connected-mode starts bring only marginal, shrinking benefits.

The same sweep carries the §5 pre-buffer speedups: "an average
pre-buffering speedup of ×2.1 and a maximum of ×3.8 ... (pre-buffer
settings 20-80% across locations)". The speedup of one bar is the ADSL
fill time over the 3GOL fill time, ``base / (base - gain)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.proxy import VideoDownloadReport
from repro.experiments import wild
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.experiments.wild import CONFIGS, QUALITIES, config_label
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.util.stats import RunningStats
from repro.web.hls import HlsPlaylist

PREBUFFER_FRACTIONS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
#: The pre-buffer amounts §5 pools its speedups over ("pre-buffer
#: settings 20-80%"); every location, config and quality is pooled.
SPEEDUP_FRACTION_RANGE: Tuple[float, float] = (0.2, 0.8)


def prebuffer_times(
    report: VideoDownloadReport,
    playlist: HlsPlaylist,
    fractions: Sequence[float],
) -> List[float]:
    """Pre-buffer fill times for several fractions from one download."""
    times = []
    for fraction in fractions:
        needed = playlist.segments_for_prebuffer(fraction)
        times.append(
            report.playlist_time
            + report.result.time_to_complete([s.uri for s in needed])
        )
    return times


@dataclass(frozen=True)
class PrebufferGainResult:
    """Mean gains (seconds) per (location, config, quality, fraction)."""

    fractions: Tuple[float, ...]
    #: gains[(location, config_label, quality)] -> one value per fraction.
    gains: Dict[Tuple[str, str, str], Tuple[float, ...]]
    #: baselines[(location, quality)] -> ADSL-alone mean fill time (s),
    #: one value per fraction.
    baselines: Dict[Tuple[str, str], Tuple[float, ...]]

    def gain(
        self, location: str, config: str, quality: str, fraction: float
    ) -> float:
        """One bar of the figure."""
        series = self.gains[(location, config, quality)]
        return series[self.fractions.index(fraction)]

    def best_gain(self, location: str, config: str) -> float:
        """Largest gain across qualities and fractions for a config."""
        return max(
            max(series)
            for (loc, cfg, _), series in self.gains.items()
            if loc == location and cfg == config
        )

    def monotone_in_quality(
        self, location: str, config: str, fraction: float
    ) -> bool:
        """Gain increases from Q1 to Q4 at a fixed pre-buffer amount."""
        idx = self.fractions.index(fraction)
        values = [
            self.gains[(location, config, quality)][idx]
            for quality in QUALITIES
        ]
        return all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def pooled_speedups(self) -> List[float]:
        """ADSL fill time over 3GOL fill time, ``base / (base - gain)``,
        of every bar at the §5 pre-buffer settings (20-80%)."""
        low, high = SPEEDUP_FRACTION_RANGE
        speedups: List[float] = []
        for (location, _, quality), gains in self.gains.items():
            bases = self.baselines[(location, quality)]
            speedups += [
                base / (base - gain)
                for fraction, base, gain in zip(self.fractions, bases, gains)
                if low <= fraction <= high
            ]
        return speedups

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One table block per (location, config), then the §5 speedups."""
        blocks = []
        keys = sorted({(loc, cfg) for (loc, cfg, _) in self.gains})
        for location, config in keys:
            rows = []
            for quality in QUALITIES:
                series = self.gains[(location, config, quality)]
                rows.append([quality] + [fmt(v, 1) for v in series])
            headers = ["quality"] + [
                f"{int(f * 100)}%" for f in self.fractions
            ]
            blocks.append(
                render_table(
                    headers,
                    rows,
                    title=(
                        f"Fig. 7 — 3GOL pre-buffer gain (s), {location}, "
                        f"{config}"
                    ),
                )
            )
        speedups = self.pooled_speedups()
        avg = sum(speedups) / len(speedups)
        blocks.append(
            render_table(
                ["metric", "measured", "paper"],
                [
                    ("avg pre-buffer speedup", fmt(avg), "x2.1"),
                    ("max pre-buffer speedup", fmt(max(speedups)), "x3.8"),
                ],
                title="§5 — pre-buffer speedup, settings 20-80%",
            )
        )
        return "\n\n".join(blocks)


@experiment(
    "fig07",
    title="Fig. 7 — pre-buffering gain vs pre-buffer amount",
    description="pre-buffering gains (Fig. 7)",
    paper_ref="Fig. 7",
    claims=(
        "Paper: gain grows with quality and pre-buffer amount; second "
        "device adds up to +26-35%; connected-mode (H) start gains "
        "are marginal. Calibration: the wild runs use a 3 Mbps "
        "per-connection TCP cap (rwnd/RTT to a distant origin) — "
        "without it the paper's loc2 gains (38 s on a 21.6 Mbps line) "
        "are physically impossible; see DESIGN.md. §5: \"an average "
        "pre-buffering speedup of x2.1 and a maximum of x3.8 ... "
        "(pre-buffer settings 20-80% across locations)\".\n"
        "Measured: both monotonicities hold; 2nd phone improves the "
        "best gain at both locations; H-mode gains are a few seconds "
        "at most. Pooling every location, config and quality at "
        "20-80%, the speedup ADSL time / 3GOL time averages x1.46 "
        "with a maximum of x2.08 — compressed for the reason Fig. 8 "
        "gives: the HSPA model is calibrated to Tables 2-3, and each "
        "phone's proxy connection is held to the same 3 Mbps "
        "per-connection cap as the ADSL fetch, which bounds what two "
        "phones can add."
    ),
    bench_params={"repetitions": 4},
    quick_params={"repetitions": 1},
    checks=(
        Check("gain_grows_with_quality",
              "Fig. 7: the pre-buffering gain grows with video quality",
              lambda r: all(r.gain(loc, "3G_1PH", "Q4", 1.0)
                            > r.gain(loc, "3G_1PH", "Q1", 1.0)
                            for loc in ("loc2", "loc4"))),
        Check("gain_grows_with_prebuffer",
              "Fig. 7: the gain grows with the pre-buffer amount",
              lambda r: all(r.gains[(loc, "3G_1PH", "Q4")][-1]
                            > r.gains[(loc, "3G_1PH", "Q4")][0]
                            for loc in ("loc2", "loc4"))),
        Check("second_phone_improves_best_gain",
              "Fig. 7: a second phone adds 26-35% to the gain",
              lambda r: all(r.best_gain(loc, "3G_2PH")
                            > r.best_gain(loc, "3G_1PH")
                            for loc in ("loc2", "loc4"))),
        Check("best_gain_3_to_60_s",
              "Fig. 7: the gains are seconds-scale",
              lambda r: 3.0 < r.best_gain("loc4", "3G_1PH") < 60.0),
    ),
    order=90,
)
def run(
    locations: Sequence[LocationProfile] = (
        EVALUATION_LOCATIONS[1],  # loc2, fastest ADSL
        EVALUATION_LOCATIONS[3],  # loc4, slowest ADSL
    ),
    fractions: Sequence[float] = PREBUFFER_FRACTIONS,
    configs: Sequence[Tuple[int, bool]] = CONFIGS,
    repetitions: int = 5,
) -> PrebufferGainResult:
    """Run the sweep. One download per (config, quality, seed) yields the
    pre-buffer times for *all* fractions at once."""
    gains: Dict[Tuple[str, str, str], Tuple[float, ...]] = {}
    baselines: Dict[Tuple[str, str], Tuple[float, ...]] = {}
    for location in locations:
        for quality in QUALITIES:
            # ADSL baseline pre-buffer times.
            base_stats = [RunningStats() for _ in fractions]
            playlist = None
            for seed in range(repetitions):
                session = wild.make_session(location, n_phones=1, seed=seed)
                video = session.host_bipbop()
                playlist = video.playlist(quality)
                report = session.download_video(
                    "bipbop", quality, use_3gol=False, prebuffer_fraction=None
                )
                for stat, value in zip(
                    base_stats, prebuffer_times(report, playlist, fractions)
                ):
                    stat.add(value)
            baselines[(location.name, quality)] = tuple(
                base.mean for base in base_stats
            )
            for n_phones, connected in configs:
                stats = [RunningStats() for _ in fractions]
                for seed in range(repetitions):
                    session = wild.make_session(
                        location,
                        n_phones=n_phones,
                        seed=seed,
                        connected_start=connected,
                    )
                    video = session.host_bipbop()
                    playlist = video.playlist(quality)
                    report = session.download_video(
                        "bipbop", quality, prebuffer_fraction=None
                    )
                    for stat, value in zip(
                        stats, prebuffer_times(report, playlist, fractions)
                    ):
                        stat.add(value)
                key = (
                    location.name,
                    config_label(n_phones, connected),
                    quality,
                )
                gains[key] = tuple(
                    max(0.0, base.mean - onload.mean)
                    for base, onload in zip(base_stats, stats)
                )
    return PrebufferGainResult(
        fractions=tuple(fractions), gains=gains, baselines=baselines
    )
