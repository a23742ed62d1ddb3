//! Self-contained SVG rendering of the paper's figures.
//!
//! The figure binaries write these next to their JSON output so the
//! reproduction can be eyeballed against the paper's plots. Design notes
//! (following the workspace's data-viz procedure):
//!
//! * form: grouped bar chart — magnitude comparison across five process
//!   counts and five applications, the same form the paper uses;
//! * categorical palette: five slots of a validated categorical theme in
//!   fixed application order (never cycled); the light and dark variants
//!   are both validated against their surfaces (light worst adjacent
//!   CVD ΔE 24.2; dark sits in the floor band and leans on the grouped
//!   position + 2 px surface gaps + legend as secondary identity);
//! * the aqua/yellow slots fall below 3:1 contrast on the light surface:
//!   the relief rule is satisfied by the table views every figure ships
//!   (`results/summary.txt`, the JSON, `EXPERIMENTS.md`);
//! * marks: bars ≤ 24 px with a 4 px rounded data-end and square
//!   baseline, 2 px surface gaps between neighbours; the paper's value
//!   for each cell is drawn as an ink tick across the bar (secondary,
//!   non-color encoding of the comparison); hairline solid gridlines;
//! * text wears text tokens, never series hues; native SVG `<title>`
//!   tooltips give per-bar hover (app, scale, ours vs paper);
//! * dark mode is *selected*, not flipped: `Mode::Dark` swaps surface,
//!   ink and the dark-stepped palette.

use crate::exhibits::FigureData;
use crate::paper_ref::SCALE_LABELS;
use std::fmt::Write as _;

/// Light or dark rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Light surface (#fcfcfb).
    Light,
    /// Dark surface (#1a1a19).
    Dark,
}

struct Theme {
    surface: &'static str,
    ink: &'static str,
    ink2: &'static str,
    grid: &'static str,
    series: [&'static str; 5],
}

fn theme(mode: Mode) -> Theme {
    match mode {
        Mode::Light => Theme {
            surface: "#fcfcfb",
            ink: "#0b0b0b",
            ink2: "#52514e",
            grid: "#e8e7e3",
            series: ["#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7"],
        },
        Mode::Dark => Theme {
            surface: "#1a1a19",
            ink: "#ffffff",
            ink2: "#c3c2b7",
            grid: "#2e2e2c",
            series: ["#3987e5", "#199e70", "#c98500", "#008300", "#9085e9"],
        },
    }
}

/// A bar with a 4 px rounded top and square baseline.
fn bar_path(x: f64, y: f64, w: f64, baseline: f64) -> String {
    let r = 4.0_f64.min(w / 2.0).min((baseline - y).max(0.0));
    format!(
        "M{x:.1},{baseline:.1} L{x:.1},{y1:.1} Q{x:.1},{y:.1} {xr:.1},{y:.1} \
         L{xwr:.1},{y:.1} Q{xw:.1},{y:.1} {xw:.1},{y1:.1} L{xw:.1},{baseline:.1} Z",
        y1 = y + r,
        xr = x + r,
        xwr = x + w - r,
        xw = x + w,
    )
}

/// Pick a clean y-axis step covering `max` in ~5 ticks.
fn tick_step(max: f64) -> f64 {
    let raw = max / 5.0;
    for step in [1.0, 2.0, 5.0, 10.0, 20.0, 25.0, 50.0, 100.0] {
        if step >= raw {
            return step;
        }
    }
    100.0
}

/// Render one figure (savings per app × scale, ours as bars, paper as
/// ink ticks) as a standalone SVG document.
pub fn figure_svg(fig: &FigureData, mode: Mode) -> String {
    let th = theme(mode);
    let (w, h) = (940.0, 440.0);
    let (ml, mr, mt, mb) = (56.0, 16.0, 72.0, 44.0);
    let plot_w = w - ml - mr;
    let plot_h = h - mt - mb;
    let baseline = mt + plot_h;

    let napps = fig.rows.len();
    // Five scales on the paper grid, fewer on a capped one.
    let nscales = fig.rows.iter().map(|r| r.procs.len()).max().unwrap_or(0);
    let max_val = fig
        .rows
        .iter()
        .flat_map(|r| r.savings_pct.iter().chain(r.paper_savings_pct.iter()))
        .fold(0.0_f64, |a, &b| a.max(b));
    let step = tick_step(max_val);
    let y_top = (max_val / step).ceil() * step;
    let y = |v: f64| baseline - (v / y_top) * plot_h;

    let group_w = plot_w / nscales as f64;
    let gap = 2.0;
    let bar_w = ((group_w * 0.72 - gap * (napps as f64 - 1.0)) / napps as f64).min(24.0);
    let cluster_w = bar_w * napps as f64 + gap * (napps as f64 - 1.0);

    let mut s = String::new();
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, sans-serif">"#
    );
    let _ = write!(
        s,
        r#"<rect width="{w}" height="{h}" fill="{}"/>"#,
        th.surface
    );
    // Title + subtitle.
    let _ = write!(
        s,
        r#"<text x="{ml}" y="24" font-size="15" font-weight="600" fill="{}">IB switch power savings, displacement {:.0}%</text>"#,
        th.ink,
        fig.displacement * 100.0
    );
    let _ = write!(
        s,
        r#"<text x="{ml}" y="42" font-size="12" fill="{}">bars: this reproduction · ink tick: paper value (Dickov et al., ICPP 2014)</text>"#,
        th.ink2
    );
    // Legend (fixed order, swatch + name in text tokens).
    let mut lx = ml;
    for (i, row) in fig.rows.iter().enumerate() {
        let _ = write!(
            s,
            r#"<rect x="{lx}" y="52" width="10" height="10" rx="2" fill="{}"/>"#,
            th.series[i % 5]
        );
        let _ = write!(
            s,
            r#"<text x="{:.1}" y="61" font-size="11" fill="{}">{}</text>"#,
            lx + 14.0,
            th.ink2,
            row.app
        );
        lx += 14.0 + 9.0 * row.app.len() as f64 + 18.0;
    }

    // Gridlines + y ticks.
    let mut v = 0.0;
    while v <= y_top + 1e-9 {
        let yy = y(v);
        let _ = write!(
            s,
            r#"<line x1="{ml}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="{}" stroke-width="1"/>"#,
            ml + plot_w,
            th.grid
        );
        let _ = write!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end" fill="{}" font-variant-numeric="tabular-nums">{v:.0}</text>"#,
            ml - 8.0,
            yy + 4.0,
            th.ink2
        );
        v += step;
    }
    // Y-axis label.
    let _ = write!(
        s,
        r#"<text x="14" y="{:.1}" font-size="11" fill="{}" transform="rotate(-90 14 {:.1})" text-anchor="middle">savings [%]</text>"#,
        mt + plot_h / 2.0,
        th.ink2,
        mt + plot_h / 2.0
    );

    // Bars with paper ticks.
    for (g, label) in SCALE_LABELS.iter().enumerate().take(nscales) {
        let gx = ml + g as f64 * group_w + (group_w - cluster_w) / 2.0;
        for (i, row) in fig.rows.iter().enumerate() {
            let val = row.savings_pct[g];
            let x = gx + i as f64 * (bar_w + gap);
            let yy = y(val);
            let _ = write!(
                s,
                r#"<path d="{}" fill="{}"><title>{} @{}: {:.1}% (paper {:.1}%)</title></path>"#,
                bar_path(x, yy, bar_w, baseline),
                th.series[i % 5],
                row.app,
                label,
                val,
                row.paper_savings_pct[g]
            );
            // Paper value as an ink tick across the bar.
            let py = y(row.paper_savings_pct[g]);
            let _ = write!(
                s,
                r#"<line x1="{:.1}" y1="{py:.1}" x2="{:.1}" y2="{py:.1}" stroke="{}" stroke-width="2" stroke-linecap="round"/>"#,
                x - 1.5,
                x + bar_w + 1.5,
                th.ink
            );
        }
        // Group label.
        let _ = write!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle" fill="{}">{}</text>"#,
            gx + cluster_w / 2.0,
            baseline + 18.0,
            th.ink2,
            label
        );
    }
    // Baseline axis.
    let _ = write!(
        s,
        r#"<line x1="{ml}" y1="{baseline:.1}" x2="{:.1}" y2="{baseline:.1}" stroke="{}" stroke-width="1"/>"#,
        ml + plot_w,
        th.ink2
    );
    s.push_str("</svg>");
    s
}

/// Render the Fig. 10 GT sweep (hit-rate vs GT for two scales) as a line
/// chart: 2 px lines, ≥8 px end markers with a 2 px surface ring, direct
/// end labels.
pub fn fig10_svg(data: &crate::exhibits::Fig10Data, mode: Mode) -> String {
    let th = theme(mode);
    let (w, h) = (940.0, 400.0);
    let (ml, mr, mt, mb) = (56.0, 90.0, 56.0, 44.0);
    let plot_w = w - ml - mr;
    let plot_h = h - mt - mb;
    let baseline = mt + plot_h;

    let gt_max = data
        .curves
        .iter()
        .flat_map(|(_, c)| c.iter())
        .fold(0.0_f64, |a, p| a.max(p.gt_us));
    let x = |gt: f64| ml + (gt / gt_max) * plot_w;
    let y = |hit: f64| baseline - (hit / 100.0) * plot_h;

    let mut s = String::new();
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, sans-serif">"#
    );
    let _ = write!(
        s,
        r#"<rect width="{w}" height="{h}" fill="{}"/>"#,
        th.surface
    );
    let _ = write!(
        s,
        r#"<text x="{ml}" y="24" font-size="15" font-weight="600" fill="{}">Correctly predicted MPI calls vs grouping threshold (GROMACS)</text>"#,
        th.ink
    );
    let _ = write!(
        s,
        r#"<text x="{ml}" y="42" font-size="12" fill="{}">the paper's Fig. 10; per-scale optimum motivates Table III's per-application GT selection</text>"#,
        th.ink2
    );

    for v in (0..=5).map(|k| k as f64 * 20.0) {
        let yy = y(v);
        let _ = write!(
            s,
            r#"<line x1="{ml}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="{}" stroke-width="1"/>"#,
            ml + plot_w,
            th.grid
        );
        let _ = write!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end" fill="{}" font-variant-numeric="tabular-nums">{v:.0}</text>"#,
            ml - 8.0,
            yy + 4.0,
            th.ink2
        );
    }
    for gt in (0..=4).map(|k| k as f64 * 100.0) {
        let xx = x(gt);
        let _ = write!(
            s,
            r#"<text x="{xx:.1}" y="{:.1}" font-size="11" text-anchor="middle" fill="{}">{gt:.0}</text>"#,
            baseline + 18.0,
            th.ink2
        );
    }
    let _ = write!(
        s,
        r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle" fill="{}">grouping threshold [us]</text>"#,
        ml + plot_w / 2.0,
        baseline + 34.0,
        th.ink2
    );

    for (k, (n, curve)) in data.curves.iter().enumerate() {
        let color = th.series[k % 5];
        let mut path = String::new();
        for (i, p) in curve.iter().enumerate() {
            let _ = write!(
                path,
                "{}{:.1},{:.1} ",
                if i == 0 { "M" } else { "L" },
                x(p.gt_us),
                y(p.hit_rate_pct)
            );
        }
        let _ = write!(
            s,
            r#"<path d="{path}" fill="none" stroke="{color}" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>"#
        );
        // End marker with surface ring + direct label.
        if let Some(last) = curve.last() {
            let (ex, ey) = (x(last.gt_us), y(last.hit_rate_pct));
            let _ = write!(
                s,
                r#"<circle cx="{ex:.1}" cy="{ey:.1}" r="6" fill="{color}" stroke="{}" stroke-width="2"><title>{n} ranks @GT {:.0} us: {:.1}%</title></circle>"#,
                th.surface, last.gt_us, last.hit_rate_pct
            );
            let _ = write!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{}">{n} ranks</text>"#,
                ex + 12.0,
                ey + 4.0,
                th.ink
            );
        }
    }
    let _ = write!(
        s,
        r#"<line x1="{ml}" y1="{baseline:.1}" x2="{:.1}" y2="{baseline:.1}" stroke="{}" stroke-width="1"/>"#,
        ml + plot_w,
        th.ink2
    );
    s.push_str("</svg>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhibits::{Fig10Data, FigureRow};
    use crate::gt_select::GtPoint;

    fn sample_fig() -> FigureData {
        FigureData {
            displacement: 0.01,
            rows: vec![
                FigureRow {
                    app: "alya".into(),
                    procs: vec![8, 16, 32, 64, 128],
                    gt_us: vec![20.0; 5],
                    savings_pct: vec![15.5, 13.2, 9.4, 5.7, 2.6],
                    slowdown_pct: vec![0.1; 5],
                    paper_savings_pct: vec![14.5, 12.6, 8.9, 5.2, 2.3],
                    paper_slowdown_pct: vec![],
                },
                FigureRow {
                    app: "nas-bt".into(),
                    procs: vec![9, 16, 36, 64, 100],
                    gt_us: vec![20.0; 5],
                    savings_pct: vec![50.5, 46.7, 34.2, 19.6, 8.6],
                    slowdown_pct: vec![0.2; 5],
                    paper_savings_pct: vec![51.3, 46.1, 33.3, 20.4, 5.5],
                    paper_slowdown_pct: vec![],
                },
            ],
        }
    }

    #[test]
    fn figure_svg_is_wellformed() {
        for mode in [Mode::Light, Mode::Dark] {
            let svg = figure_svg(&sample_fig(), mode);
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>"));
            // 2 apps × 5 scales bars, each with a tooltip.
            assert_eq!(svg.matches("<title>").count(), 10);
            // Paper ticks present.
            assert!(svg.matches("stroke-linecap=\"round\"").count() >= 10);
            // Balanced tags.
            assert_eq!(svg.matches("<path").count(), svg.matches("</path>").count());
        }
    }

    #[test]
    fn light_and_dark_differ_only_in_theme() {
        let l = figure_svg(&sample_fig(), Mode::Light);
        let d = figure_svg(&sample_fig(), Mode::Dark);
        assert!(l.contains("#fcfcfb") && !l.contains("#1a1a19"));
        assert!(d.contains("#1a1a19") && !d.contains("#fcfcfb"));
        assert!(l.contains("#2a78d6"));
        assert!(d.contains("#3987e5"));
    }

    #[test]
    fn bar_path_rounds_top_not_baseline() {
        let p = bar_path(10.0, 50.0, 20.0, 200.0);
        assert!(p.starts_with("M10.0,200.0"));
        assert!(p.contains('Q'), "rounded data-end missing");
        assert!(p.ends_with('Z'));
        // Degenerate bar (zero height) must not produce negative radius.
        let p0 = bar_path(10.0, 200.0, 20.0, 200.0);
        assert!(!p0.contains("NaN"));
    }

    #[test]
    fn tick_steps_are_clean() {
        assert_eq!(tick_step(47.0), 10.0);
        assert_eq!(tick_step(9.0), 2.0);
        assert_eq!(tick_step(100.0), 20.0);
    }

    #[test]
    fn fig10_svg_renders_two_curves() {
        let data = Fig10Data {
            curves: vec![
                (
                    64,
                    (0..10)
                        .map(|i| GtPoint {
                            gt_us: 20.0 + 40.0 * i as f64,
                            hit_rate_pct: 50.0 + i as f64,
                            est_saving_pct: 10.0,
                        })
                        .collect(),
                ),
                (
                    128,
                    (0..10)
                        .map(|i| GtPoint {
                            gt_us: 20.0 + 40.0 * i as f64,
                            hit_rate_pct: 60.0 + i as f64,
                            est_saving_pct: 10.0,
                        })
                        .collect(),
                ),
            ],
        };
        let svg = fig10_svg(&data, Mode::Light);
        assert!(svg.contains("64 ranks"));
        assert!(svg.contains("128 ranks"));
        assert_eq!(svg.matches("<circle").count(), 2);
    }
}
