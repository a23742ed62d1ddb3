//! Paraver-style timeline rendering (the paper's Fig. 6) as ASCII art.
//!
//! The paper shows a Paraver trace where dark blue marks IB links in
//! low-power mode and bright blue marks power-unaware full power. We render
//! the same picture in a terminal: one row per tracked entity (rank or
//! link), one character per time cell, the character chosen by a
//! caller-supplied state-to-glyph mapping applied to the state that
//! *dominates* (occupies the most time in) each cell.

use ibp_simcore::{SimTime, StateTimeline};
use std::fmt::Write as _;

/// Render a set of state timelines as fixed-width rows.
///
/// * `rows` — `(label, timeline)` pairs, rendered top to bottom;
/// * `end` — the time horizon (right edge);
/// * `width` — number of character cells per row;
/// * `glyph` — maps a state to the character drawn for it.
///
/// Each cell shows the state that occupies the most time within the cell's
/// time span. A scale line in microseconds is appended underneath.
///
/// # Panics
/// Panics if `width == 0` or `end` is zero.
pub fn render_timelines<S: Copy + PartialEq>(
    rows: &[(String, &StateTimeline<S>)],
    end: SimTime,
    width: usize,
    mut glyph: impl FnMut(S) -> char,
) -> String {
    assert!(width > 0, "timeline width must be positive");
    assert!(end > SimTime::ZERO, "timeline horizon must be positive");

    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let cell_ns = (end.as_ns() as f64 / width as f64).max(1.0);
    let mut out = String::new();

    for (label, tl) in rows {
        let _ = write!(out, "{label:<label_w$} |");
        // Accumulate time per state within each cell by walking intervals.
        let mut cells: Vec<char> = Vec::with_capacity(width);
        let intervals: Vec<_> = tl.intervals(end).collect();
        let mut idx = 0usize;
        for c in 0..width {
            let c_start = (c as f64 * cell_ns) as u64;
            let c_end = (((c + 1) as f64) * cell_ns) as u64;
            // Advance to the first interval overlapping this cell.
            while idx < intervals.len() && intervals[idx].end.as_ns() <= c_start {
                idx += 1;
            }
            let mut best: Option<(u64, S)> = None;
            let mut j = idx;
            while j < intervals.len() && intervals[j].start.as_ns() < c_end {
                let ov =
                    intervals[j].end.as_ns().min(c_end) - intervals[j].start.as_ns().max(c_start);
                let state = intervals[j].state;
                match &mut best {
                    Some((t, s)) if *s == state => *t += ov,
                    Some((t, _)) if ov > *t => best = Some((ov, state)),
                    None => best = Some((ov, state)),
                    _ => {}
                }
                j += 1;
            }
            cells.push(best.map_or(' ', |(_, s)| glyph(s)));
        }
        out.extend(cells);
        out.push('|');
        out.push('\n');
    }

    // Scale line.
    let _ = write!(out, "{:<label_w$} |", "");
    let total_us = end.as_us_f64();
    let marks = 5.min(width);
    for c in 0..width {
        let at_mark = marks > 0 && c % (width / marks).max(1) == 0;
        out.push(if at_mark { '+' } else { '-' });
    }
    out.push('|');
    let _ = write!(
        out,
        "\n{:<label_w$} |0{:>w$.0}us|",
        "",
        total_us,
        w = width - 1
    );
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq)]
    enum P {
        Full,
        Low,
    }

    fn glyph(p: P) -> char {
        match p {
            P::Full => '#',
            P::Low => '.',
        }
    }

    #[test]
    fn renders_dominant_state_per_cell() {
        let mut tl = StateTimeline::new(P::Full);
        tl.record(SimTime::from_us(50), P::Low);
        tl.record(SimTime::from_us(90), P::Full);
        let rows = vec![("link0".to_string(), &tl)];
        let s = render_timelines(&rows, SimTime::from_us(100), 10, glyph);
        let first_line = s.lines().next().unwrap();
        // Cells 0-4 full, 5-8 low, 9 full.
        assert!(first_line.contains("#####....#"), "got: {first_line}");
    }

    #[test]
    fn rows_aligned_on_labels() {
        let mut a = StateTimeline::new(P::Full);
        a.record(SimTime::from_us(10), P::Low);
        let b = StateTimeline::new(P::Full);
        let rows = vec![("r0".to_string(), &a), ("rank12".to_string(), &b)];
        let s = render_timelines(&rows, SimTime::from_us(20), 8, glyph);
        let lines: Vec<&str> = s.lines().collect();
        let bar0 = lines[0].find('|').unwrap();
        let bar1 = lines[1].find('|').unwrap();
        assert_eq!(bar0, bar1, "label columns must align");
    }

    #[test]
    fn scale_line_present() {
        let tl = StateTimeline::new(P::Full);
        let rows = vec![("x".to_string(), &tl)];
        let s = render_timelines(&rows, SimTime::from_ms(1), 20, glyph);
        assert!(s.contains("1000us") || s.contains("1000"), "scale: {s}");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let tl = StateTimeline::new(P::Full);
        let rows = vec![("x".to_string(), &tl)];
        let _ = render_timelines(&rows, SimTime::from_us(1), 0, glyph);
    }
}
